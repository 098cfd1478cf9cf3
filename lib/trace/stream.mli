(** Trace streams (Section 2.1): the event sequence recorded on one machine
    over one tracing session, plus the scenario instances it contains.

    Events are sorted by timestamp and carry dense ids equal to their index,
    so an event id identifies an event within its stream; the pair
    [(stream id, event id)] identifies it within a corpus — the identity
    used by the distinct-wait deduplication of Section 3.2. *)

type index
(** Per-stream query index; see {!section-indexed} below. *)

type t = private {
  id : int;
  events : Event.t array;  (** Sorted by [ts]; [events.(i).id = i]. *)
  instances : Scenario.instance list;
  threads : (int * string) list;  (** tid → human-readable thread name. *)
  memo_index : index option Atomic.t;
      (** Memoised by {!shared_index}; read directly only by tests. *)
  memo_key : string option Atomic.t;
      (** Memoised content identity (codec-v2 frame checksum); see
          {!key_memo}. *)
}

val create :
  id:int ->
  events:Event.t array ->
  instances:Scenario.instance list ->
  threads:(int * string) list ->
  t
(** Orders the events by [ts], then [tid], then zero-cost events first
    (ties keep their input order), and renumbers their ids to be the
    array indices; the ids supplied by the caller are otherwise ignored.

    In-order fast path: when [events] is already in that order and every
    [events.(i).id = i] — what the decoders produce — the array itself
    becomes the stream's, with no copy, so the caller must not mutate it
    afterwards. Otherwise [events] is left untouched and the stream gets a
    sorted, renumbered copy; the result is the same either way. *)

val skeleton : t -> t
(** The stream's id, instances and content key ({!key_memo}), without
    its events or thread names: [event_count = 0], [threads = []]. What
    a corpus fold keeps of each stream once its one pass has run, so
    that instance records ({!Corpus.instances_of}, classification)
    outlive the events. Thread names are read only together with events
    (timelines, witnesses, trace export), and at about 26 threads per
    stream they would be most of a skeleton. Nothing that reads events
    or thread names may be given a skeleton. *)

val thread_name : t -> int -> string
(** Name of a thread, or ["tid<N>"] if unregistered. *)

val duration : t -> Dputil.Time.t
(** Span from the first event start to the last event end; 0 if empty. *)

val event_count : t -> int

(** {1:indexed Indexed queries}

    An [index] is built once per pass over a stream and shared by all
    per-instance analyses of that pass.

    Index lifetime: the index is about as large as the stream's event
    array, so a stream keeps one only while something needs it. The one
    per-stream pass of a report, a cache fill or a monitor tick takes
    {!pass_index}, whose index dies with the pass. Consumers that come
    back to a stream for several passes (graph building per scenario,
    explain, viz) take {!shared_index}, which keeps it for the stream's
    lifetime. *)

val index : t -> index
(** Build a fresh index. Pure; prefer {!pass_index} or {!shared_index}
    unless the fresh build is wanted (e.g. benchmarking the construction
    itself). *)

val pass_index : t -> index
(** The index for one pass: the memoised one if {!shared_index} already
    built it (counted as [stream.index.hit]), else a fresh one that is not
    memoised (counted as [stream.index.miss]), so the stream does not
    retain it after the pass. *)

val shared_index : t -> index
(** The stream's memoised index: built on first use, then reused by every
    later call on the same stream value — across scenarios, analysis
    passes and domains (the memo is an [Atomic.t] published with a single
    compare-and-set, so concurrent first calls race benignly and all
    observe one index identity). Counted like {!pass_index}. *)

val key_memo : t -> string option
(** The stream's memoised content-identity key, if one was recorded —
    [Codec_v2] stores the frame checksum here during load so cache-keyed
    re-analysis ({!Snapshot} in dpcore) never re-encodes a stream it just
    decoded. *)

val set_key_memo : t -> string -> unit
(** Record the content-identity key. First writer wins (the key is a pure
    function of the stream content, so racing writers agree). *)

val events_of_thread : index -> int -> Event.t array
(** All events of a thread, timestamp-ordered ([| |] for unknown tids). *)

val thread_events_overlapping :
  index -> tid:int -> from_ts:Dputil.Time.t -> to_ts:Dputil.Time.t -> Event.t list
(** Events of [tid] whose span [\[ts, ts+cost\]] intersects
    [\[from_ts, to_ts\]], in timestamp order. Zero-cost events (unwaits)
    count as intersecting when their instant lies within the window. *)

val find_waker : index -> Event.t -> Event.t option
(** [find_waker idx w] is the unwait event that ended wait [w]: the first
    unwait with [wtid = w.tid] and timestamp in [(w.ts, w.ts + w.cost\]]
    (closed at [w.ts] too when [w.cost = 0] — an unwait at exactly the
    start instant otherwise belongs to the wait that {e ended} there).
    [None] if the trace lost the pairing (truncated stream). *)

val pp_summary : Format.formatter -> t -> unit
