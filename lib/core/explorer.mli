(** From pattern back to trace: witness lookup.

    Section 2.3: a discovered pattern "guides the analyst to realize the
    concrete performance incident by investigating a specific trace
    stream" — the Figure 1 snapshot was reconstructed this way. This
    module performs that step mechanically: given a contrast pattern, it
    finds the scenario instances whose Wait Graphs actually exhibit it,
    ranked by how much the matching behaviour cost them. *)

type witness = {
  stream : Dptrace.Stream.t;
  instance : Dptrace.Scenario.instance;
  matched_cost : Dputil.Time.t;
      (** Σ cost of the instance's wait-graph events whose signatures
          participate in the pattern match. *)
  chain : Dptrace.Event.t list;
      (** One concrete root-to-leaf event chain realising the pattern
          (top-level wait first). *)
}

val witnesses :
  ?limit:int ->
  Component.t ->
  Dptrace.Corpus.t ->
  scenario:string ->
  pattern:Mining.pattern ->
  unit ->
  witness list
(** Scan the scenario's instances for Wait Graphs containing a
    root-to-leaf chain whose Signature Set Tuple includes the pattern's
    tuple. Returns up to [limit] (default 5) witnesses, costliest first.
    An empty list means the pattern came from other instances than the
    ones scanned (or from a different corpus). *)

val render : witness -> string
(** Figure-1-style narrative: the instance, its duration, and the matched
    propagation chain hop by hop with thread names and costs. *)

(** {1 Drill-down helpers (driveperf explain)} *)

val with_events :
  (Dptrace.Stream.t list * (string list -> (Dptrace.Stream.t list, string) result)) list ->
  Dptrace.Stream.t list ->
  (Dptrace.Stream.t -> Dptrace.Stream.t, string) result
(** [with_events files wanted] gives the skeletons [wanted] their events
    back. Each of [files] is one read's skeletons and its keyed reload
    ({!Dptrace.Corpus_dir.reload}), called with the content keys of the
    wanted skeletons among them, if any. The result maps a skeleton to
    its reloaded stream, under the skeleton's id, and any other stream
    to itself; the first reload error is the error. *)

val keyed :
  (Dptrace.Scenario.spec list -> Dptrace.Codec_v2.frame -> 'a) ->
  Dptrace.Scenario.spec list ->
  Dptrace.Codec_v2.frame ->
  'a
(** [keyed step]: a fold's [step] that first memoises the frame's content
    key on its stream ({!Dptrace.Codec_v2.frame_key}), so the skeletons
    the fold keeps carry it for {!with_events}. Only a text or in-memory
    stream's key costs a re-encode. *)

val resolve_ref :
  Dptrace.Corpus.t ->
  Provenance.instance_ref ->
  (Dptrace.Stream.t * Dptrace.Scenario.instance) option
(** Resolve a provenance reference back to its stream and scenario
    instance in the loaded corpus ([None] if the corpus differs from the
    one the provenance was recorded on). *)

val render_chain_events : witness -> string
(** The witness's matched chain as raw trace events, one per line, with
    absolute [\[ts, te\]] windows, kind, thread and cost. *)

val render_event_window :
  ?context:int -> Dptrace.Stream.t -> event_id:int -> string
(** The raw stream window around one event id: [context] (default 3)
    events either side, the subject line marked with [>]. Empty string
    for an out-of-range id. *)
