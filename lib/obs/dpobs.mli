(** Self-telemetry for the analysis engine.

    The paper's thesis is that performance is comprehended from execution
    traces; this module turns the same lens on driveperf itself. Four
    pieces:

    - {!Span}: nestable timed spans over the monotonic clock, recorded
      into one buffer per domain so instrumentation is safe (and
      contention-free) under [Dppar.Pool]; buffers are merged only at
      export time.
    - {!Metrics}: a process-wide registry of named counters, gauges and
      histograms with atomic updates.
    - {!Export}: Chrome trace-event JSON (loadable in Perfetto /
      about:tracing; pid = process, tid = domain) and a flat metrics dump.
    - {!Log}: the user-facing leveled logger over {!Dputil.Logf}.

    Everything is off by default. A disabled instrumentation site costs
    one atomic load and one branch — {!Span.with_span} is a tail call to
    its thunk, allocates nothing, and creates no buffers — so permanent
    instrumentation of hot paths is free until someone passes
    [--trace-out] or [--metrics-out].

    Recording is multi-domain safe. Merging ({!Span.events}, {!Export})
    assumes quiescence: call it after the parallel work whose spans you
    want has completed, e.g. at command exit. *)

val now_ns : unit -> int64
(** Monotonic clock, nanoseconds from an arbitrary origin. *)

val enable : ?spans:bool -> ?metrics:bool -> unit -> unit
(** Switch recording on. [spans] and [metrics] both default to [true];
    passing [~spans:false] (resp. [~metrics:false]) leaves that switch
    untouched rather than clearing it. *)

val disable : unit -> unit
(** Switch both spans and metrics off. Already-recorded data is kept. *)

val metrics_on : unit -> bool

(** {1 Leveled logging} *)

module Log : sig
  type level = Dputil.Logf.level = Error | Warn | Info | Debug

  val set_level : level -> unit
  (** Default {!Warn}: errors and warnings print, info/debug are silent. *)

  val level_of_string : string -> (level, string) result
  (** Accepts "error", "warn"/"warning", "info", "debug" (any case). *)

  val init_from_env : unit -> unit
  (** Apply the [DRIVEPERF_LOG] environment variable, if set to a valid
      level name; an invalid value logs a warning and changes nothing. *)

  val error : ('a, Format.formatter, unit, unit) format4 -> 'a
  val warn : ('a, Format.formatter, unit, unit) format4 -> 'a
  val info : ('a, Format.formatter, unit, unit) format4 -> 'a
  val debug : ('a, Format.formatter, unit, unit) format4 -> 'a
end

(** {1 Metrics registry} *)

module Metrics : sig
  type counter
  type gauge
  type histogram

  val counter : string -> counter
  (** Get or create the counter [name]. Registration is idempotent: the
      same name always yields the same cell.
      @raise Invalid_argument if [name] is registered as another kind. *)

  val lazy_counter : string -> unit -> counter
  (** [lazy_counter name ()] is [counter name], registered on the first
      call only. Unlike a [lazy], it is safe to resolve from several
      domains at once: racing first calls get the same counter. *)

  val gauge : string -> gauge

  val lazy_gauge : string -> unit -> gauge
  (** {!lazy_counter} for a gauge. *)

  val histogram : string -> histogram

  val add : counter -> int -> unit
  (** Atomic; a no-op while {!metrics_on} is false. *)

  val incr : counter -> unit

  val set : gauge -> int -> unit
  val set_max : gauge -> int -> unit
  (** Raise the gauge to [v] if above its current value (atomic). *)

  val observe : histogram -> float -> unit
  (** Histograms track count/sum/min/max exactly and retain the first
      65536 samples for percentile and bucket rendering. *)

  val counter_value : counter -> int
  val gauge_value : gauge -> int

  type hstats = {
    count : int;
    sum : float;
    min : float;  (** 0 when empty. *)
    max : float;
    samples : float array;  (** The retained prefix, possibly truncated. *)
  }

  type value = Counter of int | Gauge of int | Histogram of hstats

  val dump : ?prefix:string -> unit -> (string * value) list
  (** Name-sorted snapshot, optionally restricted to names starting with
      [prefix]. *)

  val render : ?prefix:string -> unit -> string
  (** Flat text: one [name = value] line per counter/gauge; per
      histogram, a summary line, a [p50/p90/p99] percentile line
      (estimated over the kept sample reservoir, matching the JSON
      export) and an ASCII {!Dputil.Histogram}. *)

  val watch : counter -> (int -> unit) -> unit
  (** Call [f new_value] on every update of the counter (from whichever
      domain performs it). One watcher per counter; the last wins. *)

  val unwatch : counter -> unit

  val describe : string -> string -> unit
  (** Attach a help string to a metric family, keyed by the name before
      any label block; surfaced as [# HELP] in {!Export.openmetrics}. *)

  val labelled : string -> (string * string) list -> string
  (** [labelled "monitor.alerts" ["rule", r]] builds the registry name
      [monitor.alerts{rule="r"}] with OpenMetrics label-value escaping
      (backslash, double quote, newline). Each label set is its own
      series; {!Export.openmetrics} reunites them under one family. *)

  val reset : unit -> unit
  (** Zero every registered metric (cells survive, values clear). *)
end

(** {1 Timed spans} *)

module Span : sig
  type phase = B | E

  type event = {
    name : string;
    phase : phase;
    tid : int;  (** The recording domain's id. *)
    ts_ns : int64;
    args : (string * string) list;
  }

  val with_span :
    ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
  (** Run the thunk inside a span. Exception-safe: the closing event is
      recorded even when the thunk raises. When spans are off this is
      exactly [f ()]. *)

  val events : unit -> event list
  (** Merge every domain's buffer, ordered by timestamp (ties keep each
      domain's recording order). Call only while no domain is recording. *)

  val durations : unit -> (string * int * int64) list
  (** Per-name aggregation of matched B/E pairs: [(name, count,
      total_ns)], total over {e inclusive} span time, name-sorted.
      Unmatched events are ignored. *)

  val buffer_count : unit -> int
  (** Number of per-domain buffers ever created — 0 until some span is
      recorded with spans enabled; the disabled-mode regression gate. *)

  val clear : unit -> unit
  (** Drop recorded events (buffers are kept for reuse). Quiescence
      required, as for {!events}. *)
end

(** {1 Chrome trace-event writer} *)

module Trace_writer : sig
  (** Incremental, deterministic writer for the Chrome trace-event JSON
      format (the profile Perfetto and chrome://tracing load). One
      writer backs every trace artifact the tool emits — the engine's
      own spans ({!Export.chrome_trace}) and the corpus exports of
      [dpviz] — so escaping, µs timestamp rendering and metadata-record
      shape stay in one place. Field order is fixed per record kind and
      serialisation is a pure function of the calls made, so equal
      event sequences produce byte-equal artifacts. *)

  type t

  val create : ?initial_size:int -> unit -> t
  (** A fresh writer with the [{"traceEvents":[] envelope opened. *)

  val process_name : t -> pid:int -> string -> unit
  (** Emit a [ph:"M"] [process_name] metadata record. *)

  val thread_name : t -> pid:int -> tid:int -> string -> unit
  (** Emit a [ph:"M"] [thread_name] metadata record. *)

  val event :
    t ->
    ?cat:string ->
    ?args:(string * Dputil.Jsonw.t) list ->
    ?id:int ->
    ?bind_enclosing:bool ->
    ?dur_us:float ->
    ph:char ->
    pid:int ->
    tid:int ->
    ts_us:float ->
    string ->
    unit
  (** Emit one trace event of phase [ph] ('B'/'E' spans, 'X' complete
      slices with [dur_us], 'i' instants, 's'/'f' flows with [id],
      'C' counters with [args] as series). [ts_us] renders with fixed
      3-decimal precision. [bind_enclosing] adds [bp:"e"] (bind a flow
      end to the enclosing slice). *)

  val contents : t -> string
  (** The complete JSON document. Non-destructive: the writer may keep
      appending and [contents] may be taken again. *)
end

(** {1 Export} *)

module Export : sig
  val chrome_trace : unit -> string
  (** The recorded spans as Chrome trace-event JSON: an object with a
      [traceEvents] array of [ph:"B"/"E"] events carrying
      [name]/[pid]/[tid]/[ts] (µs, rebased to the earliest event), plus
      [ph:"M"] process/thread-name metadata. Load in Perfetto or
      chrome://tracing. *)

  val write_chrome_trace : string -> unit

  val metrics_json : unit -> string
  (** [{"counters":{..},"gauges":{..},"histograms":{name:{count,sum,min,
      max,mean,p50,p90,p99}}}]. *)

  val write_metrics : string -> unit

  val openmetrics : unit -> string
  (** The whole registry as an OpenMetrics text exposition, terminated by
      [# EOF]. Counters become [family_total], gauges bare samples,
      histograms summaries ([quantile="0.5"/"0.9"/"0.99"] over the kept
      reservoir plus [_count]/[_sum]). Family names are sanitised to
      [[a-zA-Z0-9_:]]; label blocks built with {!Metrics.labelled} pass
      through verbatim, and series of one family are grouped under a
      single [# TYPE] (and [# HELP], when {!Metrics.describe}d) header.
      Deterministic for a given registry state: families and series
      emit in sorted name order. *)
end

(** {1 Progress reporting} *)

module Progress : sig
  type t

  val start : label:string -> total:int -> Metrics.counter -> t option
  (** Watch [counter] and redraw a [label: done/total (rate/s, ETA ..)]
      line on stderr, rate-limited to ~10 Hz. Enables {!metrics_on} so
      the counter actually counts. [None] when stderr is not a tty. *)

  val finish : t -> unit
  (** Stop watching and erase the line. *)

  (** {2 Free-form status line}

      For long-running modes that redraw a one-line dashboard rather
      than counting toward a known total. Same tty gating as {!start}. *)

  type line

  val line_start : unit -> line option
  (** [None] when stderr is not a tty. *)

  val line_set : line -> string -> unit
  (** Redraw with [text] (e.g. the final state of a tick). *)

  val line_finish : line -> unit
  (** Erase the line. *)
end
