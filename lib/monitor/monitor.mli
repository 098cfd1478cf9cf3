(** Continuous corpus monitoring: the always-on counterpart of the
    one-shot analysis.

    The paper's workflow is batch — analyse one fleet snapshot, read the
    tables — but its closing observation (mined patterns are "clues for
    similar cases" to re-check on the next snapshot) is a loop. This
    module runs that loop: watch a directory into which tracing sessions
    drop corpus files, ingest each delta incrementally through the
    {!Dpcore.Snapshot} cache, maintain a rolling baseline over the last
    [window] files, and on every tick compare the fresh window against
    the baseline — {!Dpcore.Diff.compare_patterns} over each scenario's
    top-K mined patterns plus a bootstrap-CI drift test on the impact
    metrics ({!Dpcore.Robustness}) — feeding a declarative
    {!Rules.rule} engine. The drift CI resamples the baseline tick's
    per-stream impacts, never re-analysing its window. Alerts go to a
    JSONL log (deterministic field
    order, shared schema with [driveperf diff --json]) and
    {!Dpobs.Log}; the whole state is exported as an OpenMetrics text
    exposition ({!Dpobs.Export.openmetrics}) after every tick.

    Two drive modes:

    - {!watch}: real time. Scans the directory on an interval, serves
      [/metrics] over a minimal inline {!Httpd} between ticks, redraws
      a one-line tty dashboard.
    - {!replay}: deterministic. A manifest file scripts the arrival
      sequence under a virtual clock, so the full
      watch→ingest→diff→alert→export loop runs byte-reproducibly — the
      same manifest always produces the same alert log and the same
      OpenMetrics dump. Replay never uses a domain pool (pool telemetry
      is wall-clock and would leak into the exposition).

    Health metrics (all in the exposition): [monitor.ticks],
    [monitor.files_ingested], [monitor.streams_ingested],
    [monitor.parse_failures], [monitor.alerts{rule=..}],
    [monitor.ingest_lag_ms], [monitor.tick_duration] (ms histogram;
    virtual — zero — under replay), and [monitor.window_*] gauges. *)

type config = {
  components : Dpcore.Component.t;
  rules : Rules.rule list;
  window : int;
      (** Rolling window, in most recent corpus files. A file that
          leaves it keeps only what {!scan} needs to skip it. *)
  k : int;  (** Mining segment-length bound. *)
  top_patterns : int;
      (** Pattern-rule focus: only the new window's top-N ranked mined
          patterns per scenario may raise claims (0 = unbounded).
          Membership is still checked against {e everything} the
          baseline window mined, so rank churn across the top-N
          boundary never counts as [Appeared]. *)
  replicates : int;  (** Bootstrap replicates for the drift CI. *)
  seed : int;  (** Bootstrap seed. *)
  mode : Dptrace.Codec_v2.mode;  (** Corpus decode mode. *)
  cache_dir : string option;
      (** Snapshot cache directory; [None] keeps the cache in memory
          (still incremental across ticks within the process). *)
  alert_log : string option;  (** JSONL alert sink. *)
  metrics_out : string option;
      (** OpenMetrics exposition, rewritten after every tick. *)
  view_dir : string option;
      (** When set, every tick that raises scenario-tagged alerts also
          writes a {!Dpviz.Bundle} view bundle per alerted scenario
          under [view_dir/tick-N-SCENARIO/], and those alerts carry the
          directory in their [view] field. *)
}

val default_config : config
(** {!Dpcore.Component.drivers}, {!Rules.defaults}, window 8,
    [k = Mining.default_k], top 10 patterns per scenario, 200
    replicates, seed 1, [`Strict], no cache/log/exposition paths. *)

type t

val create : ?pool:Dppar.Pool.t -> ?fresh_log:bool -> config -> t
(** Enables {!Dpobs} metrics. [fresh_log] truncates an existing alert
    log instead of appending (replay does this). The clock starts real;
    {!set_clock} switches it virtual. *)

val close : t -> unit
(** Flush and close the alert log. *)

(** {1 Clock} *)

val set_clock : t -> int -> unit
(** Pin the monitor clock to a virtual time (ms). Alert timestamps,
    ingest-lag and tick-duration measurements all read this clock. *)

val advance_clock : t -> int -> unit
(** Advance the virtual clock; pins it to [now + d] if still real. *)

val now_ms : t -> int

(** {1 Feeding} *)

val ingest : t -> ?mtime_ms:int -> string -> (unit, string) result
(** Load (or reload) one corpus file into the window. [mtime_ms]
    defaults to the file's mtime (replay passes the virtual clock). A
    load failure is remembered for the next tick's [parse_failure]
    rule and counted in [monitor.parse_failures]. *)

val scan : t -> string -> int
(** {!ingest} every new or changed corpus file directly under the
    directory (by name order); returns how many files were (re)loaded.
    The watch loop calls this every interval. *)

val tick : t -> Rules.alert list
(** Run one ingest tick over everything fed since the last one:
    rebuild the window corpus, {!Dpcore.Snapshot.ensure} it (only new
    streams analyse) and {!Dpcore.Snapshot.drop_stale} what left the
    window, take its report from the snapshot
    ({!Dpcore.Pipeline.run_report_snap}), evaluate the rules against the
    rolling baseline, emit alerts and
    rewrite the exposition. A tick with no pending changes skips the
    analysis entirely and raises no relative alerts. The first
    analysed tick establishes the baseline and raises no relative
    alerts either. *)

val ticks : t -> int
val alerts_total : t -> int

val snapshot_stats : t -> Dpcore.Snapshot.stats option
(** Cache accounting of the snapshot backing the window ([None] before
    the first analysed tick). *)

(** {1 Replay} *)

(** Manifest grammar, one directive per line ([#] starts a comment):
    {v
    clock MS      set the virtual clock (absolute milliseconds)
    clock +MS     advance it
    add PATH      a corpus file arrived (relative to the manifest)
    tick          run one ingest tick
    v} *)

type replay_summary = {
  r_ticks : int;
  r_files : int;  (** [add] directives executed. *)
  r_alerts : int;
  r_parse_failures : int;
}

val replay : config -> manifest:string -> replay_summary
(** Run the manifest under a virtual clock starting at 0, with
    {!Dpobs.Metrics.reset} first and a truncated alert log, so equal
    manifests produce byte-identical alert logs and expositions. (With
    an on-disk [cache_dir] the {e alert log} is still byte-identical —
    cached merges are exact — but the exposition's [snapshot.hit/miss]
    counters reflect the cache's starting state; leave [cache_dir]
    unset, or start it equal, when comparing expositions.)
    @raise Failure on an unreadable manifest or a malformed directive
    (with its line number). *)

(** {1 Watch} *)

val watch :
  ?pool:Dppar.Pool.t ->
  ?listen:string ->
  ?interval_s:float ->
  ?max_ticks:int ->
  ?dashboard:bool ->
  config ->
  dir:string ->
  unit
(** Scan [dir] every [interval_s] (default 2.0) and tick; between
    ticks, serve [/metrics] on [listen] (["PORT"] or ["HOST:PORT"])
    when given. [max_ticks] bounds the loop (for smokes); default is
    to run until killed. [dashboard] (default true) redraws a one-line
    tty status via {!Dpobs.Progress} machinery. *)
