(** Rendering analysis results as the paper's tables.

    Every renderer returns a {!Dputil.Table.t}; callers may add reference
    columns (the paper's numbers) before printing. *)

val pct : float -> string
(** [0.364] → ["36.4%"]. *)

val impact_summary : Impact.result -> Dputil.Table.t
(** §5.1 headline metrics: IA_wait, IA_run, IA_opt, propagation ratio. *)

val module_breakdown : ?top:int -> Impact.module_row list -> Dputil.Table.t
(** Per-driver-module attribution of the impact metrics ([top] rows,
    default 12). *)

val scenario_impacts : (string * Impact.result) list -> Dputil.Table.t
(** Per-scenario IA metrics (a {!Pipeline.report}'s [per_scenario]). *)

val scenario_classes : (string * Classify.t) list -> Dputil.Table.t
(** Table 1: instances and contrast-class sizes per scenario. *)

val coverages : (string * Pipeline.scenario_result) list -> Dputil.Table.t
(** Table 2: Driver Cost %, ITC, TTC per scenario (plus average row). *)

val stream_coverage : Pipeline.coverage -> Dputil.Table.t
(** Graceful-degradation accounting: which streams the analysis kept and
    which it quarantined (with the injected-fault reason). Only worth
    printing when something was quarantined. *)

val ranking : (string * Pipeline.scenario_result) list -> Dputil.Table.t
(** Table 3: #patterns and execution-time coverage of the top
    10 / 20 / 30 % by rank (plus average row). *)

val driver_types :
  (string * Pipeline.scenario_result) list ->
  type_names:string list ->
  type_of:(Dptrace.Signature.t -> string option) ->
  Dputil.Table.t
(** Table 4: driver types appearing in each scenario's top-10 patterns.
    [type_names] fixes the column order. *)

val top_patterns : Mining.pattern list -> n:int -> string
(** Listing of the top [n] patterns as Signature Set Tuples with their
    metrics — the analyst-facing output of the causality analysis. *)

val awg_summary : Awg.t -> string
(** One-line structural summary plus the reduction statistics. *)

val top_propagation_paths : Awg.t -> n:int -> string
(** Analyst drill-down: the [n] root-to-leaf propagation chains with the
    costliest end nodes, rendered one chain per block with per-hop C/N. *)

(** {1 Machine-readable twins}

    Structured mirrors of the tables above, for [driveperf report --json]
    and [analyze --json]: same numbers, plus the provenance the text
    tables cannot carry. Serialisation is deterministic
    ({!Dputil.Jsonw}), so two runs over the same corpus produce
    byte-identical documents — diffable and scriptable. *)

module Json : sig
  val of_impact : ?prov:Provenance.impact -> Impact.result -> Dputil.Jsonw.t
  (** Raw durations plus the derived IA metrics; with [prov], a
      ["provenance"] member carrying the top-K wait/run events. *)

  val of_pattern : rank:int -> Mining.pattern -> Dputil.Jsonw.t
  (** Pattern metrics plus its slow-class [witnesses] and
      [fast_witnesses]. *)

  val document :
    ?coverage:Pipeline.coverage ->
    impact:Impact.result ->
    impact_prov:Provenance.impact ->
    modules:Impact.module_row list ->
    scenarios:(string * Pipeline.scenario_result) list ->
    unit ->
    Dputil.Jsonw.t
  (** The whole-report document emitted by [driveperf report --json].
      When [coverage] records quarantined streams, a ["coverage"] member
      reports [streams_total] / [streams_analyzed] and the per-stream
      quarantine reasons; a run with nothing quarantined emits the
      pre-fault-layer document byte for byte. *)
end
