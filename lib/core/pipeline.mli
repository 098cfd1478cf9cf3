(** End-to-end orchestration: corpus → impact analysis and per-scenario
    causality analysis.

    {!run_report} is the one from-scratch corpus traversal: one pass per
    stream ({!Snapshot.stream_step}) takes the stream's index for that
    pass (see {!Dptrace.Stream.pass_index}), builds each instance's Wait
    Graph once and traverses it once ({!Impact.measure}) for the corpus
    impact, its provenance, the module table and each scenario's
    all-instance impact; the same graphs then become each requested
    scenario's per-stream class part (slow impact and provenance, fast
    and slow {!Awg.Partial} forests) and die with their stream. One
    assembly merges those parts in stream order into the report, the
    per-scenario impact table included. {!run_report_snap} runs the same
    assembly over a snapshot's entries, which hold the same parts, so
    cached ≡ fresh holds by construction. {!run_impact_prov} is a
    projection of {!run_report}. {!build_graphs} and {!run_scenario}
    serve narrower questions and build the graphs they need themselves.

    Every from-scratch entry point takes an optional [?pool] (a
    {!Dppar.Pool.t}); when given, independent units of work — streams
    within {!run_report} and {!build_graphs}, then scenarios within
    {!run_report} — fan out across its domains. Parallel results are
    {e bit-identical} to sequential ones: work is only split along
    independence boundaries, results are merged in input order (never
    completion order), and reductions run in a fixed association. *)

type scenario_result = {
  classification : Classify.t;
  slow_impact : Impact.result;
      (** Component impact measured over the slow class only. *)
  slow_impact_prov : Provenance.impact;
      (** Provenance of [slow_impact] ({!Provenance.empty_impact} unless
          {!Provenance.enabled} during the run). *)
  fast_awg : Awg.t;
  slow_awg : Awg.t;
  mining : Mining.result;
  coverages : Evaluation.coverages;
}

val build_graphs :
  ?pool:Dppar.Pool.t ->
  Dptrace.Corpus.t ->
  (Dptrace.Stream.t * Dptrace.Scenario.instance) list ->
  Dpwaitgraph.Wait_graph.t list
(** Build Wait Graphs for the given instances, sharing stream indexes.
    With [pool], instances are grouped by stream and the groups build in
    parallel (one index resolution per stream); the returned list is in
    the input entry order either way. *)

val run_scenario :
  ?pool:Dppar.Pool.t ->
  ?k:int ->
  ?reduce:bool ->
  Component.t ->
  Dptrace.Corpus.t ->
  string ->
  scenario_result
(** Classify the scenario's instances, aggregate both contrast classes,
    mine contrast patterns and compute coverages. [k] defaults to
    {!Mining.default_k}; [reduce] (default [true]) controls the AWG
    non-optimisable-portion reduction. [pool] parallelises graph building
    and AWG conversion within the scenario.
    @raise Not_found if the corpus has no spec for the scenario. *)

type report = {
  impact : Impact.result;
  impact_prov : Provenance.impact;
      (** {!Provenance.empty_impact} unless {!Provenance.enabled}. *)
  modules : Impact.module_row list;  (** {!Impact.by_module} order. *)
  streams : Impact.result list;
      (** Each stream's impact, in corpus stream order: the parts
          [impact] merges, and the input of {!Robustness.bootstrap}. *)
  scenarios : (string * scenario_result) list;
  per_scenario : (string * Impact.result) list;
      (** Each {!Dptrace.Corpus.scenario_names}' impact (Section 3), by
          [d_wait] descending, then name. Its rows sum to [impact] except
          in [d_waitdist]: a wait two scenarios share is distinct in
          each. *)
}
(** Everything [report --json] renders, plus the per-stream impacts and
    the per-scenario table. *)

val run_report :
  ?pool:Dppar.Pool.t ->
  ?k:int ->
  ?reduce:bool ->
  ?scenarios:string list ->
  Component.t ->
  Dptrace.Corpus.t ->
  report
(** The whole-corpus impact (Section 5.1) with its provenance,
    {!Impact.by_module} over every instance's graph, and the result
    {!run_scenario} gives for each of [scenarios] (default: every
    scenario name in the corpus; names without a spec are skipped, the
    rest keep their order), from one per-stream pass that builds and
    traverses each Wait Graph once ({!Impact.measure}) and keeps only
    the class parts of requested scenarios. Stream parts merge in stream
    order with {!Impact.merge}, {!Provenance.merge_impact} and
    {!Impact.merge_modules}; class parts with {!Impact.merge},
    {!Provenance.merge_impact} and {!Awg.Partial.absorb}. With [pool],
    streams fan out (order-preserving), then scenarios, one per work
    item. *)

val run_impact_prov :
  ?pool:Dppar.Pool.t ->
  Component.t ->
  Dptrace.Corpus.t ->
  Impact.result * Provenance.impact
(** The whole-corpus impact and its provenance: [(r.impact,
    r.impact_prov)] of [run_report ?pool ~scenarios:[]]. *)

(** {1 Snapshot-backed (incremental) variants}

    Each answers its from-scratch counterpart's question over a
    {!Snapshot.t} the caller has {!Snapshot.ensure}d for the corpus. The
    report variants run {!run_report}'s own assembly over the entries'
    parts; only the miner's result may come from the snapshot's mining
    records. Results are {e bit-identical} to the uncached entry points —
    including provenance and [--json] rendering — regardless of which
    entries were cache hits.

    All raise [Invalid_argument] if the snapshot lacks an entry for some
    stream (i.e. {!Snapshot.ensure} was not run for this corpus). *)

val run_all_snap :
  ?pool:Dppar.Pool.t ->
  ?k:int ->
  ?reduce:bool ->
  ?scenarios:string list ->
  Snapshot.t ->
  Dptrace.Corpus.t ->
  (string * scenario_result) list
(** The [scenarios] field of {!run_report_snap}. *)

val run_report_snap :
  ?pool:Dppar.Pool.t ->
  ?k:int ->
  ?reduce:bool ->
  ?scenarios:string list ->
  Snapshot.t ->
  Dptrace.Corpus.t ->
  report
(** Cached {!run_report}: the same assembly over the entries' parts.
    Each scenario's mining result is looked up with
    {!Snapshot.find_mining} and, on a miss, mined and recorded with
    {!Snapshot.store_mining}. *)

val run_impact_prov_snap :
  Snapshot.t -> Dptrace.Corpus.t -> Impact.result * Provenance.impact
(** Cached {!run_impact_prov}: a projection of {!run_report_snap}. *)

val modules_snap : Snapshot.t -> Dptrace.Corpus.t -> Impact.module_row list
(** Cached equivalent of {!Impact.by_module} over every instance's graph
    (what [report --json] embeds): a projection of {!run_report_snap}. *)

val driver_cost_fraction : scenario_result -> float
(** Distinct slow-class driver time ([d_waitdist + d_run]) over slow-class
    scenario time — the "Driver Cost" column of Table 2. The ITC/TTC
    denominator is instead the slow AWG's end-node mass plus the pruned
    non-optimisable mass, so both coverages stay within [\[0,1\]]. *)

(** {1 Fault screening (graceful degradation)}

    When a {!Dpfault} plan is armed, every stream passes a
    [corpus.read] probe (with the plan's retry budget) before analysis;
    streams whose budget exhausts are quarantined rather than aborting
    the run, and the report gains an explicit coverage block. *)

type coverage = {
  cov_total : int;  (** streams in the corpus before screening *)
  cov_analyzed : int;  (** streams that passed and were analysed *)
  cov_quarantined : (int * string) list;
      (** quarantined [(stream id, reason)], in corpus order *)
}

val screen : Dptrace.Corpus.t -> Dptrace.Corpus.t * coverage
(** Probe each stream's [corpus.read] site under the armed fault plan
    and drop the streams whose retries exhaust. With no plan armed this
    is free (one atomic load) and returns the corpus unchanged; with
    zero quarantines the returned corpus is the input (same streams,
    same order), so downstream output stays byte-identical. *)
