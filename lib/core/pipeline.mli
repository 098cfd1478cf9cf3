(** End-to-end orchestration: corpus → impact analysis and per-scenario
    causality analysis.

    {!run_report} is the one from-scratch corpus traversal: one pass per
    stream resolves the stream's memoised index (see
    {!Dptrace.Stream.shared_index}), builds each instance's Wait Graph
    once and traverses it once ({!Impact.measure}) for the corpus impact,
    its provenance and the module table; the same graphs then feed each
    requested scenario's classes. {!run_impact_prov} is its projection
    onto the corpus impact; {!run_report_snap} is its cached twin.
    {!build_graphs}, {!run_scenario} and {!impact_per_scenario} serve
    narrower questions and build the graphs they need themselves.

    Every from-scratch entry point takes an optional [?pool] (a
    {!Dppar.Pool.t}); when given, independent units of work — streams
    within {!run_report} and {!build_graphs}, scenarios within
    {!run_report} and {!impact_per_scenario} — fan out across its
    domains. Parallel results are {e bit-identical} to sequential ones:
    work is only split along independence boundaries, results are merged
    in input order (never completion order), and reductions run in a
    fixed association. *)

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
}
(** Everything [report --json] renders, plus the per-stream impacts. *)

val run_report :
  ?pool:Dppar.Pool.t ->
  ?k:int ->
  ?reduce:bool ->
  ?scenarios:string list ->
  Component.t ->
  Dptrace.Corpus.t ->
  report
(** The whole-corpus impact (Section 5.1) with its provenance,
    {!Impact.by_module} over every instance's graph, and {!run_scenario}
    for each of [scenarios] (default: every scenario name in the corpus;
    names without a spec are skipped, the rest keep their order), from
    one per-stream pass that builds and traverses each Wait Graph once
    ({!Impact.measure}) and keeps only the fast/slow graphs of requested
    scenarios. Stream parts merge in stream order with {!Impact.merge},
    {!Provenance.merge_impact} and {!Impact.merge_modules}. With [pool],
    streams fan out (order-preserving), then scenarios, one per work
    item. *)

val run_impact_prov :
  ?pool:Dppar.Pool.t ->
  Component.t ->
  Dptrace.Corpus.t ->
  Impact.result * Provenance.impact
(** The whole-corpus impact and its provenance: [(r.impact,
    r.impact_prov)] of [run_report ?pool ~scenarios:[]]. *)

val impact_per_scenario :
  ?pool:Dppar.Pool.t ->
  Component.t ->
  Dptrace.Corpus.t ->
  (string * Impact.result) list
(** The impact metrics measured separately over each scenario's instances
    (Section 3: "performance analysts can narrow down the investigation
    scope"). Sorted by [d_wait] descending, then by name. The
    per-scenario results sum to the whole-corpus [d_scn]/[d_wait]/[d_run],
    but not [d_waitdist]: a wait shared by instances of two scenarios is
    distinct in each. *)

(** {1 Snapshot-backed (incremental) variants}

    Each mirrors its from-scratch counterpart over a {!Snapshot.t} the
    caller has {!Snapshot.ensure}d for the corpus: per-stream cached
    partials are merged in corpus stream order with the exact merge
    operators the plain paths' own reductions use, then mining, selection
    and coverage run on the merged aggregates as usual. Results are
    {e bit-identical} to the uncached entry points — including provenance
    and [--json] rendering — regardless of which entries were cache hits.

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
(** Cached [scenarios] field of {!run_report} (same [scenarios] default,
    spec-less names skipped). Per scenario, classification is recomputed
    (cheap, and part of the result); impact, provenance and both AWGs
    come from merged snapshot partials; mining is cached at scenario
    granularity and coverages are computed on the merge. With [pool],
    scenarios fan out one per work item. *)

val run_report_snap :
  ?pool:Dppar.Pool.t ->
  ?k:int ->
  ?reduce:bool ->
  ?scenarios:string list ->
  Snapshot.t ->
  Dptrace.Corpus.t ->
  report
(** Cached {!run_report}: the entries' stream parts go through the same
    stream-order reduction, and [scenarios] is {!run_all_snap}. *)

val run_impact_prov_snap :
  Snapshot.t -> Dptrace.Corpus.t -> Impact.result * Provenance.impact
(** Cached {!run_impact_prov}: a projection of {!run_report_snap}. *)

val modules_snap : Snapshot.t -> Dptrace.Corpus.t -> Impact.module_row list
(** Cached equivalent of {!Impact.by_module} over every instance's graph
    (what [report --json] embeds): a projection of {!run_report_snap}. *)

val impact_per_scenario_snap :
  Snapshot.t -> Dptrace.Corpus.t -> (string * Impact.result) list
(** Cached {!impact_per_scenario}. *)

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
