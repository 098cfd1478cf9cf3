(** End-to-end orchestration: corpus → impact analysis and per-scenario
    causality analysis.

    {b One accumulator.} Every report and scenario result is built the
    same way. Per-stream parts are absorbed, in stream order, into
    running accumulators: the corpus impact with its provenance, the
    module table, the per-scenario impact table and the per-stream
    impacts of the bootstrap, plus one class accumulator per requested
    scenario (the two {!Awg.Partial.merger}s and the slow class's impact
    with its provenance). Each scenario's tail (classify, reduce the
    merged forests, mine, coverages) then runs from its class
    accumulator. The sources differ only in where the parts come from:

    - {!run_report}: a resident corpus, each stream stepped once by
      {!Snapshot.stream_step} (each Wait Graph built once and traversed
      once by {!Impact.measure});
    - {!fold_report}: the same step, run as each stream is decoded from
      a corpus file ({!Dptrace.Corpus_dir.fold}), its result absorbed at
      once, so no stream's events outlive its pass and only
      {!Dptrace.Stream.skeleton}s stay; with a cache, the parts are the
      stream's snapshot entry's, decoded in the step, and a hit's
      events are never built;
    - {!run_report_snap}: a snapshot's entries, decoded the same way
      ({!run_report_entries}: entries the caller holds).

    Each source absorbs a stream id once ({!screen}'s id rule), so AWG
    nodes keep their best witnesses as they absorb ({!Awg.Partial.merger}),
    and fresh ≡ fold ≡ cached holds by construction. {!run_scenario} and
    {!run_impact_prov} are projections of {!run_report}: one scenario's
    result is the report's entry for it. {!build_graphs} builds the
    graphs of given instances for callers that look at the graphs
    themselves.

    Every from-scratch entry point takes an optional [?pool] (a
    {!Dppar.Pool.t}); when given, independent units of work — streams
    ({!Dppar.Pool.iter_window}), then scenario tails —
    fan out across its domains. Within one scenario, AWG merging and
    mining run on one domain. Parallel results are {e bit-identical} to
    sequential ones: work is only split along independence boundaries,
    parts are absorbed in stream order (never completion order), and
    results are returned in request order. *)

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
    non-optimisable-portion reduction. A projection: the entry for
    [name] of [run_report ?pool ?k ?reduce ~scenarios:[name]], so it
    pays the report's whole per-stream pass.
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
    {!Impact.by_module} over every instance's graph, and the causality
    result of each of [scenarios] (default: every scenario name in the
    corpus; names without a spec are skipped, the rest keep their
    order), from one per-stream pass that builds and
    traverses each Wait Graph once ({!Impact.measure}) and makes only
    the class parts of requested scenarios. Each stream's parts are
    absorbed as its step returns, in stream order: whole-stream parts
    with {!Impact.merge}, {!Provenance.merge_impact} and
    {!Impact.add_modules}, class parts with {!Impact.merge},
    {!Provenance.merge_impact} and {!Awg.Partial.absorb}. A stream that
    repeats an earlier one's id is dropped first, as by {!screen} but
    with no fault probe. With [pool], streams fan out through the
    window, then scenarios, one per work item. *)

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
    report variants absorb the entries' parts into {!run_report}'s own
    accumulators and mine the merged forests with {!Mining.mine}, as
    {!run_report} does. Results are {e bit-identical} to the uncached
    entry points — including provenance and [--json] rendering —
    regardless of which entries were cache hits.

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
(** Cached {!run_report}: each stream's entry decoded into its parts
    and absorbed, through the window, then {!finish}. A repeated id is
    dropped as {!run_report} drops it. *)

val run_report_entries :
  ?pool:Dppar.Pool.t -> ?k:int -> Dptrace.Corpus.t -> Snapshot.entry list -> report
(** {!run_report_snap} over entries the caller holds, one per stream of
    the corpus, in order: the monitor's window keeps its files' entries,
    so its ticks read nothing back from the cache file. Each is absorbed
    under its stream's id ({!Snapshot.entry_parts}). *)

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
    the run, and the report gains an explicit coverage block. A stream
    that passes but repeats an admitted stream's id is quarantined too,
    with the reason [stream id N repeats an earlier stream]: its witness
    refs would name the same instances as the first's. *)

type coverage = {
  cov_total : int;  (** streams in the corpus before screening *)
  cov_analyzed : int;  (** streams that passed and were analysed *)
  cov_quarantined : (int * string) list;
      (** quarantined [(stream id, reason)], in corpus order *)
}

val screen : Dptrace.Corpus.t -> Dptrace.Corpus.t * coverage
(** Probe each stream's [corpus.read] site under the armed fault plan
    and drop the streams whose retries exhaust, then those whose id
    repeats a kept stream's, logging one warning per quarantined
    stream. With no plan armed this costs one atomic load and one table
    lookup per stream; with zero quarantines the returned corpus is the
    input, so downstream output stays byte-identical. *)

(** {1 Folding a corpus file}

    {!fold_report} feeds the report's accumulators from a source that
    hands over streams one at a time ({!Dptrace.Corpus_dir.fold} or
    {!Dptrace.Corpus_dir.fold_streams}), so a report's memory is bounded
    by the source's window, the accumulators and the skeletons, not by
    the corpus. A snapshot's entries are bytes, decoded a window at a
    time, so that holds with a cache too. *)

type acc
(** A report being accumulated. *)

type stepped
(** One stream's step result: its parts and its skeleton. *)

val fold_report :
  ?k:int ->
  ?reduce:bool ->
  ?scenarios:string list ->
  cache:(Dptrace.Scenario.spec list -> Snapshot.t) option ->
  Component.t ->
  (step:(Dptrace.Scenario.spec list -> Dptrace.Codec_v2.frame -> stepped) ->
  consume:(stepped -> Dptrace.Stream.t option) ->
  Dptrace.Corpus.t) ->
  acc * Dptrace.Corpus.t * coverage
(** [fold_report ~cache components source] runs [source ~step
    ~consume]. [step] (safe on pool workers) is {!run_report}'s
    per-stream step, which decodes the frame ({!Dptrace.Codec_v2.frame_stream}),
    or, with [Some snapshot], {!Snapshot.lookup_or_step} on [snapshot
    specs] (which takes only a hit's skeleton) and the entry's parts
    decoded; [snapshot] is
    called from pool workers, so it must open its snapshot once, under
    a lock. [consume] screens the stream as {!screen} does: a kept
    stream is {!Snapshot.settle}d (with a cache), its parts absorbed and
    its {!Dptrace.Stream.skeleton} returned; a quarantined one's parts
    are discarded. [consume] must see the streams in corpus order, on
    one domain, never while a [step] runs. Returns the accumulator, the
    source's corpus of skeletons (for {!finish}) and the screening's
    coverage. Other arguments as for {!run_report}. *)

val finish : ?pool:Dppar.Pool.t -> acc -> Dptrace.Corpus.t -> report
(** Run the requested scenarios' tails (fanned out over [pool]) and
    return the report: given {!fold_report}'s outputs, equal to
    {!run_report} over the screened resident corpus. [corpus] supplies
    only specs and instances, so skeletons suffice. It never touches a
    cache: every tail mines its merged forests. A corpus with no streams
    never ran a step, so a caller that saves the cache opens it by
    [corpus]'s specs. *)
