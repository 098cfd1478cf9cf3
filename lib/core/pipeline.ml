module Wait_graph = Dpwaitgraph.Wait_graph
module Scenario = Dptrace.Scenario

type scenario_result = {
  classification : Classify.t;
  slow_impact : Impact.result;
  slow_impact_prov : Provenance.impact;
  fast_awg : Awg.t;
  slow_awg : Awg.t;
  mining : Mining.result;
  coverages : Evaluation.coverages;
}

(* Stage spans: one span per pipeline stage per scenario, recorded on
   whichever domain runs the stage, so a pooled run_report shows its
   scenario fan-out per domain in the Chrome trace. The scenarios_done
   counter drives the --progress line. *)
let span = Dpobs.Span.with_span
let scenarios_done = lazy (Dpobs.Metrics.counter "pipeline.scenarios_done")

(* The per-scenario impact table's order: wait mass descending, then name. *)
let by_d_wait l =
  List.sort
    (fun (na, (a : Impact.result)) (nb, (b : Impact.result)) ->
      match compare b.Impact.d_wait a.Impact.d_wait with
      | 0 -> compare na nb
      | c -> c)
    l

let build_graphs ?pool _corpus entries =
  span "pipeline.build_graphs" @@ fun () ->
  (* Group the instances by stream — each group resolves the stream's
     memoised index exactly once (Dptrace.Stream.shared_index), whether
     the groups run on one domain or many — then restore the caller's
     entry order, so the parallel build returns the very same list the
     sequential one does. *)
  match entries with
  | [] -> []
  | entries ->
    let groups_tbl :
        (int, (int * Dptrace.Scenario.instance) list ref) Hashtbl.t =
      Hashtbl.create 16
    in
    let order = ref [] in
    List.iteri
      (fun pos ((st : Dptrace.Stream.t), inst) ->
        match Hashtbl.find_opt groups_tbl st.Dptrace.Stream.id with
        | Some items -> items := (pos, inst) :: !items
        | None ->
          let items = ref [ (pos, inst) ] in
          Hashtbl.replace groups_tbl st.Dptrace.Stream.id items;
          order := (st, items) :: !order)
      entries;
    let groups =
      List.rev_map (fun (st, items) -> (st, List.rev !items)) !order
      |> List.rev
    in
    let build_group ((st : Dptrace.Stream.t), items) =
      let index = Dptrace.Stream.shared_index st in
      List.map (fun (pos, inst) -> (pos, Wait_graph.build ~index st inst)) items
    in
    let built =
      match pool with
      | Some pool -> Dppar.Pool.parallel_map ~chunk:1 pool build_group groups
      | None -> List.map build_group groups
    in
    let out = Array.make (List.length entries) None in
    List.iter (List.iter (fun (pos, g) -> out.(pos) <- Some g)) built;
    Array.to_list out
    |> List.map (function Some g -> g | None -> assert false)

(* The tail every scenario path shares, from-scratch or cached: the
   coverages of the mined patterns, then the result record. *)
let finish_scenario classification ~slow_impact ~slow_impact_prov ~fast_awg
    ~slow_awg mining =
  (* Coverage denominator: everything the slow-class aggregation absorbed
     at its end nodes, plus the non-optimisable mass the reduction pruned
     (counted as unexplainable driver cost). Bounded and consistent with
     the patterns' end-node costs. *)
  let driver_cost =
    Awg.total_leaf_cost slow_awg + (Awg.reduction slow_awg).Awg.pruned_cost
  in
  let coverages =
    span "pipeline.evaluation" (fun () ->
        Evaluation.time_coverages mining.Mining.patterns
          ~tslow:classification.Classify.spec.Dptrace.Scenario.tslow
          ~driver_cost)
  in
  {
    classification;
    slow_impact;
    slow_impact_prov;
    fast_awg;
    slow_awg;
    mining;
    coverages;
  }

(* The causality half of one scenario, from its classified instances'
   prebuilt graphs: slow-class impact, both AWGs, mining, coverages. *)
let scenario_of_graphs ?pool ~k ~reduce components classification ~fast ~slow =
  let slow_impact, slow_impact_prov =
    span "pipeline.impact" (fun () -> Impact.analyze_graphs_prov components slow)
  in
  let fast_awg =
    span "pipeline.awg_build" (fun () -> Awg.build ?pool ~reduce components fast)
  in
  let slow_awg =
    span "pipeline.awg_build" (fun () -> Awg.build ?pool ~reduce components slow)
  in
  let mining =
    span "pipeline.mining" (fun () ->
        Mining.mine ?pool ~k ~fast:fast_awg ~slow:slow_awg
          ~spec:classification.Classify.spec ())
  in
  finish_scenario classification ~slow_impact ~slow_impact_prov ~fast_awg
    ~slow_awg mining

let run_scenario ?pool ?(k = Mining.default_k) ?(reduce = true) components
    corpus name =
  span ~args:[ ("scenario", name) ] "pipeline.run_scenario" @@ fun () ->
  let classification =
    span "pipeline.classify" (fun () -> Classify.classify corpus name)
  in
  let fast = build_graphs ?pool corpus classification.Classify.fast in
  let slow = build_graphs ?pool corpus classification.Classify.slow in
  scenario_of_graphs ?pool ~k ~reduce components classification ~fast ~slow

let impact_per_scenario ?pool components corpus =
  (* Scenario-level fan-out; graph building inside each scenario stays
     sequential (one unit of work per worker, no nested parallelism). The
     final order is fixed by the sort, never by completion order. *)
  let impact_of name =
    let graphs = build_graphs corpus (Dptrace.Corpus.instances_of corpus name) in
    let r = (name, Impact.analyze_graphs components graphs) in
    if Dpobs.metrics_on () then
      Dpobs.Metrics.incr (Lazy.force scenarios_done);
    r
  in
  let names = Dptrace.Corpus.scenario_names corpus in
  by_d_wait
    (match pool with
    | Some pool -> Dppar.Pool.parallel_map ~chunk:1 pool impact_of names
    | None -> List.map impact_of names)

type report = {
  impact : Impact.result;
  impact_prov : Provenance.impact;
  modules : Impact.module_row list;
  streams : Impact.result list;
  scenarios : (string * scenario_result) list;
}

(* Per-stream parts [(impact, provenance, module rows)] merged left to
   right in stream order: the one reduction behind run_report and
   run_report_snap, so a cached report is the from-scratch one. *)
let report_of_parts parts scenarios =
  let impact, impact_prov, modules =
    List.fold_left
      (fun (r, p, m) (r', p', m') ->
        (Impact.merge r r', Provenance.merge_impact p p', Impact.merge_modules m m'))
      (Impact.empty, Provenance.empty_impact, [])
      parts
  in
  let streams = List.map (fun (r, _, _) -> r) parts in
  { impact; impact_prov; modules; streams; scenarios }

let run_report ?pool ?(k = Mining.default_k) ?(reduce = true) ?scenarios
    components (corpus : Dptrace.Corpus.t) =
  let names =
    match scenarios with
    | Some names -> names
    | None -> Dptrace.Corpus.scenario_names corpus
  in
  (* Names without a spec are skipped, as run_all_snap skips them. *)
  let specs =
    List.filter_map
      (fun name ->
        Option.map (fun spec -> (name, spec)) (Dptrace.Corpus.find_spec corpus name))
      names
  in
  (* Per stream: every instance's graph built once and measured once;
     only the fast/slow graphs of requested scenarios outlive the pass. *)
  let of_stream (st : Dptrace.Stream.t) =
    let index = Dptrace.Stream.shared_index st in
    let graphs = List.map (Wait_graph.build ~index st) st.Dptrace.Stream.instances in
    let classed =
      List.fold_right2
        (fun (i : Scenario.instance) g acc ->
          match List.assoc_opt i.Scenario.scenario specs with
          | None -> acc
          | Some spec ->
            let c = Scenario.classify spec i in
            ((st, i), c, if c = Scenario.Middle then None else Some g) :: acc)
        st.Dptrace.Stream.instances graphs []
    in
    (Impact.measure components graphs, classed)
  in
  let parts =
    span "pipeline.report_streams" @@ fun () ->
    match pool with
    | Some pool -> Dppar.Pool.parallel_map pool of_stream corpus.Dptrace.Corpus.streams
    | None -> List.map of_stream corpus.Dptrace.Corpus.streams
  in
  (* Each class lists its instances in corpus order, as Classify.classify
     does, and its graphs in the same order. *)
  let one (name, spec) =
    span ~args:[ ("scenario", name) ] "pipeline.run_scenario" @@ fun () ->
    let classification, fast, slow =
      span "pipeline.classify" @@ fun () ->
      let mine = List.filter (fun ((_, (i : Scenario.instance)), _, _) -> i.Scenario.scenario = name) in
      let items = List.concat_map (fun (_, classed) -> mine classed) parts in
      let entries cls = List.filter_map (fun (e, c, _) -> if c = cls then Some e else None) items in
      let graphs cls = List.filter_map (fun (_, c, g) -> if c = cls then g else None) items in
      ( { Classify.spec; fast = entries Scenario.Fast; middle = entries Scenario.Middle;
          slow = entries Scenario.Slow },
        graphs Scenario.Fast,
        graphs Scenario.Slow )
    in
    let r = scenario_of_graphs ~k ~reduce components classification ~fast ~slow in
    if Dpobs.metrics_on () then
      Dpobs.Metrics.incr (Lazy.force scenarios_done);
    (name, r)
  in
  report_of_parts (List.map fst parts)
    (match pool with
    | Some pool -> Dppar.Pool.parallel_map ~chunk:1 pool one specs
    | None -> List.map one specs)

let run_impact_prov ?pool components corpus =
  let r = run_report ?pool ~scenarios:[] components corpus in
  (r.impact, r.impact_prov)

(* --- snapshot-backed variants ---

   Each mirrors its from-scratch counterpart exactly: the snapshot holds
   the same per-stream partials the plain paths' reductions produce, and
   they are merged here in the same order (corpus stream order) with the
   same merge operators, so every cached result — impact integers,
   provenance reservoirs, AWG forests, mined patterns — is bit-identical
   to the uncached run whatever mix of cache hits and misses produced
   the entries. *)

let impact_per_scenario_snap snapshot (corpus : Dptrace.Corpus.t) =
  let impact_of name =
    let r =
      List.fold_left
        (fun acc st ->
          Snapshot.entry_scenario_impact (Snapshot.entry snapshot st) name
          |> Option.fold ~none:acc ~some:(Impact.merge acc))
        Impact.empty corpus.Dptrace.Corpus.streams
    in
    if Dpobs.metrics_on () then
      Dpobs.Metrics.incr (Lazy.force scenarios_done);
    (name, r)
  in
  by_d_wait (List.map impact_of (Dptrace.Corpus.scenario_names corpus))

let run_scenario_snap ?(k = Mining.default_k) ?(reduce = true) snapshot
    corpus name =
  span ~args:[ ("scenario", name) ] "pipeline.run_scenario_snap" @@ fun () ->
  (* Classification is cheap (one pass over the instances) and part of
     the result, so it is recomputed rather than cached. *)
  let classification =
    span "pipeline.classify" (fun () -> Classify.classify corpus name)
  in
  (* One pass in stream order folds each stream's class part into the
     running accumulators before the next is read, so a part decoded off
     the cache file's bytes is garbage once absorbed. *)
  let fast = Awg.Partial.merger () and slow = Awg.Partial.merger () in
  let slow_impact, slow_impact_prov =
    span "pipeline.awg_merge" @@ fun () ->
    List.fold_left
      (fun ((r, p) as acc) st ->
        match Snapshot.entry_scenario_class (Snapshot.entry snapshot st) name with
        | None -> acc
        | Some (ri, pi, f, s) ->
          Awg.Partial.absorb fast f;
          Awg.Partial.absorb slow s;
          (Impact.merge r ri, Provenance.merge_impact p pi))
      (Impact.empty, Provenance.empty_impact)
      corpus.Dptrace.Corpus.streams
  in
  let fast_awg =
    span "pipeline.awg_merge" (fun () -> Awg.Partial.merged ~reduce fast)
  in
  let slow_awg =
    span "pipeline.awg_merge" (fun () -> Awg.Partial.merged ~reduce slow)
  in
  (* The miner dominates a warm re-analysis, and its inputs are a pure
     function of the snapshot fingerprint + contributing streams, so its
     result is cached at scenario granularity (digest-checked; identical
     either way). *)
  let mining =
    span "pipeline.mining" (fun () ->
        match Snapshot.find_mining snapshot corpus name ~reduce ~k with
        | Some m -> m
        | None ->
          let m =
            Mining.mine ~k ~fast:fast_awg ~slow:slow_awg
              ~spec:classification.Classify.spec ()
          in
          Snapshot.store_mining snapshot corpus name ~reduce ~k m;
          m)
  in
  finish_scenario classification ~slow_impact ~slow_impact_prov ~fast_awg
    ~slow_awg mining

let run_all_snap ?pool ?k ?reduce ?scenarios snapshot corpus =
  let names =
    match scenarios with
    | Some names -> names
    | None -> Dptrace.Corpus.scenario_names corpus
  in
  (* Mirror run_report: one scenario per work item, mining sequential
     inside the worker, results in [names] order, spec-less names skipped. *)
  let one name =
    let r =
      match run_scenario_snap ?k ?reduce snapshot corpus name with
      | r -> Some (name, r)
      | exception Not_found -> None
    in
    if Dpobs.metrics_on () then
      Dpobs.Metrics.incr (Lazy.force scenarios_done);
    r
  in
  (match pool with
  | Some pool -> Dppar.Pool.parallel_map ~chunk:1 pool one names
  | None -> List.map one names)
  |> List.filter_map Fun.id

let run_report_snap ?pool ?k ?reduce ?scenarios snapshot
    (corpus : Dptrace.Corpus.t) =
  let part st = Snapshot.entry_part (Snapshot.entry snapshot st) in
  report_of_parts
    (List.map part corpus.Dptrace.Corpus.streams)
    (run_all_snap ?pool ?k ?reduce ?scenarios snapshot corpus)

let run_impact_prov_snap snapshot corpus =
  let r = run_report_snap ~scenarios:[] snapshot corpus in
  (r.impact, r.impact_prov)

let modules_snap snapshot corpus =
  (run_report_snap ~scenarios:[] snapshot corpus).modules

let driver_cost_fraction r =
  (* Distinct driver time over slow-class scenario time: the paper's
     "Driver Cost" column is a plain share of execution time, so the
     multiplicity-weighted D_wait would overstate it. *)
  Dputil.Stats.ratio
    (float_of_int (r.slow_impact.Impact.d_waitdist + r.slow_impact.Impact.d_run))
    (float_of_int r.slow_impact.Impact.d_scn)

(* --- fault screening: graceful degradation under injected faults --- *)

type coverage = {
  cov_total : int;
  cov_analyzed : int;
  cov_quarantined : (int * string) list;
}

let screen (corpus : Dptrace.Corpus.t) =
  if not (Dpfault.armed ()) then
    let n = Dptrace.Corpus.stream_count corpus in
    (corpus, { cov_total = n; cov_analyzed = n; cov_quarantined = [] })
  else begin
    (* One [corpus.read] probe per stream, in corpus order (so the
       plan's per-call draws are reproducible): a stream whose retries
       exhaust is quarantined with its reason instead of aborting the
       run. The kept streams preserve corpus order, so a screening that
       quarantines nothing leaves every downstream result — text and
       JSON — byte-identical to a fault-free run. *)
    let kept, quarantined =
      List.partition_map
        (fun (st : Dptrace.Stream.t) ->
          match
            Dpfault.Retry.run Dpfault.Corpus_read (fun () ->
                Dpfault.guard Dpfault.Corpus_read)
          with
          | () -> Left st
          | exception Dpfault.Injected { kind; _ } ->
            Right
              ( st.Dptrace.Stream.id,
                Printf.sprintf
                  "injected %s at corpus.read exhausted %d attempt(s)"
                  (Dpfault.kind_name kind)
                  (Dpfault.Retry.budget Dpfault.Corpus_read) ))
        corpus.Dptrace.Corpus.streams
    in
    List.iter
      (fun (sid, reason) ->
        Dpobs.Log.warn "stream %d quarantined: %s" sid reason)
      quarantined;
    ( Dptrace.Corpus.create ~streams:kept ~specs:corpus.Dptrace.Corpus.specs,
      {
        cov_total = Dptrace.Corpus.stream_count corpus;
        cov_analyzed = List.length kept;
        cov_quarantined = quarantined;
      } )
  end
