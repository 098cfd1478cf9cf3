module Wait_graph = Dpwaitgraph.Wait_graph

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

let run_scenario ?pool ?(k = Mining.default_k) ?(reduce = true) components
    corpus name =
  span ~args:[ ("scenario", name) ] "pipeline.run_scenario" @@ fun () ->
  let classification =
    span "pipeline.classify" (fun () -> Classify.classify corpus name)
  in
  let fast = build_graphs ?pool corpus classification.Classify.fast in
  let slow = build_graphs ?pool corpus classification.Classify.slow in
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

(* The one scenario assembly, behind run_report and run_report_snap
   alike. [parts] holds, per stream in corpus stream order, the stream's
   whole-corpus part [(impact, provenance, module rows)] and a lookup of
   its class parts by scenario name. The whole-corpus parts merge left to
   right. Each requested scenario with a spec is classified, then folds
   its class parts in the same order into running accumulators (impact,
   provenance and two [Awg.Partial.merger]s), so a part decoded off a
   cache file's bytes is garbage once absorbed. [mine name f] returns the
   scenario's mining result, [f ()] computing it. The callers differ only
   in where the parts come from and in [mine], so a cached report is the
   fresh one by construction. *)
let assemble ?pool ~k ~reduce ?scenarios ~mine corpus parts =
  let impact, impact_prov, modules =
    List.fold_left
      (fun (r, p, m) ((r', p', m'), _) ->
        (Impact.merge r r', Provenance.merge_impact p p', Impact.merge_modules m m'))
      (Impact.empty, Provenance.empty_impact, [])
      parts
  in
  let streams = List.map (fun ((r, _, _), _) -> r) parts in
  let scenario name =
    span ~args:[ ("scenario", name) ] "pipeline.run_scenario" @@ fun () ->
    let classification =
      span "pipeline.classify" (fun () -> Classify.classify corpus name)
    in
    let fast = Awg.Partial.merger () and slow = Awg.Partial.merger () in
    let slow_impact, slow_impact_prov =
      span "pipeline.awg_merge" @@ fun () ->
      List.fold_left
        (fun ((r, p) as acc) (_, class_of) ->
          match class_of name with
          | None -> acc
          | Some (c : Snapshot.class_part) ->
            Awg.Partial.absorb fast c.cl_fast;
            Awg.Partial.absorb slow c.cl_slow;
            (Impact.merge r c.cl_slow_impact, Provenance.merge_impact p c.cl_slow_prov))
        (Impact.empty, Provenance.empty_impact)
        parts
    in
    let fast_awg =
      span "pipeline.awg_merge" (fun () -> Awg.Partial.merged ~reduce fast)
    in
    let slow_awg =
      span "pipeline.awg_merge" (fun () -> Awg.Partial.merged ~reduce slow)
    in
    let mining =
      span "pipeline.mining" (fun () ->
          mine name (fun () ->
              Mining.mine ~k ~fast:fast_awg ~slow:slow_awg
                ~spec:classification.Classify.spec ()))
    in
    finish_scenario classification ~slow_impact ~slow_impact_prov ~fast_awg
      ~slow_awg mining
  in
  (* One scenario per work item, mining sequential inside the worker,
     results in request order, spec-less names skipped. *)
  let one name =
    let r =
      Option.map
        (fun _ -> (name, scenario name))
        (Dptrace.Corpus.find_spec corpus name)
    in
    if Dpobs.metrics_on () then
      Dpobs.Metrics.incr (Lazy.force scenarios_done);
    r
  in
  let names =
    Option.value scenarios ~default:(Dptrace.Corpus.scenario_names corpus)
  in
  let scenarios =
    (match pool with
    | Some pool -> Dppar.Pool.parallel_map ~chunk:1 pool one names
    | None -> List.map one names)
    |> List.filter_map Fun.id
  in
  { impact; impact_prov; modules; streams; scenarios }

let run_report ?pool ?(k = Mining.default_k) ?(reduce = true) ?scenarios
    components (corpus : Dptrace.Corpus.t) =
  (* Per stream: every instance's graph built once and measured once;
     only the class parts of requested scenarios outlive the pass. *)
  let spec_of name =
    match scenarios with
    | Some names when not (List.mem name names) -> None
    | _ -> Dptrace.Corpus.find_spec corpus name
  in
  let of_stream st =
    let part, groups = Snapshot.stream_step components ~spec_of st in
    let classes =
      List.filter_map (fun (name, _, c) -> Option.map (fun c -> (name, c)) c) groups
    in
    (part, fun name -> List.assoc_opt name classes)
  in
  let parts =
    span "pipeline.report_streams" @@ fun () ->
    match pool with
    | Some pool -> Dppar.Pool.parallel_map pool of_stream corpus.Dptrace.Corpus.streams
    | None -> List.map of_stream corpus.Dptrace.Corpus.streams
  in
  assemble ?pool ~k ~reduce ?scenarios ~mine:(fun _ f -> f ()) corpus parts

let run_impact_prov ?pool components corpus =
  let r = run_report ?pool ~scenarios:[] components corpus in
  (r.impact, r.impact_prov)

(* --- snapshot-backed variants ---

   The snapshot's entries hold what the fresh pass computes per stream,
   so the cached report is the same assembly over entries instead of
   fresh parts: every cached result — impact integers, provenance
   reservoirs, AWG forests, mined patterns — is bit-identical to the
   uncached run whatever mix of cache hits and misses produced the
   entries. *)

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

let run_report_snap ?pool ?(k = Mining.default_k) ?(reduce = true) ?scenarios
    snapshot (corpus : Dptrace.Corpus.t) =
  let part st =
    let e = Snapshot.entry snapshot st in
    (Snapshot.entry_part e, Snapshot.entry_scenario_class e)
  in
  (* The miner dominates a warm re-analysis, and its inputs are a pure
     function of the snapshot fingerprint + contributing streams, so its
     result is cached at scenario granularity (digest-checked; identical
     either way). *)
  let mine name f =
    match Snapshot.find_mining snapshot corpus name ~reduce ~k with
    | Some m -> m
    | None ->
      let m = f () in
      Snapshot.store_mining snapshot corpus name ~reduce ~k m;
      m
  in
  assemble ?pool ~k ~reduce ?scenarios ~mine corpus
    (List.map part corpus.Dptrace.Corpus.streams)

let run_all_snap ?pool ?k ?reduce ?scenarios snapshot corpus =
  (run_report_snap ?pool ?k ?reduce ?scenarios snapshot corpus).scenarios

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
