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
let scenarios_done = Dpobs.Metrics.lazy_counter "pipeline.scenarios_done"

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

(* The one scenario tail, behind every scenario result, fresh or
   cached, whole-report or one-scenario: classify, fold the scenario's
   per-stream class parts in stream order into running accumulators
   (impact, provenance and two [Awg.Partial.merger]s), reduce the merged
   forests, mine, then the coverages. [part_of x] is the class part of
   each [x] of [parts] (in stream order), if any, taken one at a time, so
   a part decoded off a cache file's bytes is garbage once absorbed.
   [mine f] returns the mining result, [f ()] computing it. *)
let scenario_of_parts ~k ~reduce ~mine corpus name part_of parts =
  let classification =
    span "pipeline.classify" (fun () -> Classify.classify corpus name)
  in
  let fast = Awg.Partial.merger () and slow = Awg.Partial.merger () in
  let slow_impact, slow_impact_prov =
    span "pipeline.awg_merge" @@ fun () ->
    List.fold_left
      (fun ((r, p) as acc) x ->
        match (part_of x : Snapshot.class_part option) with
        | None -> acc
        | Some c ->
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
        mine (fun () ->
            Mining.mine ~k ~fast:fast_awg ~slow:slow_awg
              ~spec:classification.Classify.spec ()))
  in
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
  let spec =
    match Dptrace.Corpus.find_spec corpus name with
    | Some spec -> spec
    | None -> raise Not_found
  in
  (* Per stream: graphs for the scenario's fast and slow instances only,
     turned into the stream's class part there and then. The index is the
     stream's memoised one: explain, witness and the viz exports come
     back to the same streams after this pass. *)
  let of_stream (st : Dptrace.Stream.t) =
    match
      List.filter
        (fun (i : Dptrace.Scenario.instance) ->
          i.Dptrace.Scenario.scenario = name
          && Dptrace.Scenario.classify spec i <> Dptrace.Scenario.Middle)
        st.Dptrace.Stream.instances
    with
    | [] -> None
    | instances ->
      let index = Dptrace.Stream.shared_index st in
      Some
        (Snapshot.class_part components spec
           (List.map (fun i -> (i, Wait_graph.build ~index st i)) instances))
  in
  (* One stream per task: only the streams holding the scenario's
     instances cost anything, so larger chunks leave a domain idle. *)
  let parts =
    span "pipeline.class_parts" @@ fun () ->
    match pool with
    | Some pool ->
      Dppar.Pool.parallel_map ~chunk:1 pool of_stream corpus.Dptrace.Corpus.streams
    | None -> List.map of_stream corpus.Dptrace.Corpus.streams
  in
  scenario_of_parts ~k ~reduce ~mine:(fun f -> f ()) corpus name Fun.id parts

type report = {
  impact : Impact.result;
  impact_prov : Provenance.impact;
  modules : Impact.module_row list;
  streams : Impact.result list;
  scenarios : (string * scenario_result) list;
  per_scenario : (string * Impact.result) list;
}

(* The one report assembly, behind run_report and run_report_snap
   alike. [parts] holds, per stream in corpus stream order, the stream's
   whole-stream part [(impact, provenance, module rows, per-scenario
   impacts)] and a lookup of its class parts by scenario name. The
   whole-stream parts merge left to right, each scenario's impacts into
   that scenario's row of the per-scenario table. Each requested
   scenario with a spec goes through [scenario_of_parts] over its class
   parts, looked up lazily in the same order. [mine name f] returns the
   scenario's mining result, [f ()] computing it. The callers differ only
   in where the parts come from and in [mine], so a cached report is the
   fresh one by construction. *)
let assemble ?pool ~k ~reduce ?scenarios ~mine corpus parts =
  let impact, impact_prov, modules =
    List.fold_left
      (fun (r, p, m) ((r', p', m', _), _) ->
        (Impact.merge r r', Provenance.merge_impact p p', Impact.merge_modules m m'))
      (Impact.empty, Provenance.empty_impact, [])
      parts
  in
  let per_scenario =
    Dptrace.Corpus.scenario_names corpus
    |> List.map (fun name ->
           ( name,
             List.fold_left
               (fun acc ((_, _, _, sc), _) ->
                 Option.fold ~none:acc ~some:(Impact.merge acc) (List.assoc_opt name sc))
               Impact.empty parts ))
    |> List.sort (fun (na, (a : Impact.result)) (nb, b) ->
           match compare b.Impact.d_wait a.Impact.d_wait with 0 -> compare na nb | c -> c)
  in
  let streams = List.map (fun ((r, _, _, _), _) -> r) parts in
  let scenario name =
    span ~args:[ ("scenario", name) ] "pipeline.run_scenario" @@ fun () ->
    scenario_of_parts ~k ~reduce ~mine:(mine name) corpus name
      (fun (_, class_of) -> class_of name)
      parts
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
      Dpobs.Metrics.incr (scenarios_done ());
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
  { impact; impact_prov; modules; streams; scenarios; per_scenario }

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
    (part, fun name -> Option.join (List.assoc_opt name groups))
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
