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

(* --- the one report accumulator ---

   Every result, fresh or cached, whole-report or one-scenario, is built
   by absorbing per-stream parts, in stream order, into running
   accumulators, then running each scenario's tail over its
   accumulator. The sources differ only in where the parts come from: a
   resident corpus, a corpus file folded stream by stream, or a
   snapshot's entries. *)

(* One scenario's class parts absorbed so far: the two class forests
   and the slow class's impact with its provenance. *)
type class_acc = {
  a_fast : Awg.Partial.merger;
  a_slow : Awg.Partial.merger;
  mutable a_impact : Impact.result;
  mutable a_prov : Provenance.impact;
}

let class_acc () =
  {
    a_fast = Awg.Partial.merger ();
    a_slow = Awg.Partial.merger ();
    a_impact = Impact.empty;
    a_prov = Provenance.empty_impact;
  }

let absorb_class a (c : Snapshot.class_part) =
  Awg.Partial.absorb a.a_fast c.cl_fast;
  Awg.Partial.absorb a.a_slow c.cl_slow;
  a.a_impact <- Impact.merge a.a_impact c.cl_slow_impact;
  a.a_prov <- Provenance.merge_impact a.a_prov c.cl_slow_prov

(* The one scenario tail: classify, reduce the merged forests, mine,
   then the coverages. *)
let scenario_tail ~k ~reduce corpus name a =
  let classification =
    span "pipeline.classify" (fun () -> Classify.classify corpus name)
  in
  let fast_awg =
    span "pipeline.awg_merge" (fun () -> Awg.Partial.merged ~reduce a.a_fast)
  in
  let slow_awg =
    span "pipeline.awg_merge" (fun () -> Awg.Partial.merged ~reduce a.a_slow)
  in
  let mining =
    span "pipeline.mining" (fun () ->
        Mining.mine ~k ~fast:fast_awg ~slow:slow_awg
          ~spec:classification.Classify.spec ())
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
    slow_impact = a.a_impact;
    slow_impact_prov = a.a_prov;
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
  let a = class_acc () in
  span "pipeline.awg_merge" (fun () -> List.iter (Option.iter (absorb_class a)) parts);
  scenario_tail ~k ~reduce corpus name a

type report = {
  impact : Impact.result;
  impact_prov : Provenance.impact;
  modules : Impact.module_row list;
  streams : Impact.result list;
  scenarios : (string * scenario_result) list;
  per_scenario : (string * Impact.result) list;
}

(* A report in progress: the whole-stream parts absorbed so far (the
   corpus impact with its provenance, the module table, each stream's
   impact, newest first, and each scenario's row of the per-scenario
   table), plus a class accumulator per requested scenario that has had
   a class part. *)
type acc = {
  k : int;
  reduce : bool;
  wanted : string list option;
  mutable t_impact : Impact.result;
  mutable t_prov : Provenance.impact;
  mutable t_modules : Impact.module_row list;
  mutable t_streams_rev : Impact.result list;
  t_rows : (string, Impact.result) Hashtbl.t;
  classes : (string, class_acc) Hashtbl.t;
}

let accumulator ?(k = Mining.default_k) ?(reduce = true) ?scenarios () =
  {
    k;
    reduce;
    wanted = scenarios;
    t_impact = Impact.empty;
    t_prov = Provenance.empty_impact;
    t_modules = [];
    t_streams_rev = [];
    t_rows = Hashtbl.create 32;
    classes = Hashtbl.create 16;
  }

let absorb_part t ((r, p, m, per_scenario) : Snapshot.part) =
  t.t_impact <- Impact.merge t.t_impact r;
  t.t_prov <- Provenance.merge_impact t.t_prov p;
  t.t_modules <- Impact.merge_modules t.t_modules m;
  t.t_streams_rev <- r :: t.t_streams_rev;
  List.iter
    (fun (name, r) ->
      let row = Option.value ~default:Impact.empty (Hashtbl.find_opt t.t_rows name) in
      Hashtbl.replace t.t_rows name (Impact.merge row r))
    per_scenario

let class_acc_of t name =
  match Hashtbl.find_opt t.classes name with
  | Some a -> a
  | None ->
    let a = class_acc () in
    Hashtbl.add t.classes name a;
    a

(* Each requested scenario with a spec goes through the scenario tail
   over its class accumulator, one scenario per work item (mining
   sequential inside the worker), results in request order, spec-less
   names skipped. *)
let finish ?pool t corpus =
  let one name =
    let r =
      Option.map
        (fun _ ->
          ( name,
            span ~args:[ ("scenario", name) ] "pipeline.run_scenario" @@ fun () ->
            scenario_tail ~k:t.k ~reduce:t.reduce corpus name
              (Option.value ~default:(class_acc ()) (Hashtbl.find_opt t.classes name)) ))
        (Dptrace.Corpus.find_spec corpus name)
    in
    if Dpobs.metrics_on () then
      Dpobs.Metrics.incr (scenarios_done ());
    r
  in
  let names =
    Option.value t.wanted ~default:(Dptrace.Corpus.scenario_names corpus)
  in
  let scenarios =
    (match pool with
    | Some pool -> Dppar.Pool.parallel_map ~chunk:1 pool one names
    | None -> List.map one names)
    |> List.filter_map Fun.id
  in
  let per_scenario =
    Hashtbl.fold (fun name r acc -> (name, r) :: acc) t.t_rows []
    |> List.sort (fun (na, (a : Impact.result)) (nb, b) ->
           match compare b.Impact.d_wait a.Impact.d_wait with 0 -> compare na nb | c -> c)
  in
  {
    impact = t.t_impact;
    impact_prov = t.t_prov;
    modules = t.t_modules;
    streams = List.rev t.t_streams_rev;
    scenarios;
    per_scenario;
  }

(* [settle]: a cached step's entry, for the consumer to book. *)
type stepped = {
  skeleton : Dptrace.Stream.t;
  part : Snapshot.part;
  class_parts : (string * Snapshot.class_part option) list;
  settle : (Snapshot.t * Snapshot.entry) option;
}

let wants acc name =
  match acc.wanted with Some names -> List.mem name names | None -> true

(* Per stream: every instance's graph built once and measured once;
   only the class parts of requested scenarios with a spec are made. *)
let step components acc specs f =
  let st = Dptrace.Codec_v2.frame_stream f in
  let spec_of name =
    List.find_opt
      (fun (s : Dptrace.Scenario.spec) -> s.name = name && wants acc name)
      specs
  in
  let part, class_parts = Snapshot.stream_step components ~spec_of st in
  { skeleton = Dptrace.Stream.skeleton st; part; class_parts; settle = None }

(* A cached stream's parts, decoded where the step runs: the entry's
   whole-stream part and its requested class parts (an entry has one for
   every spec'd scenario). *)
let of_entry acc e skeleton settle =
  let ((_, _, _, per_scenario) as part) = Snapshot.entry_part e in
  let class_of (name, _) =
    (name, if wants acc name then Snapshot.entry_scenario_class e name else None)
  in
  { skeleton; part; class_parts = List.map class_of per_scenario; settle }

let cached_step snapshot components acc specs f =
  let snap = snapshot specs in
  let e, skeleton = Snapshot.lookup_or_step snap components ~specs f in
  of_entry acc e skeleton (Some (snap, e))

let absorb acc s =
  absorb_part acc s.part;
  List.iter
    (function
      | name, Some c -> absorb_class (class_acc_of acc name) c
      | _, None -> ())
    s.class_parts

let run_report ?pool ?k ?reduce ?scenarios components (corpus : Dptrace.Corpus.t) =
  let acc = accumulator ?k ?reduce ?scenarios () in
  span "pipeline.report_streams" (fun () ->
      Dppar.Pool.iter_batched ?pool
        (fun st ->
          step components acc corpus.Dptrace.Corpus.specs (Dptrace.Codec_v2.resident st))
        (absorb acc)
        (fun push -> List.iter push corpus.Dptrace.Corpus.streams));
  finish ?pool acc corpus

let run_impact_prov ?pool components corpus =
  let r = run_report ?pool ~scenarios:[] components corpus in
  (r.impact, r.impact_prov)

(* --- snapshot-backed variants ---

   The snapshot's entries hold what the fresh pass computes per stream,
   so the cached report is the same accumulator over entries instead of
   fresh parts: every cached result — impact integers, provenance
   reservoirs, AWG forests, and so the patterns mined from them — is
   bit-identical to the uncached run whatever mix of cache hits and
   misses produced the entries. *)

let run_report_snap ?pool ?k ?reduce ?scenarios snapshot (corpus : Dptrace.Corpus.t) =
  let acc = accumulator ?k ?reduce ?scenarios () in
  Dppar.Pool.iter_batched ?pool
    (fun st -> of_entry acc (Snapshot.entry snapshot st) st None)
    (absorb acc)
    (fun push -> List.iter push corpus.Dptrace.Corpus.streams);
  finish ?pool acc corpus

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

(* One [corpus.read] probe per stream, in corpus order (so the plan's
   per-call draws are reproducible): a stream whose retries exhaust is
   quarantined with its reason instead of aborting the run. *)
type screener = {
  mutable seen : int;
  mutable quarantined : (int * string) list;  (* newest first *)
}

let screener () = { seen = 0; quarantined = [] }

let admit s (st : Dptrace.Stream.t) =
  s.seen <- s.seen + 1;
  (not (Dpfault.armed ()))
  ||
  match
    Dpfault.Retry.run Dpfault.Corpus_read (fun () ->
        Dpfault.guard Dpfault.Corpus_read)
  with
  | () -> true
  | exception Dpfault.Injected { kind; _ } ->
    s.quarantined <-
      ( st.Dptrace.Stream.id,
        Printf.sprintf "injected %s at corpus.read exhausted %d attempt(s)"
          (Dpfault.kind_name kind)
          (Dpfault.Retry.budget Dpfault.Corpus_read) )
      :: s.quarantined;
    false

let close_screen s =
  let quarantined = List.rev s.quarantined in
  List.iter
    (fun (sid, reason) -> Dpobs.Log.warn "stream %d quarantined: %s" sid reason)
    quarantined;
  {
    cov_total = s.seen;
    cov_analyzed = s.seen - List.length quarantined;
    cov_quarantined = quarantined;
  }

(* The kept streams preserve corpus order, and a screening that
   quarantines nothing returns the input corpus, so every downstream
   result — text and JSON — stays byte-identical to a fault-free run. *)
let screen (corpus : Dptrace.Corpus.t) =
  let s = screener () in
  let kept = List.filter (admit s) corpus.Dptrace.Corpus.streams in
  ( (if s.quarantined = [] then corpus
     else Dptrace.Corpus.create ~streams:kept ~specs:corpus.Dptrace.Corpus.specs),
    close_screen s )

let fold_report ?k ?reduce ?scenarios ~cache components source =
  let acc = accumulator ?k ?reduce ?scenarios () in
  let step =
    match cache with
    | None -> step components acc
    | Some snapshot -> cached_step snapshot components acc
  in
  let s = screener () in
  let corpus =
    span "pipeline.report_streams" @@ fun () ->
    source ~step ~consume:(fun x ->
        if admit s x.skeleton then begin
          Option.iter (fun (snap, e) -> Snapshot.settle snap e) x.settle;
          absorb acc x;
          Some x.skeleton
        end
        else None)
  in
  (acc, corpus, close_screen s)
