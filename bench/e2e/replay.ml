(* The traced run: the workloads' work replayed in the bench's own
   process, timed from outside each layer's public entry points.

   The sequential replay mirrors [driveperf report --json -j 1] call for
   call (Pipeline.run_all's per-scenario steps are unrolled so that each
   one is its own stage) and must render the very document the CLI
   prints; the caller checks that, which is what proves the stages
   account for the program the end-to-end numbers time. *)

module Jsonw = Dputil.Jsonw
module Corpus = Dptrace.Corpus
module Monitor = Dpmon.Monitor
open Dpcore

let components = Component.drivers

(* The scenarios [report] analyses, in report order. *)
let scenario_names =
  List.map
    (fun (t : Dpworkload.Scenarios.template) ->
      t.Dpworkload.Scenarios.spec.Dptrace.Scenario.name)
    Dpworkload.Scenarios.named

let now = Dpobs.now_ns
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

let timed f =
  let t0 = now () in
  let r = f () in
  (r, ms_between t0 (now ()))

let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let ratio a b = if b = 0 then nan else float_of_int a /. float_of_int b

(* --- GC time from runtime_events ---

   A systhread drains the process's own event rings while a replay
   runs (the ring is small enough to overflow if read only at stage
   boundaries). Per ring, time spent inside any runtime phase
   (outermost phase only, so nested phases count once) becomes one
   interval; domain-condition waits are not GC and are skipped. Stage
   windows then sum the overlap of every domain's intervals. *)
module Gc_time = struct
  let lock = Mutex.create ()
  let depth = Array.make 128 0
  let opened = Array.make 128 0L
  let spans = ref []
  let lost = ref 0

  let callbacks =
    let counts p = p <> Runtime_events.EV_DOMAIN_CONDITION_WAIT in
    let ts = Runtime_events.Timestamp.to_int64 in
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun ring t p ->
        if counts p then begin
          if depth.(ring) = 0 then opened.(ring) <- ts t;
          depth.(ring) <- depth.(ring) + 1
        end)
      ~runtime_end:(fun ring t p ->
        if counts p && depth.(ring) > 0 then begin
          depth.(ring) <- depth.(ring) - 1;
          if depth.(ring) = 0 then spans := (opened.(ring), ts t) :: !spans
        end)
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let cursor =
    lazy
      (Runtime_events.start ();
       Runtime_events.create_cursor None)

  let poll () =
    Mutex.protect lock (fun () ->
        ignore (Runtime_events.read_poll (Lazy.force cursor) callbacks None : int))

  (* Collect the GC intervals of [f]'s run; {!within} reads them until
     the next [record]. *)
  let record f =
    ignore (Lazy.force cursor);
    Runtime_events.resume ();
    poll ();
    Array.fill depth 0 (Array.length depth) 0;
    spans := [];
    lost := 0;
    let stop = Atomic.make false in
    let poller =
      Thread.create
        (fun () ->
          while not (Atomic.get stop) do
            poll ();
            Thread.delay 0.005
          done)
        ()
    in
    let finish () =
      Atomic.set stop true;
      Thread.join poller;
      poll ();
      Runtime_events.pause ();
      if !lost > 0 then
        Printf.eprintf "warning: %d runtime events lost; GC times undercount\n%!"
          !lost
    in
    Fun.protect ~finally:finish f

  (* GC milliseconds, summed over domains, inside [t0, t1]. *)
  let within t0 t1 =
    List.fold_left
      (fun acc (a, b) ->
        let d = Int64.sub (min b t1) (max a t0) in
        if d > 0L then acc +. Int64.to_float d else acc)
      0.0 !spans
    /. 1e6
end

(* --- stages --- *)

type stage = {
  mutable ms : float;
  mutable alloc_words : float;
  mutable items : int;
  mutable windows : (int64 * int64) list;
}

let seq_stages =
  [ "codec_v2.load"; "stream.index"; "impact.corpus"; "classify";
    "wait_graph.build"; "impact.slow"; "awg.build"; "mining.mine";
    "evaluation"; "impact.by_module"; "report.render" ]

let new_stages () =
  List.map
    (fun n -> (n, { ms = 0.0; alloc_words = 0.0; items = 0; windows = [] }))
    seq_stages

(* Without [stages] (the outer-timer-only run) this is just [f ()]. *)
let stage stages name ~items f =
  match stages with
  | None -> f ()
  | Some stages ->
    let s = List.assoc name stages in
    let a0 = allocated_words () in
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    s.alloc_words <- s.alloc_words +. (allocated_words () -. a0);
    s.ms <- s.ms +. ms_between t0 t1;
    s.items <- s.items + items r;
    s.windows <- (t0, t1) :: s.windows;
    r

let stage_metrics stages =
  List.concat_map
    (fun (name, s) ->
      let gc =
        List.fold_left (fun acc (a, b) -> acc +. Gc_time.within a b) 0.0 s.windows
      in
      [
        (name ^ ".ms", "ms", s.ms);
        (name ^ ".alloc_mwords", "Mwords", s.alloc_words /. 1e6);
        (name ^ ".gc_ms", "ms", gc);
        ( name ^ ".items",
          (if name = "report.render" then "bytes" else "count"),
          float_of_int s.items );
      ])
    stages

(* --- the sequential replay of report_seq --- *)

let load ?pool path =
  match Dptrace.Corpus_dir.load ?pool path with
  | Ok l -> Pipeline.screen l.Dptrace.Corpus_dir.l_corpus
  | Error msg -> failwith msg

let render ~coverage ~impact ~impact_prov ~modules ~scenarios =
  Jsonw.to_string
    (Report.Json.document ~coverage ~impact ~impact_prov ~modules ~scenarios ())

(* Pipeline.run_scenario, one stage per step. *)
let scenario stages corpus (c : Classify.t) =
  let graphs entries =
    stage stages "wait_graph.build" ~items:List.length (fun () ->
        Pipeline.build_graphs corpus entries)
  in
  let fast_graphs = graphs c.Classify.fast in
  let slow_graphs = graphs c.Classify.slow in
  let slow_impact, slow_impact_prov =
    stage stages "impact.slow"
      ~items:(fun _ -> List.length slow_graphs)
      (fun () -> Impact.analyze_graphs_prov components slow_graphs)
  in
  let awg graphs =
    stage stages "awg.build" ~items:Awg.node_count (fun () ->
        Awg.build components graphs)
  in
  let fast_awg = awg fast_graphs in
  let slow_awg = awg slow_graphs in
  let mining =
    stage stages "mining.mine"
      ~items:(fun (m : Mining.result) -> List.length m.Mining.patterns)
      (fun () ->
        Mining.mine ~fast:fast_awg ~slow:slow_awg ~spec:c.Classify.spec ())
  in
  let coverages =
    stage stages "evaluation"
      ~items:(fun _ -> List.length mining.Mining.patterns)
      (fun () ->
        let driver_cost =
          Awg.total_leaf_cost slow_awg + (Awg.reduction slow_awg).Awg.pruned_cost
        in
        Evaluation.time_coverages mining.Mining.patterns
          ~tslow:c.Classify.spec.Dptrace.Scenario.tslow ~driver_cost)
  in
  {
    Pipeline.classification = c;
    slow_impact;
    slow_impact_prov;
    fast_awg;
    slow_awg;
    mining;
    coverages;
  }

let sequential ?stages path =
  let t0 = now () in
  let corpus, coverage =
    stage stages "codec_v2.load"
      ~items:(fun (c, _) -> Corpus.stream_count c)
      (fun () -> load path)
  in
  stage stages "stream.index"
    ~items:(fun () -> Corpus.stream_count corpus)
    (fun () ->
      List.iter
        (fun st -> ignore (Dptrace.Stream.shared_index st : Dptrace.Stream.index))
        corpus.Corpus.streams);
  let impact, impact_prov =
    stage stages "impact.corpus"
      ~items:(fun ((r : Impact.result), _) -> r.Impact.instances)
      (fun () -> Pipeline.run_impact_prov components corpus)
  in
  let scenarios =
    List.filter_map
      (fun name ->
        match
          stage stages "classify" ~items:Classify.total (fun () ->
              Classify.classify corpus name)
        with
        | c -> Some (name, scenario stages corpus c)
        | exception Not_found -> None)
      scenario_names
  in
  let graphs =
    stage stages "wait_graph.build" ~items:List.length (fun () ->
        Pipeline.build_graphs corpus (Corpus.all_instances corpus))
  in
  let modules =
    stage stages "impact.by_module" ~items:List.length (fun () ->
        Impact.by_module components graphs)
  in
  let doc =
    stage stages "report.render" ~items:String.length (fun () ->
        render ~coverage ~impact ~impact_prov ~modules ~scenarios)
  in
  (ms_between t0 (now ()), doc, scenarios)

(* Mining's enumerate and select steps re-run on the replay's AWGs,
   outside the attributed sum (tuples are already interned by then). *)
let mining_substeps scenarios =
  let k = Mining.default_k in
  let (), enumerate_ms =
    timed (fun () ->
        List.iter
          (fun (_, (r : Pipeline.scenario_result)) ->
            ignore (Mining.meta_table r.Pipeline.fast_awg ~k : _ Mining.Tuple_table.t);
            ignore (Mining.meta_table r.Pipeline.slow_awg ~k : _ Mining.Tuple_table.t))
          scenarios)
  in
  let (), select_ms =
    timed (fun () ->
        List.iter
          (fun (_, (r : Pipeline.scenario_result)) ->
            ignore
              (Mining.select_patterns ~slow:r.Pipeline.slow_awg
                 ~contrast_metas:r.Pipeline.mining.Mining.contrast_metas
                : Mining.pattern list))
          scenarios)
  in
  [ ("mining.enumerate.ms", "ms", enumerate_ms); ("mining.select.ms", "ms", select_ms) ]

(* --- the pooled replay of report_par --- *)

let pooled ~check ~seq_ms path =
  let t0 = now () in
  let tasks, graphs_ms, impact_ms, doc =
    Dppar.Pool.with_pool ~domains:2 @@ fun pool ->
    let corpus, coverage = load ~pool path in
    let (impact, impact_prov), impact_ms =
      timed (fun () -> Pipeline.run_impact_prov ~pool components corpus)
    in
    (* Pipeline.run_all's fan-out, with each task timed on the domain
       that runs it. *)
    let tasks =
      Dppar.Pool.parallel_map ~chunk:1 pool
        (fun name ->
          let s = now () in
          let r =
            match Pipeline.run_scenario components corpus name with
            | r -> Some (name, r)
            | exception Not_found -> None
          in
          (r, (Domain.self () :> int), s, now ()))
        scenario_names
    in
    let graphs, graphs_ms =
      timed (fun () -> Pipeline.build_graphs ~pool corpus (Corpus.all_instances corpus))
    in
    let modules = Impact.by_module components graphs in
    let scenarios = List.filter_map (fun (r, _, _, _) -> r) tasks in
    ( List.map (fun (_, d, s, e) -> (d, s, e)) tasks,
      graphs_ms,
      impact_ms,
      render ~coverage ~impact ~impact_prov ~modules ~scenarios )
  in
  let t1 = now () in
  check [ ("report", Digest.to_hex (Digest.string doc)) ];
  let main = (Domain.self () :> int) in
  let busy on_main =
    List.fold_left
      (fun acc (d, s, e) -> if (d = main) = on_main then acc +. ms_between s e else acc)
      0.0 tasks
  in
  let first = List.fold_left (fun acc (_, s, _) -> min acc s) Int64.max_int tasks in
  let last = List.fold_left (fun acc (_, _, e) -> max acc e) Int64.min_int tasks in
  let makespan = ms_between first last in
  let task_sum = busy true +. busy false in
  let total = ms_between t0 t1 in
  [
    ("pool.domain0.busy_ms", "ms", busy true);
    ("pool.domain1.busy_ms", "ms", busy false);
    ("pool.busy_frac", "ratio", task_sum /. (2.0 *. makespan));
    ("pool.scenario_makespan_ms", "ms", makespan);
    ( "pool.scenario_max_ms",
      "ms",
      List.fold_left (fun acc (_, s, e) -> Float.max acc (ms_between s e)) 0.0 tasks );
    ("pool.imbalance", "ratio", makespan /. (task_sum /. 2.0));
    ("impact.corpus.par_ms", "ms", impact_ms);
    ("wait_graph.build.par_ms", "ms", graphs_ms);
    ("pool.speedup", "ratio", seq_ms /. total);
  ],
  (t0, t1)

(* --- the snapshot replay of report_delta --- *)

let delta ~cache_template ~dir path =
  Files.copy_dir cache_template dir;
  Dppar.Pool.with_pool ~domains:2 @@ fun pool ->
  let corpus, _ = load ~pool path in
  let fingerprint =
    Snapshot.fingerprint ~components ~specs:corpus.Corpus.specs
      ~k:Mining.default_k ()
  in
  let snap, open_ms = timed (fun () -> Snapshot.create ~dir ~fingerprint ()) in
  let (), ensure_ms = timed (fun () -> Snapshot.ensure ~pool snap components corpus) in
  let _, impact_ms = timed (fun () -> Pipeline.run_impact_prov_snap snap corpus) in
  let _, scenarios_ms =
    timed (fun () ->
        Pipeline.run_all_snap ~pool ~scenarios:scenario_names snap corpus)
  in
  let _, modules_ms = timed (fun () -> Pipeline.modules_snap snap corpus) in
  let (), save_ms = timed (fun () -> Snapshot.save snap) in
  let s = Snapshot.stats snap in
  let bytes =
    List.fold_left (fun acc f -> acc + Files.size f) 0 (Snapshot.list_files dir)
  in
  [
    ("snapshot.open.ms", "ms", open_ms);
    ("snapshot.ensure.ms", "ms", ensure_ms);
    ("snapshot.impact.ms", "ms", impact_ms);
    ("snapshot.scenarios.ms", "ms", scenarios_ms);
    ("snapshot.modules.ms", "ms", modules_ms);
    ("snapshot.save.ms", "ms", save_ms);
    ("snapshot.file_mb", "MB", float_of_int bytes /. 1048576.0);
    ( "snapshot.hit_ratio",
      "ratio",
      ratio s.Snapshot.s_hits (s.Snapshot.s_hits + s.Snapshot.s_misses) );
    ( "snapshot.mining_hit_ratio",
      "ratio",
      ratio s.Snapshot.s_mining_hits
        (s.Snapshot.s_mining_hits + s.Snapshot.s_mining_misses) );
  ]

(* --- the in-process monitor replay --- *)

type directive = Clock of int | Advance of int | Add of string | Tick

let manifest_text plan =
  String.concat ""
    (List.map
       (function
         | Clock ms -> Printf.sprintf "clock %d\n" ms
         | Advance d -> Printf.sprintf "clock +%d\n" d
         | Add p -> Printf.sprintf "add %s\n" p
         | Tick -> "tick\n")
       plan)

(* Monitor.replay's loop (CLI defaults, no pool), with each ingest and
   tick timed. [dir] is the manifest's directory. *)
let monitor ~check ~dir ~plan ~alert_log ~metrics_out =
  (* The CLI writes its per-alert warnings to stderr; here they would
     only bury the bench's own output. *)
  Dpobs.Log.set_level Dpobs.Log.Error;
  Provenance.disable ();
  Dpobs.Metrics.reset ();
  let config =
    {
      Monitor.default_config with
      alert_log = Some alert_log;
      metrics_out = Some metrics_out;
    }
  in
  let t = Monitor.create ~fresh_log:true config in
  Monitor.set_clock t 0;
  let ingest_ms = ref 0.0 and ticks = ref [] and tick_words = ref 0.0 in
  List.iter
    (function
      | Clock ms -> Monitor.set_clock t ms
      | Advance d -> Monitor.advance_clock t d
      | Add p ->
        let r, ms =
          timed (fun () ->
              Monitor.ingest t ~mtime_ms:(Monitor.now_ms t) (Filename.concat dir p))
        in
        (match r with Ok () -> () | Error msg -> failwith msg);
        ingest_ms := !ingest_ms +. ms
      | Tick ->
        let a0 = allocated_words () in
        let _, ms = timed (fun () -> Monitor.tick t) in
        tick_words := !tick_words +. (allocated_words () -. a0);
        ticks := ms :: !ticks)
    plan;
  Monitor.close t;
  Dpobs.disable ();
  check [ ("alerts", Files.digest alert_log); ("metrics", Files.digest metrics_out) ];
  let ticks = Array.of_list !ticks in
  let hit_ratio =
    match Monitor.snapshot_stats t with
    | Some s -> ratio s.Snapshot.s_hits (s.Snapshot.s_hits + s.Snapshot.s_misses)
    | None -> nan
  in
  [
    ("monitor.ingest.ms", "ms", !ingest_ms);
    ("monitor.tick.p50_ms", "ms", Dputil.Stats.median ticks);
    ("monitor.tick.max_ms", "ms", Dputil.Stats.maximum ticks);
    ("monitor.tick.alloc_mwords", "Mwords", !tick_words /. 1e6);
    ("monitor.alerts", "count", float_of_int (Monitor.alerts_total t));
    ("monitor.snapshot_hit_ratio", "ratio", hit_ratio);
  ]

(* --- one repetition of the whole traced run --- *)

type inputs = {
  corpus : string;  (** A, the report corpus. *)
  cache : string;  (** The cache warmed on B, copied before use. *)
  manifest_dir : string;
  plan : directive list;
}

(* [check] receives the digests of one replay's outputs. The
   outer-timer-only and the traced sequential replays alternate which
   runs first, so heap state left by the earlier one biases neither. *)
let repetition ~check ~rep inputs =
  Provenance.enable ();
  let outer () =
    Gc.full_major ();
    let ms, doc, _ = sequential inputs.corpus in
    check [ ("report", Digest.to_hex (Digest.string doc)) ];
    ms
  in
  let traced () =
    Gc.full_major ();
    let stages = new_stages () in
    let ms, doc, scenarios =
      Gc_time.record (fun () -> sequential ~stages inputs.corpus)
    in
    check [ ("report", Digest.to_hex (Digest.string doc)) ];
    let per_stage = stage_metrics stages in
    let attributed = List.fold_left (fun acc (_, s) -> acc +. s.ms) 0.0 stages in
    (ms, attributed, per_stage @ mining_substeps scenarios)
  in
  let outer_ms, (traced_ms, attributed, traced_metrics) =
    if rep mod 2 = 0 then
      let o = outer () in
      (o, traced ())
    else
      let t = traced () in
      (outer (), t)
  in
  Gc.full_major ();
  let pool_metrics =
    let metrics, (t0, t1) =
      Gc_time.record (fun () -> pooled ~check ~seq_ms:outer_ms inputs.corpus)
    in
    ("pool.gc_ms", "ms", Gc_time.within t0 t1) :: metrics
  in
  Gc.full_major ();
  let delta_metrics =
    delta ~cache_template:inputs.cache ~dir:"replay_cache" inputs.corpus
  in
  Gc.full_major ();
  let monitor_metrics =
    monitor ~check ~dir:inputs.manifest_dir ~plan:inputs.plan
      ~alert_log:"replay_alerts.jsonl" ~metrics_out:"replay_metrics.om"
  in
  traced_metrics
  @ [
      ("trace.total_ms", "ms", traced_ms);
      ("trace.unattributed_ms", "ms", traced_ms -. attributed);
      ("trace.attributed_frac", "ratio", attributed /. traced_ms);
      ("trace.overhead_frac", "ratio", (traced_ms -. outer_ms) /. outer_ms);
    ]
  @ pool_metrics @ delta_metrics @ monitor_metrics
