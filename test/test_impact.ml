(* Tests for the impact analysis (Section 3.2): top-level counting, the
   distinct-wait deduplication and the derived IA metrics. *)

module P = Dpsim.Program
module Engine = Dpsim.Engine
module Time = Dputil.Time
module Impact = Dpcore.Impact
module Component = Dpcore.Component

let check = Alcotest.check
let sig_ = Dptrace.Signature.of_string
let drivers = Component.drivers

let corpus_impact components corpus =
  fst (Dpcore.Pipeline.run_impact_prov components corpus)

(* One instance blocked 9 ms on a driver lock; instance lasts exactly the
   wait + 3 ms of app compute. *)
let simple_corpus () =
  let engine = Engine.create ~stream_id:0 () in
  let lock = Engine.new_lock engine ~name:"L" in
  let _holder =
    Engine.spawn engine ~start_at:0 ~name:"h" ~base_stack:[ sig_ "bg!w" ]
      [ P.locked lock [ P.compute ~frame:(sig_ "d.sys!Hold") (Time.ms 10) ] ]
  in
  let _victim =
    Engine.spawn engine ~scenario:"S" ~start_at:(Time.ms 1) ~name:"v"
      ~base_stack:[ sig_ "app!op" ]
      [
        P.compute (Time.ms 1);
        P.call (sig_ "d.sys!Get") [ P.locked lock [ P.compute (Time.ms 2) ] ];
      ]
  in
  let st = Engine.run engine in
  Dptrace.Corpus.create ~streams:[ st ]
    ~specs:[ Dptrace.Scenario.spec ~name:"S" ~tfast:(Time.ms 5) ~tslow:(Time.ms 8) ]

let test_simple_numbers () =
  let r = corpus_impact drivers (simple_corpus ()) in
  (* Victim: start 1 ms, compute 1 ms, blocks at 2 ms until 10 ms (8 ms),
     computes 2 ms, ends at 12 ms → duration 11 ms. *)
  check Alcotest.int "instances" 1 r.Impact.instances;
  check Alcotest.int "d_scn" (Time.ms 11) r.Impact.d_scn;
  check Alcotest.int "d_wait" (Time.ms 8) r.Impact.d_wait;
  check Alcotest.int "one counted wait" 1 r.Impact.counted_waits;
  check Alcotest.int "no dup => dist = wait" r.Impact.d_wait r.Impact.d_waitdist;
  (* Driver CPU visible from the graph: holder's 10 ms (child of the
     wait) + victim's own 2 ms. *)
  check Alcotest.int "d_run" (Time.ms 12) r.Impact.d_run;
  check (Alcotest.float 1e-9) "ia_wait" (8.0 /. 11.0) (Impact.ia_wait r);
  check (Alcotest.float 1e-9) "ia_opt 0 without sharing" 0.0 (Impact.ia_opt r);
  check (Alcotest.float 1e-9) "ratio 1 without sharing" 1.0
    (Impact.propagation_ratio r)

let test_component_filter_excludes () =
  let none = Component.of_patterns [ "nomatch.dll" ] in
  let r = corpus_impact none (simple_corpus ()) in
  check Alcotest.int "no waits counted" 0 r.Impact.d_wait;
  check Alcotest.int "no cpu counted" 0 r.Impact.d_run;
  check Alcotest.bool "d_scn still measured" true (r.Impact.d_scn > 0)

(* Two instances observe the same holder wait through an app-level queue:
   D_wait counts it twice, D_waitdist once. [scenarios] names the two
   victims' scenarios. *)
let shared_corpus ?(scenarios = ("S", "S")) () =
  let engine = Engine.create ~stream_id:0 () in
  let queue = Engine.new_lock engine ~name:"Q" in
  let svc = Engine.new_service engine ~name:"W" ~worker_stack:[ P.kernel_worker ] in
  let _holder =
    Engine.spawn engine ~start_at:0 ~name:"h" ~base_stack:[ sig_ "bg!w" ]
      [
        P.locked
          ~acquire_frames:[ sig_ "App!Queue" ]
          queue
          [
            P.call (sig_ "d.sys!Deep")
              [ P.request svc [ P.compute ~frame:(sig_ "d.sys!Work") (Time.ms 40) ] ];
          ];
      ]
  in
  let spawn_victim i scenario =
    ignore
      (Engine.spawn engine ~scenario
         ~start_at:(Time.ms (1 + i))
         ~name:(Printf.sprintf "v%d" i)
         ~base_stack:[ sig_ "app!op" ]
         [
           P.locked ~acquire_frames:[ sig_ "App!Queue" ] queue
             [ P.compute (Time.ms 1) ];
         ])
  in
  spawn_victim 0 (fst scenarios);
  spawn_victim 1 (snd scenarios);
  let st = Engine.run engine in
  Dptrace.Corpus.create ~streams:[ st ]
    ~specs:[ Dptrace.Scenario.spec ~name:"S" ~tfast:(Time.ms 5) ~tslow:(Time.ms 8) ]

let test_distinct_wait_dedup () =
  let r = corpus_impact drivers (shared_corpus ()) in
  (* The holder's driver wait (the 40 ms request) is the only driver wait;
     each victim descends into it through its app-level queue wait. *)
  check Alcotest.int "counted twice" 2 r.Impact.counted_waits;
  check Alcotest.int "d_wait doubles" (Time.ms 80) r.Impact.d_wait;
  check Alcotest.int "d_waitdist once" (Time.ms 40) r.Impact.d_waitdist;
  check (Alcotest.float 1e-9) "ratio 2" 2.0 (Impact.propagation_ratio r);
  check Alcotest.bool "ia_opt positive" true (Impact.ia_opt r > 0.0)

let test_bfs_stops_at_topmost_driver_wait () =
  (* A driver-tagged victim wait must be counted itself; the holder's
     deeper driver wait below it must NOT be double counted. *)
  let engine = Engine.create ~stream_id:0 () in
  let lock = Engine.new_lock engine ~name:"L" in
  let svc = Engine.new_service engine ~name:"W" ~worker_stack:[ P.kernel_worker ] in
  let _holder =
    Engine.spawn engine ~start_at:0 ~name:"h" ~base_stack:[ sig_ "bg!w" ]
      [
        P.locked lock
          [
            P.call (sig_ "e.sys!Inner")
              [ P.request svc [ P.compute ~frame:(sig_ "e.sys!W") (Time.ms 20) ] ];
          ];
      ]
  in
  let _victim =
    Engine.spawn engine ~scenario:"S" ~start_at:(Time.ms 1) ~name:"v"
      ~base_stack:[ sig_ "app!op" ]
      [ P.call (sig_ "d.sys!Get") [ P.locked lock [ P.compute (Time.ms 1) ] ] ]
  in
  let st = Engine.run engine in
  let corpus =
    Dptrace.Corpus.create ~streams:[ st ]
      ~specs:[ Dptrace.Scenario.spec ~name:"S" ~tfast:(Time.ms 5) ~tslow:(Time.ms 8) ]
  in
  let r = corpus_impact drivers corpus in
  check Alcotest.int "single top-level wait" 1 r.Impact.counted_waits;
  (* The victim blocks from 1 ms until the holder releases (~20 ms). *)
  check Alcotest.int "victim's own wait counted" (Time.ms 19) r.Impact.d_wait

let test_merge () =
  let a = corpus_impact drivers (simple_corpus ()) in
  let b = corpus_impact drivers (shared_corpus ()) in
  let m = Impact.merge a b in
  check Alcotest.int "d_scn adds" (a.Impact.d_scn + b.Impact.d_scn) m.Impact.d_scn;
  check Alcotest.int "d_wait adds" (a.Impact.d_wait + b.Impact.d_wait) m.Impact.d_wait;
  check Alcotest.int "instances add" 3 m.Impact.instances

let test_analyze_graphs_equals_analyze () =
  let corpus = shared_corpus () in
  let graphs =
    List.concat_map
      (fun (st : Dptrace.Stream.t) ->
        let index = Dptrace.Stream.index st in
        List.map
          (Dpwaitgraph.Wait_graph.build ~index st)
          st.Dptrace.Stream.instances)
      corpus.Dptrace.Corpus.streams
  in
  let a = corpus_impact drivers corpus in
  let b = fst (Impact.analyze_graphs_prov drivers graphs) in
  check Alcotest.int "same d_wait" a.Impact.d_wait b.Impact.d_wait;
  check Alcotest.int "same d_waitdist" a.Impact.d_waitdist b.Impact.d_waitdist;
  check Alcotest.int "same d_run" a.Impact.d_run b.Impact.d_run

let test_empty_corpus () =
  let corpus = Dptrace.Corpus.create ~streams:[] ~specs:[] in
  let r = corpus_impact drivers corpus in
  check Alcotest.int "zero everything" 0
    (r.Impact.d_scn + r.Impact.d_wait + r.Impact.d_run + r.Impact.instances);
  check (Alcotest.float 1e-9) "ratios total" 0.0 (Impact.ia_wait r)


(* --- per-module breakdown --- *)

let test_by_module () =
  let corpus = shared_corpus () in
  let graphs =
    List.concat_map
      (fun (st : Dptrace.Stream.t) ->
        let index = Dptrace.Stream.index st in
        List.map (Dpwaitgraph.Wait_graph.build ~index st) st.Dptrace.Stream.instances)
      corpus.Dptrace.Corpus.streams
  in
  let rows = Impact.by_module drivers graphs in
  match rows with
  | [ row ] ->
    check Alcotest.string "module" "d.sys" row.Impact.module_name;
    check Alcotest.int "wait doubles" (Time.ms 80) row.Impact.m_wait;
    check Alcotest.int "distinct once" (Time.ms 40) row.Impact.m_waitdist;
    check (Alcotest.float 1e-9) "ratio" 2.0 (Impact.module_propagation_ratio row);
    check Alcotest.int "max single" (Time.ms 40) row.Impact.m_max_wait;
    check Alcotest.int "counted" 2 row.Impact.m_counted_waits
  | rows -> Alcotest.failf "expected one module row, got %d" (List.length rows)

let test_by_module_totals_match () =
  (* The per-module rows must partition the aggregate D_wait. *)
  let corpus =
    Dpworkload.Corpus_gen.generate (Dpworkload.Corpus_gen.scaled 0.03)
  in
  let graphs =
    List.concat_map
      (fun (st : Dptrace.Stream.t) ->
        let index = Dptrace.Stream.index st in
        List.map (Dpwaitgraph.Wait_graph.build ~index st) st.Dptrace.Stream.instances)
      corpus.Dptrace.Corpus.streams
  in
  let total = fst (Impact.analyze_graphs_prov drivers graphs) in
  let rows = Impact.by_module drivers graphs in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  check Alcotest.int "wait partitions" total.Impact.d_wait
    (sum (fun r -> r.Impact.m_wait));
  check Alcotest.int "waitdist partitions" total.Impact.d_waitdist
    (sum (fun r -> r.Impact.m_waitdist));
  check Alcotest.int "run partitions" total.Impact.d_run
    (sum (fun r -> r.Impact.m_run));
  check Alcotest.int "counts partition" total.Impact.counted_waits
    (sum (fun r -> r.Impact.m_counted_waits))


let per_scenario corpus =
  (Dpcore.Pipeline.run_report ~scenarios:[] drivers corpus).Dpcore.Pipeline.per_scenario

let test_per_scenario_partitions () =
  let corpus = Dpworkload.Corpus_gen.generate (Dpworkload.Corpus_gen.scaled 0.03) in
  let whole = corpus_impact drivers corpus in
  let per = per_scenario corpus in
  check Alcotest.int "every scenario present"
    (List.length (Dptrace.Corpus.scenario_names corpus))
    (List.length per);
  let sum f = List.fold_left (fun acc (_, r) -> acc + f r) 0 per in
  check Alcotest.int "d_scn partitions" whole.Impact.d_scn
    (sum (fun (r : Impact.result) -> r.Impact.d_scn));
  check Alcotest.int "d_wait partitions" whole.Impact.d_wait
    (sum (fun (r : Impact.result) -> r.Impact.d_wait));
  check Alcotest.int "d_run partitions" whole.Impact.d_run
    (sum (fun (r : Impact.result) -> r.Impact.d_run));
  check Alcotest.int "instances partition" whole.Impact.instances
    (sum (fun (r : Impact.result) -> r.Impact.instances));
  (* Cross-scenario sharing: per-scenario distinct sums can only exceed
     the whole-corpus distinct total. *)
  check Alcotest.bool "waitdist superadditive" true
    (sum (fun (r : Impact.result) -> r.Impact.d_waitdist)
    >= whole.Impact.d_waitdist);
  (* Sorted by wait mass. *)
  let rec sorted = function
    | (_, (a : Impact.result)) :: ((_, b) :: _ as rest) ->
      a.Impact.d_wait >= b.Impact.d_wait && sorted rest
    | _ -> true
  in
  check Alcotest.bool "sorted" true (sorted per)

(* The victims of [shared_corpus] in two scenarios: each scenario's
   instance reaches the one 40 ms holder wait, which is distinct in each
   scenario and counted once in the whole. *)
let test_shared_wait_per_scenario () =
  let corpus = shared_corpus ~scenarios:("S", "T") () in
  let whole = corpus_impact drivers corpus in
  check Alcotest.int "whole: counted twice" 2 whole.Impact.counted_waits;
  check Alcotest.int "whole: d_wait doubles" (Time.ms 80) whole.Impact.d_wait;
  check Alcotest.int "whole: d_waitdist once" (Time.ms 40) whole.Impact.d_waitdist;
  match per_scenario corpus with
  | [ ("S", s); ("T", t) ] ->
    List.iter
      (fun (name, (r : Impact.result)) ->
        check Alcotest.int (name ^ ": one instance") 1 r.Impact.instances;
        check Alcotest.int (name ^ ": counted once") 1 r.Impact.counted_waits;
        check Alcotest.int (name ^ ": d_wait") (Time.ms 40) r.Impact.d_wait;
        check Alcotest.int (name ^ ": d_waitdist once") (Time.ms 40) r.Impact.d_waitdist)
      [ ("S", s); ("T", t) ]
  | l ->
    Alcotest.failf "expected rows S and T, got [%s]"
      (String.concat "; " (List.map fst l))

(* --- one traversal ≡ the two-walk reference --- *)

let prov_lists (p : Dpcore.Provenance.impact) =
  let l = Dpcore.Provenance.Topk.to_list in
  ( l p.Dpcore.Provenance.top_waits,
    l p.Dpcore.Provenance.top_runs,
    List.map (fun (name, t) -> (name, l t)) p.Dpcore.Provenance.by_module )

let component_sets =
  [| drivers; Component.of_patterns [ "*" ]; Component.of_patterns [ "*s*"; "app*" ] |]

let prop_measure_equals_reference =
  QCheck.Test.make ~name:"measure = two-walk reference (random corpora)"
    ~count:12
    QCheck.(triple (int_range 1 10_000) (int_range 0 2) bool)
    (fun (seed, which, prov) ->
      let corpus =
        Dpworkload.Corpus_gen.generate
          { Dpworkload.Corpus_gen.default_config with seed; scale = 0.02 }
      in
      let graphs =
        Dpcore.Pipeline.build_graphs corpus (Dptrace.Corpus.all_instances corpus)
      in
      let components = component_sets.(which) in
      if prov then Dpcore.Provenance.enable ();
      Fun.protect ~finally:Dpcore.Provenance.disable @@ fun () ->
      let r, p, rows, per = Impact.measure components graphs in
      let r', p' = Impact_reference.analyze_graphs_prov components graphs in
      let rows' = Impact_reference.by_module components graphs in
      (* Each scenario's graphs measured alone, names in first-appearance
         order. *)
      let scenario (g : Dpwaitgraph.Wait_graph.t) =
        g.Dpwaitgraph.Wait_graph.instance.Dptrace.Scenario.scenario
      in
      let per' =
        List.fold_left
          (fun names g -> if List.mem (scenario g) names then names else scenario g :: names)
          [] graphs
        |> List.rev_map (fun name ->
               ( name,
                 Impact_reference.analyze_graphs components
                   (List.filter (fun g -> scenario g = name) graphs) ))
      in
      r = r'
      && rows = rows'
      && per = per'
      && prov_lists p = prov_lists p'
      && Impact.by_module components graphs = rows'
      &&
      let r'', p'' = Impact.analyze_graphs_prov components graphs in
      r'' = r' && prov_lists p'' = prov_lists p')

let () =
  Alcotest.run "dpcore-impact"
    [
      ( "impact",
        [
          Alcotest.test_case "simple numbers" `Quick test_simple_numbers;
          Alcotest.test_case "component filter" `Quick test_component_filter_excludes;
          Alcotest.test_case "distinct-wait dedup" `Quick test_distinct_wait_dedup;
          Alcotest.test_case "BFS stops at topmost" `Quick
            test_bfs_stops_at_topmost_driver_wait;
          Alcotest.test_case "merge" `Quick test_merge;
          Alcotest.test_case "analyze_graphs agreement" `Quick
            test_analyze_graphs_equals_analyze;
          Alcotest.test_case "empty corpus" `Quick test_empty_corpus;
        ] );
      ( "per_scenario",
        [
          Alcotest.test_case "partitions" `Quick test_per_scenario_partitions;
          Alcotest.test_case "shared wait distinct in each" `Quick
            test_shared_wait_per_scenario;
        ] );
      ( "by_module",
        [
          Alcotest.test_case "shared corpus" `Quick test_by_module;
          Alcotest.test_case "totals partition" `Quick test_by_module_totals_match;
        ] );
      ( "reference",
        [ QCheck_alcotest.to_alcotest prop_measure_equals_reference ] );
    ]
