(* Tests for the dppar domain pool and for the determinism of the parallel
   analysis pipeline: parallel runs must be bit-identical to sequential
   ones. *)

module Pool = Dppar.Pool

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* --- pool basics --- *)

let test_map_matches_list_map () =
  Pool.with_pool ~domains:4 (fun pool ->
      let xs = List.init 100 Fun.id in
      check
        Alcotest.(list int)
        "parallel_map = List.map"
        (List.map (fun x -> (x * 7) + 1) xs)
        (Pool.parallel_map pool (fun x -> (x * 7) + 1) xs))

let test_pool_reuse () =
  Pool.with_pool ~domains:3 (fun pool ->
      for round = 1 to 5 do
        let xs = List.init (17 * round) Fun.id in
        check
          Alcotest.(list int)
          (Printf.sprintf "round %d" round)
          (List.map (fun x -> x + round) xs)
          (Pool.parallel_map pool (fun x -> x + round) xs)
      done)

let test_empty_and_singleton () =
  Pool.with_pool ~domains:4 (fun pool ->
      check Alcotest.(list int) "empty" [] (Pool.parallel_map pool succ []);
      check Alcotest.(list int) "singleton" [ 42 ] (Pool.parallel_map pool succ [ 41 ]))

let test_chunk_edges () =
  Pool.with_pool ~domains:4 (fun pool ->
      let xs = List.init 10 Fun.id in
      let expected = List.map succ xs in
      (* chunk = 1: one task per element. *)
      check Alcotest.(list int) "chunk=1" expected
        (Pool.parallel_map ~chunk:1 pool succ xs);
      (* chunk > length: degenerates to one inline List.map. *)
      check Alcotest.(list int) "chunk>n" expected
        (Pool.parallel_map ~chunk:1000 pool succ xs);
      (* chunk = length - 1: last chunk is a singleton. *)
      check Alcotest.(list int) "ragged last chunk" expected
        (Pool.parallel_map ~chunk:9 pool succ xs);
      (* invalid chunk rejected. *)
      Alcotest.check_raises "chunk=0" (Invalid_argument "Dppar.Pool: chunk 0 < 1")
        (fun () -> ignore (Pool.parallel_map ~chunk:0 pool succ xs)))

let test_size_one_inline () =
  Pool.with_pool ~domains:1 (fun pool ->
      check Alcotest.int "size" 1 (Pool.size pool);
      check
        Alcotest.(list int)
        "inline map"
        (List.map succ (List.init 50 Fun.id))
        (Pool.parallel_map pool succ (List.init 50 Fun.id)))

let test_exception_propagation () =
  Pool.with_pool ~domains:4 (fun pool ->
      let xs = List.init 64 Fun.id in
      (* Two failing items; the earliest one (in input order) wins. One
         task per element makes "earliest chunk" = "earliest element". *)
      let boom x = if x = 5 || x = 40 then failwith (Printf.sprintf "boom%d" x) else x in
      Alcotest.check_raises "first failure re-raised" (Failure "boom5")
        (fun () -> ignore (Pool.parallel_map ~chunk:1 pool boom xs));
      (* The pool survives a failed call. *)
      check
        Alcotest.(list int)
        "pool usable after failure"
        (List.map succ xs)
        (Pool.parallel_map pool succ xs))

let test_shutdown_idempotent () =
  let pool = Pool.create ~domains:3 () in
  check
    Alcotest.(list int)
    "works before shutdown" [ 2; 3 ]
    (Pool.parallel_map pool succ [ 1; 2 ]);
  Pool.shutdown pool;
  Pool.shutdown pool

let prop_map_equals_list_map =
  QCheck.Test.make ~count:100
    ~name:"parallel_map f = List.map f for arbitrary lists"
    QCheck.(pair (list small_int) small_int)
    (fun (xs, chunk) ->
      Pool.with_pool ~domains:4 (fun pool ->
          let chunk = 1 + abs chunk in
          let f x = (x * 31) lxor 5 in
          Pool.parallel_map ~chunk pool f xs = List.map f xs))

(* --- shared stream index memoisation --- *)

let test_shared_index_memoised () =
  let corpus = Dpworkload.Corpus_gen.generate (Dpworkload.Corpus_gen.scaled 0.05) in
  match corpus.Dptrace.Corpus.streams with
  | [] -> Alcotest.fail "generated corpus has no streams"
  | st :: _ ->
    let a = Dptrace.Stream.shared_index st in
    let b = Dptrace.Stream.shared_index st in
    check Alcotest.bool "same physical index" true (a == b);
    (* The memoised index answers like a fresh one. *)
    let fresh = Dptrace.Stream.index st in
    Array.iter
      (fun (e : Dptrace.Event.t) ->
        check Alcotest.int
          (Printf.sprintf "thread %d events" e.Dptrace.Event.tid)
          (Array.length (Dptrace.Stream.events_of_thread fresh e.Dptrace.Event.tid))
          (Array.length (Dptrace.Stream.events_of_thread a e.Dptrace.Event.tid)))
      st.Dptrace.Stream.events

(* Regression: shared_index used a plain mutable field with its read
   outside the lock, so domains racing on a cold memo could observe a
   torn state or build distinct indexes. The memo is an Atomic now: all
   concurrent readers must settle on one physical index. Repeated over
   many cold streams to give the race room to fire. *)
let test_shared_index_race () =
  Pool.with_pool ~domains:4 (fun pool ->
      let corpus =
        Dpworkload.Corpus_gen.generate (Dpworkload.Corpus_gen.scaled 0.05)
      in
      List.iter
        (fun st ->
          (* 16 tasks per stream, chunk 1: several domains hit the cold
             memo at once. *)
          let seen =
            Pool.parallel_map ~chunk:1 pool
              (fun _ -> Dptrace.Stream.shared_index st)
              (List.init 16 Fun.id)
          in
          match seen with
          | first :: rest ->
            List.iteri
              (fun i idx ->
                check Alcotest.bool
                  (Printf.sprintf "stream %d task %d: same index"
                     st.Dptrace.Stream.id i)
                  true (idx == first))
              rest
          | [] -> Alcotest.fail "no tasks ran")
        corpus.Dptrace.Corpus.streams)

(* --- pipeline determinism: sequential vs 4 domains --- *)

let small_corpus =
  lazy (Dpworkload.Corpus_gen.generate (Dpworkload.Corpus_gen.scaled 0.1))

let drivers = Dpcore.Component.drivers

let scenario_fingerprint (r : Dpcore.Pipeline.scenario_result) =
  (* Covers every float- and ranking-bearing part of the result. *)
  Format.asprintf "%a|%a|%f|%f|%s|%s"
    Dpcore.Impact.pp r.Dpcore.Pipeline.slow_impact
    Fmt.(pair ~sep:comma float float)
    ( r.Dpcore.Pipeline.coverages.Dpcore.Evaluation.itc,
      r.Dpcore.Pipeline.coverages.Dpcore.Evaluation.ttc )
    (Dpcore.Pipeline.driver_cost_fraction r)
    (Dpcore.Awg.non_optimizable_fraction r.Dpcore.Pipeline.slow_awg)
    (Dpcore.Awg.render r.Dpcore.Pipeline.slow_awg)
    (Dpcore.Report.top_patterns r.Dpcore.Pipeline.mining.Dpcore.Mining.patterns
       ~n:max_int)

let test_run_scenario_deterministic () =
  let corpus = Lazy.force small_corpus in
  let name = "BrowserTabCreate" in
  let seq = Dpcore.Pipeline.run_scenario drivers corpus name in
  Pool.with_pool ~domains:1 (fun pool ->
      let j1 = Dpcore.Pipeline.run_scenario ~pool drivers corpus name in
      check Alcotest.string "-j 1 = sequential" (scenario_fingerprint seq)
        (scenario_fingerprint j1));
  Pool.with_pool ~domains:4 (fun pool ->
      let j4 = Dpcore.Pipeline.run_scenario ~pool drivers corpus name in
      check Alcotest.string "-j 4 = sequential" (scenario_fingerprint seq)
        (scenario_fingerprint j4))

let test_impact_deterministic () =
  let corpus = Lazy.force small_corpus in
  let seq = Dpcore.Pipeline.run_impact_prov drivers corpus in
  Pool.with_pool ~domains:4 (fun pool ->
      let par = Dpcore.Pipeline.run_impact_prov ~pool drivers corpus in
      check Alcotest.bool "identical impact records" true (fst seq = fst par);
      let per_scenario ?pool () =
        (Dpcore.Pipeline.run_report ?pool ~scenarios:[] drivers corpus)
          .Dpcore.Pipeline.per_scenario
      in
      check Alcotest.bool "identical per-scenario impact" true
        (per_scenario () = per_scenario ~pool ()))

let test_run_report_deterministic () =
  let corpus = Lazy.force small_corpus in
  let seq = Dpcore.Pipeline.run_report drivers corpus in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let par = Dpcore.Pipeline.run_report ~pool drivers corpus in
          let msg what = Printf.sprintf "%d domains: %s" domains what in
          check Alcotest.bool (msg "identical impact record") true
            (seq.Dpcore.Pipeline.impact = par.Dpcore.Pipeline.impact);
          check Alcotest.bool (msg "identical module rows") true
            (seq.Dpcore.Pipeline.modules = par.Dpcore.Pipeline.modules);
          check
            Alcotest.(list string)
            (msg "same scenario order")
            (List.map fst seq.Dpcore.Pipeline.scenarios)
            (List.map fst par.Dpcore.Pipeline.scenarios);
          List.iter2
            (fun (name, ra) (_, rb) ->
              check Alcotest.string
                (msg (Printf.sprintf "scenario %s identical" name))
                (scenario_fingerprint ra) (scenario_fingerprint rb))
            seq.Dpcore.Pipeline.scenarios par.Dpcore.Pipeline.scenarios))
    [ 2; 4 ]

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel_map matches List.map" `Quick
            test_map_matches_list_map;
          Alcotest.test_case "pool reuse across calls" `Quick test_pool_reuse;
          Alcotest.test_case "empty and singleton inputs" `Quick
            test_empty_and_singleton;
          Alcotest.test_case "chunking edge cases" `Quick test_chunk_edges;
          Alcotest.test_case "1-domain pool runs inline" `Quick
            test_size_one_inline;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_shutdown_idempotent;
          qcheck prop_map_equals_list_map;
        ] );
      ( "shared-index",
        [
          Alcotest.test_case "memoised and consistent" `Quick
            test_shared_index_memoised;
          Alcotest.test_case "4-domain cold-memo race" `Slow
            test_shared_index_race;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "run_scenario: -j1 and -j4 = sequential" `Slow
            test_run_scenario_deterministic;
          Alcotest.test_case "impact: parallel = sequential" `Slow
            test_impact_deterministic;
          Alcotest.test_case "run_report: parallel = sequential" `Slow
            test_run_report_deterministic;
        ] );
    ]
