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

(* --- the in-order window --- *)

(* The most items a window holds: [2 * size] on a pool, one without. *)
let width pool = if Pool.size pool = 1 then 1 else 2 * Pool.size pool

(* [f] sleeps a random time per item, so items finish out of order. *)
let test_window_order () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let rng = Random.State.make [| domains |] in
          let delay = Array.init 120 (fun _ -> Random.State.float rng 0.0005) in
          let seen = ref [] in
          Pool.iter_window ~pool
            (fun i -> Unix.sleepf delay.(i); (i * 7) + 1)
            (fun r -> seen := r :: !seen)
            (fun push -> for i = 0 to 119 do push i done);
          check
            Alcotest.(list int)
            (Printf.sprintf "%d domains: push order" domains)
            (List.init 120 (fun i -> (i * 7) + 1))
            (List.rev !seen)))
    [ 1; 2; 3; 4 ]

(* High-water mark of how far [f] runs ahead of [consume]: item [i]
   starts with [i + 1 - consumed] items pushed and not consumed. *)
let test_window_bound () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let consumed = Atomic.make 0 and high = Atomic.make 0 in
          let rec raise_to v =
            let h = Atomic.get high in
            if v > h && not (Atomic.compare_and_set high h v) then raise_to v
          in
          Pool.iter_window ~pool
            (fun i -> raise_to (i + 1 - Atomic.get consumed))
            (fun () -> Unix.sleepf 0.0002; Atomic.incr consumed)
            (fun push -> for i = 0 to 199 do push i done);
          check Alcotest.int (Printf.sprintf "%d domains: all consumed" domains) 200
            (Atomic.get consumed);
          if Atomic.get high > width pool then
            Alcotest.failf "%d domains: %d items in flight, window %d" domains
              (Atomic.get high) (width pool)))
    [ 1; 2; 3; 4 ]

(* Item [k] fails: [consume] saw exactly the items before it, the call
   returns only once every task it queued has finished, and the pool
   stays usable. A failing [feed] comes out after everything it pushed
   was consumed, as without a pool. *)
let test_window_failure () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let msg = Printf.sprintf "%d domains: %s" domains in
          List.iter
            (fun k ->
              let started = Atomic.make 0 and running = Atomic.make 0 and seen = ref [] in
              let f i =
                Atomic.incr started;
                Atomic.incr running;
                Unix.sleepf 0.0003;
                Atomic.decr running;
                if i = k || i = k + 2 then failwith (string_of_int i) else i
              in
              Alcotest.check_raises (msg "item's exception") (Failure (string_of_int k))
                (fun () ->
                  Pool.iter_window ~pool f
                    (fun i -> seen := i :: !seen)
                    (fun push -> for i = 0 to 39 do push i done));
              let after = Atomic.get started in
              Unix.sleepf 0.005;
              check Alcotest.int (msg "no task runs after the call") 0 (Atomic.get running);
              check Alcotest.int (msg "no task starts after the call") after
                (Atomic.get started);
              check Alcotest.(list int) (msg "consumed before item k") (List.init k Fun.id)
                (List.rev !seen))
            [ 0; 1; 9; 39 ];
          let seen = ref [] in
          Alcotest.check_raises (msg "feed's exception") Exit (fun () ->
              Pool.iter_window ~pool succ
                (fun i -> seen := i :: !seen)
                (fun push -> for i = 0 to 9 do push i done; raise Exit));
          check Alcotest.(list int) (msg "pushed before feed failed") (List.init 10 succ)
            (List.rev !seen);
          check Alcotest.(list int) (msg "pool usable after failure")
            (List.init 50 succ)
            (Pool.parallel_map pool succ (List.init 50 Fun.id))))
    [ 1; 2; 3; 4 ]

(* A result leaves the window's ring before it is consumed. The ring
   outlives minor collections, so a result left in its slot would be
   promoted at the next one. The pool's worker is held in a task of
   another call, so this call's tasks run on the caller, one per take:
   when [consume] collects, no other result is done, and nothing this
   call made needs promoting but its queued tasks. *)
let test_window_promotes_nothing () =
  Pool.with_pool ~domains:2 (fun pool ->
      let release = Atomic.make false and held = Atomic.make 0 in
      let hold () =
        Atomic.incr held;
        while not (Atomic.get release) do Domain.cpu_relax () done
      in
      let holder =
        Domain.spawn (fun () -> Pool.iter_window ~pool hold ignore (fun push -> push (); push ()))
      in
      Fun.protect ~finally:(fun () -> Atomic.set release true; Domain.join holder)
      @@ fun () ->
      while Atomic.get held < 2 do Domain.cpu_relax () done;
      let n = 500 and sum = ref 0 in
      let before = (Gc.quick_stat ()).Gc.promoted_words in
      Pool.iter_window ~pool
        (fun i -> Array.make 200 i)
        (fun r -> sum := !sum + r.(199); Gc.minor ())
        (fun push -> for i = 0 to n - 1 do push i done);
      let promoted = (Gc.quick_stat ()).Gc.promoted_words -. before in
      check Alcotest.int "every result consumed" (n * (n - 1) / 2) !sum;
      if promoted >= float_of_int (n * 200 / 2) then
        Alcotest.failf "%.0f words promoted for %d results of 200 words" promoted n)

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
    Fixtures.pp_impact r.Dpcore.Pipeline.slow_impact
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
      ( "window",
        [
          Alcotest.test_case "push order under random delays" `Quick test_window_order;
          Alcotest.test_case "at most 2 x size items in flight" `Quick test_window_bound;
          Alcotest.test_case "a failure stops the window whole" `Quick test_window_failure;
          Alcotest.test_case "consumed results are not promoted" `Quick
            test_window_promotes_nothing;
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
