(* Tests for Signature Set Tuples and contrast mining (Section 4.2.3). *)

module P = Dpsim.Program
module Engine = Dpsim.Engine
module Time = Dputil.Time
module Awg = Dpcore.Awg
module Tuple = Dpcore.Tuple
module Mining = Dpcore.Mining
module Evaluation = Dpcore.Evaluation
module WG = Dpwaitgraph.Wait_graph

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest
let sig_ = Dptrace.Signature.of_string
let drivers = Dpcore.Component.drivers

(* --- Tuple --- *)

let t ~w ~u ~r =
  Tuple.make
    ~waits:(List.map sig_ w)
    ~unwaits:(List.map sig_ u)
    ~runnings:(List.map sig_ r)

let test_tuple_normalization () =
  let a = t ~w:[ "b!2"; "a!1"; "a!1" ] ~u:[] ~r:[ "c!3" ] in
  let b = t ~w:[ "a!1"; "b!2" ] ~u:[] ~r:[ "c!3" ] in
  check Alcotest.bool "sorted, deduped, order-insensitive" true (Tuple.equal a b);
  check Alcotest.int "hash agrees" (Tuple.hash a) (Tuple.hash b);
  check Alcotest.int "compare agrees" 0 (Tuple.compare a b)

let test_tuple_subset () =
  let small = t ~w:[ "a!1" ] ~u:[ "x!9" ] ~r:[] in
  let big = t ~w:[ "a!1"; "b!2" ] ~u:[ "x!9" ] ~r:[ "c!3" ] in
  check Alcotest.bool "subset" true (Tuple.subset small big);
  check Alcotest.bool "not superset" false (Tuple.subset big small);
  check Alcotest.bool "reflexive" true (Tuple.subset big big);
  check Alcotest.bool "role-sensitive" false
    (Tuple.subset (t ~w:[ "x!9" ] ~u:[] ~r:[]) big)

let test_tuple_empty () =
  let e = t ~w:[] ~u:[] ~r:[] in
  check Alcotest.bool "is_empty" true (Tuple.is_empty e);
  check Alcotest.bool "empty subset of anything" true
    (Tuple.subset e (t ~w:[ "a!1" ] ~u:[] ~r:[]))

let test_tuple_all_signatures () =
  let x = t ~w:[ "a!1" ] ~u:[ "b!2" ] ~r:[ "a!1"; "c!3" ] in
  check Alcotest.int "distinct union" 3 (List.length (Tuple.all_signatures x))

let sig_gen =
  QCheck.Gen.(
    map
      (fun (m, f) -> Printf.sprintf "%c.sys!%c" m f)
      (pair (char_range 'a' 'e') (char_range 'A' 'E')))

let tuple_gen =
  QCheck.Gen.(
    map
      (fun (w, u, r) ->
        Tuple.make
          ~waits:(List.map sig_ w)
          ~unwaits:(List.map sig_ u)
          ~runnings:(List.map sig_ r))
      (triple
         (list_size (int_range 0 4) sig_gen)
         (list_size (int_range 0 4) sig_gen)
         (list_size (int_range 0 4) sig_gen)))

let arbitrary_tuple = QCheck.make tuple_gen

let prop_subset_reflexive =
  QCheck.Test.make ~name:"subset is reflexive" ~count:200 arbitrary_tuple
    (fun x -> Tuple.subset x x)

let prop_subset_antisym =
  QCheck.Test.make ~name:"mutual subset implies equal" ~count:200
    QCheck.(pair arbitrary_tuple arbitrary_tuple)
    (fun (a, b) ->
      (not (Tuple.subset a b && Tuple.subset b a)) || Tuple.equal a b)

let prop_equal_hash =
  QCheck.Test.make ~name:"equal tuples hash equally" ~count:200
    QCheck.(pair arbitrary_tuple arbitrary_tuple)
    (fun (a, b) -> (not (Tuple.equal a b)) || Tuple.hash a = Tuple.hash b)

(* --- mining over constructed episodes --- *)

let spec = Dptrace.Scenario.spec ~name:"S" ~tfast:(Time.ms 20) ~tslow:(Time.ms 60)

(* Slow episode: contention over d.sys!Route with a served disk read.
   Fast episode: the same victim path, uncontended. *)
let episode ~stream_id ~contended =
  let engine = Engine.create ~stream_id () in
  let lock = Engine.new_lock engine ~name:"L" in
  let disk = Engine.new_device engine ~name:"D" ~signature:(sig_ "DiskService") in
  let svc = Engine.new_service engine ~name:"W" ~worker_stack:[ P.kernel_worker ] in
  if contended then
    ignore
      (Engine.spawn engine ~start_at:0 ~name:"h" ~base_stack:[ sig_ "bg!w" ]
         [
           P.call (sig_ "d.sys!Route")
             [
               P.locked lock
                 [
                   P.request svc
                     [ P.call (sig_ "e.sys!Read") [ P.hw disk (Time.ms 80) ] ];
                 ];
             ];
         ]);
  ignore
    (Engine.spawn engine ~scenario:"S" ~start_at:(Time.ms 1) ~name:"v"
       ~base_stack:[ sig_ "app!op" ]
       [
         P.compute (Time.ms 2);
         P.call (sig_ "d.sys!Route") [ P.locked lock [ P.compute (Time.ms 2) ] ];
       ]);
  Engine.run engine

let graphs_of st =
  let index = Dptrace.Stream.index st in
  List.map (WG.build ~index st) st.Dptrace.Stream.instances

let mined () =
  let slow_graphs =
    List.concat_map (fun i -> graphs_of (episode ~stream_id:i ~contended:true))
      [ 0; 1; 2 ]
  in
  let fast_graphs =
    List.concat_map
      (fun i -> graphs_of (episode ~stream_id:(10 + i) ~contended:false))
      [ 0; 1; 2 ]
  in
  let slow = Awg.build drivers slow_graphs in
  let fast = Awg.build drivers fast_graphs in
  Mining.mine ~fast ~slow ~spec ()

let test_mining_finds_contrast () =
  let r = mined () in
  check Alcotest.bool "has contrasts" true (r.Mining.contrast_metas <> []);
  check Alcotest.bool "has patterns" true (r.Mining.patterns <> []);
  let top = List.hd r.Mining.patterns in
  let names =
    List.map Dptrace.Signature.name (Tuple.all_signatures top.Mining.tuple)
  in
  check Alcotest.bool "blames the chain" true
    (List.mem "d.sys!Route" names && List.mem "DiskService" names)

let test_mining_slow_only_reason () =
  let r = mined () in
  (* The contention chain never occurs in the fast class. *)
  check Alcotest.bool "some slow-only contrast" true
    (List.exists
       (fun cm -> cm.Mining.reason = Mining.Slow_only)
       r.Mining.contrast_metas)

let test_patterns_ranked () =
  let r = mined () in
  let rec decreasing = function
    | a :: (b :: _ as rest) ->
      Mining.avg_cost a >= Mining.avg_cost b && decreasing rest
    | _ -> true
  in
  check Alcotest.bool "ranked by avg cost" true (decreasing r.Mining.patterns)

let test_identical_patterns_merged () =
  let r = mined () in
  let tuples = List.map (fun p -> p.Mining.tuple) r.Mining.patterns in
  let distinct = List.sort_uniq Tuple.compare tuples in
  check Alcotest.int "no duplicate tuples" (List.length distinct)
    (List.length tuples)

let test_no_contrast_when_classes_equal () =
  let graphs =
    List.concat_map (fun i -> graphs_of (episode ~stream_id:i ~contended:true))
      [ 0; 1 ]
  in
  let awg_a = Awg.build drivers graphs in
  let awg_b = Awg.build drivers graphs in
  let r = Mining.mine ~fast:awg_a ~slow:awg_b ~spec () in
  check (Alcotest.list Alcotest.string) "no contrasts" []
    (List.map (fun _ -> "c") r.Mining.contrast_metas);
  check Alcotest.int "no patterns" 0 (List.length r.Mining.patterns)

let test_tuple_interned () =
  let a = t ~w:[ "a!1"; "b!2" ] ~u:[ "c!3" ] ~r:[ "d!4" ] in
  let b = t ~w:[ "b!2"; "a!1"; "b!2" ] ~u:[ "c!3" ] ~r:[ "d!4" ] in
  check Alcotest.bool "hash-consed: physically shared" true (a == b);
  check Alcotest.int "same id" (Tuple.id a) (Tuple.id b);
  let c = t ~w:[ "a!1" ] ~u:[ "c!3" ] ~r:[ "d!4" ] in
  check Alcotest.bool "distinct content, distinct id" true
    (Tuple.id a <> Tuple.id c)

let test_meta_enumeration_k_sensitivity () =
  let graphs = graphs_of (episode ~stream_id:0 ~contended:true) in
  let awg = Awg.build drivers graphs in
  let m1 = Fixtures.meta_count awg ~k:1 in
  let m5 = Fixtures.meta_count awg ~k:5 in
  check Alcotest.bool "more metas with larger k" true (m5 > m1)

(* --- engine vs reference equivalence on random scenarios ---

   The optimised miner (incremental enumeration, hash-consed tuples,
   inverted pattern index) must return a [result] structurally
   identical to the naive miner of mining_reference.ml — same metas,
   contrast reasons, pattern ranking and provenance witness sets — for
   any AWG shape and any k. *)

type rand_scene = {
  rk : int;
  n_slow : int;
  n_fast : int;
  hold_ms : int;
  slow_extra : P.step list;
  fast_extra : P.step list;
}

let rec rand_prog_gen depth =
  QCheck.Gen.(
    if depth <= 0 then map (fun n -> P.compute (Time.ms (1 + n))) (int_bound 4)
    else
      frequency
        [
          (1, map (fun n -> P.compute (Time.ms (1 + n))) (int_bound 4));
          ( 2,
            map2
              (fun s kids -> P.call (sig_ s) kids)
              sig_gen
              (list_size (int_range 0 2) (rand_prog_gen (depth - 1))) );
        ])

let scene_gen =
  QCheck.Gen.(
    map
      (fun (rk, n_slow, n_fast, hold_ms, slow_extra, fast_extra) ->
        { rk; n_slow; n_fast; hold_ms; slow_extra; fast_extra })
      (tup6 (int_range 1 6) (int_range 1 3) (int_range 1 3) (int_range 20 90)
         (list_size (int_range 0 3) (rand_prog_gen 2))
         (list_size (int_range 0 3) (rand_prog_gen 2))))

let episode_r ~stream_id ~contended ~hold_ms ~extra =
  let engine = Engine.create ~stream_id () in
  let lock = Engine.new_lock engine ~name:"L" in
  let disk =
    Engine.new_device engine ~name:"D" ~signature:(sig_ "DiskService")
  in
  let svc =
    Engine.new_service engine ~name:"W" ~worker_stack:[ P.kernel_worker ]
  in
  if contended then
    ignore
      (Engine.spawn engine ~start_at:0 ~name:"h" ~base_stack:[ sig_ "bg!w" ]
         [
           P.call (sig_ "d.sys!Route")
             [
               P.locked lock
                 [
                   P.request svc
                     [
                       P.call (sig_ "e.sys!Read")
                         [ P.hw disk (Time.ms hold_ms) ];
                     ];
                 ];
             ];
         ]);
  ignore
    (Engine.spawn engine ~scenario:"S" ~start_at:(Time.ms 1) ~name:"v"
       ~base_stack:[ sig_ "app!op" ]
       (P.compute (Time.ms 2)
        :: P.call (sig_ "d.sys!Route") [ P.locked lock [ P.compute (Time.ms 2) ] ]
        :: extra));
  Engine.run engine

let awgs_of_scene sc =
  let slow_graphs =
    List.concat_map
      (fun i ->
        graphs_of
          (episode_r ~stream_id:i ~contended:true ~hold_ms:sc.hold_ms
             ~extra:sc.slow_extra))
      (List.init sc.n_slow (fun i -> i))
  in
  let fast_graphs =
    List.concat_map
      (fun i ->
        graphs_of
          (episode_r ~stream_id:(100 + i) ~contended:false ~hold_ms:sc.hold_ms
             ~extra:sc.fast_extra))
      (List.init sc.n_fast (fun i -> i))
  in
  (Awg.build drivers fast_graphs, Awg.build drivers slow_graphs)

(* Besides the random scenes, each property's first input is a real
   workload: one generated scenario's instances split into a fast and a
   slow class at their median duration, mined at the paper's k. *)
type equiv_input = Corpus_split | Scene of rand_scene

let split_corpus =
  lazy (Dpworkload.Corpus_gen.generate (Dpworkload.Corpus_gen.scaled 0.05))

let awgs_of_corpus_split () =
  let corpus = Lazy.force split_corpus in
  let name = "BrowserTabCreate" in
  let by_duration =
    List.stable_sort
      (fun (_, a) (_, b) ->
        compare (Dptrace.Scenario.duration a) (Dptrace.Scenario.duration b))
      (Dptrace.Corpus.instances_of corpus name)
  in
  let half = List.length by_duration / 2 in
  let awg keep =
    Awg.build drivers
      (Dpcore.Pipeline.build_graphs corpus
         (List.filteri (fun i _ -> keep i) by_duration))
  in
  ( awg (fun i -> i < half),
    awg (fun i -> i >= half),
    Option.get (Dptrace.Corpus.find_spec corpus name) )

let equiv_input_arbitrary () =
  let first = ref true in
  QCheck.make (fun st ->
      if !first then begin
        first := false;
        Corpus_split
      end
      else Scene (scene_gen st))

let equivalence_prop ~name ~prov =
  QCheck.Test.make ~name ~count:25 (equiv_input_arbitrary ()) (fun input ->
      (if prov then Dpcore.Provenance.enable ()
       else Dpcore.Provenance.disable ());
      Fun.protect ~finally:Dpcore.Provenance.disable @@ fun () ->
      let k, fast, slow, spec =
        match input with
        | Corpus_split ->
          let fast, slow, spec = awgs_of_corpus_split () in
          (Mining.default_k, fast, slow, spec)
        | Scene sc ->
          let fast, slow = awgs_of_scene sc in
          (sc.rk, fast, slow, spec)
      in
      let reference = Mining_reference.mine ~k ~fast ~slow ~spec () in
      Mining.mine ~k ~fast ~slow ~spec () = reference)

let prop_engine_matches_reference =
  equivalence_prop ~name:"engine = reference without provenance" ~prov:false

let prop_engine_matches_reference_prov =
  equivalence_prop ~name:"engine = reference with provenance witnesses"
    ~prov:true

(* --- Evaluation helpers --- *)

let pattern ~cost ~count ~max_single ~w =
  Fixtures.make_pattern ~tuple:(t ~w ~u:[] ~r:[]) ~cost ~count ~max_single

let test_high_impact_rule () =
  check Alcotest.bool "above tslow" true
    (Evaluation.high_impact
       (pattern ~cost:10 ~count:1 ~max_single:(Time.ms 100) ~w:[ "a!1" ])
       ~tslow:(Time.ms 60));
  check Alcotest.bool "below tslow" false
    (Evaluation.high_impact
       (pattern ~cost:10 ~count:1 ~max_single:(Time.ms 10) ~w:[ "a!1" ])
       ~tslow:(Time.ms 60))

let test_time_coverages () =
  let ps =
    [
      pattern ~cost:(Time.ms 30) ~count:1 ~max_single:(Time.ms 100) ~w:[ "a!1" ];
      pattern ~cost:(Time.ms 20) ~count:1 ~max_single:(Time.ms 10) ~w:[ "b!2" ];
    ]
  in
  let c =
    Evaluation.time_coverages ps ~tslow:(Time.ms 60) ~driver_cost:(Time.ms 100)
  in
  check (Alcotest.float 1e-9) "itc" 0.3 c.Evaluation.itc;
  check (Alcotest.float 1e-9) "ttc" 0.5 c.Evaluation.ttc;
  check Alcotest.bool "itc <= ttc" true (c.Evaluation.itc <= c.Evaluation.ttc)

let test_ranking_coverage () =
  let ps =
    List.map
      (fun (c, w) -> pattern ~cost:c ~count:1 ~max_single:0 ~w:[ w ])
      [ (60, "a!1"); (30, "b!2"); (10, "c!3") ]
  in
  check (Alcotest.float 1e-9) "top 30% = ceil(0.9) = 1 of 3" 0.6
    (Evaluation.ranking_coverage ps ~top_fraction:0.30);
  check (Alcotest.float 1e-9) "top 34% = ceil(1.02) = 2 of 3" 0.9
    (Evaluation.ranking_coverage ps ~top_fraction:0.34);
  check (Alcotest.float 1e-9) "top 100%" 1.0
    (Evaluation.ranking_coverage ps ~top_fraction:1.0);
  check (Alcotest.float 1e-9) "empty list" 0.0
    (Evaluation.ranking_coverage [] ~top_fraction:0.1)

let test_driver_type_counts () =
  let type_of s =
    match Dptrace.Signature.module_part s with
    | "a.sys" -> Some "TypeA"
    | "b.sys" -> Some "TypeB"
    | _ -> None
  in
  let ps =
    [
      pattern ~cost:5 ~count:1 ~max_single:0 ~w:[ "a.sys!1"; "b.sys!2" ];
      pattern ~cost:4 ~count:1 ~max_single:0 ~w:[ "a.sys!3" ];
    ]
  in
  let counts = Evaluation.driver_type_counts ps ~top_n:10 ~type_of in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "counts" [ ("TypeA", 2); ("TypeB", 1) ] counts

(* --- inspection effort (RQ2) --- *)

let test_inspect_curve () =
  let ps =
    List.map
      (fun (c, w) -> pattern ~cost:c ~count:1 ~max_single:0 ~w:[ w ])
      [ (Time.ms 60, "a!1"); (Time.ms 30, "b!2"); (Time.ms 10, "c!3") ]
  in
  let m = Dpcore.Inspect.model ~patterns_per_hour:60.0 ps in
  (* Full inspection covers everything. *)
  (match List.rev (Dpcore.Inspect.curve m) with
  | last :: _ ->
    check Alcotest.int "full depth" 3 last.Dpcore.Inspect.inspected;
    check (Alcotest.float 1e-9) "full coverage" 1.0 last.Dpcore.Inspect.coverage;
    check (Alcotest.float 1e-9) "effort" 0.05 last.Dpcore.Inspect.effort_hours
  | [] -> Alcotest.fail "empty curve");
  (* 60% coverage needs exactly the first pattern. *)
  (match Dpcore.Inspect.effort_to_reach m ~coverage:0.6 with
  | Some p -> check Alcotest.int "one pattern" 1 p.Dpcore.Inspect.inspected
  | None -> Alcotest.fail "reachable");
  (* Effort saved vs unranked: 1 pattern instead of 0.6*3 = 1.8. *)
  (match Dpcore.Inspect.effort_saved m ~coverage:0.6 with
  | Some saved -> check (Alcotest.float 1e-6) "saved" (1.0 -. (1.0 /. 1.8)) saved
  | None -> Alcotest.fail "reachable");
  check Alcotest.bool "unreachable coverage" true
    (Dpcore.Inspect.effort_to_reach m ~coverage:1.5 = None)

let test_inspect_empty () =
  let m = Dpcore.Inspect.model [] in
  check Alcotest.int "empty curve" 0 (List.length (Dpcore.Inspect.curve m))

let test_inspect_monotone_on_ranked () =
  let r = mined () in
  let m = Dpcore.Inspect.model r.Mining.patterns in
  let rec monotone = function
    | (a : Dpcore.Inspect.point) :: (b :: _ as rest) ->
      a.Dpcore.Inspect.coverage <= b.Dpcore.Inspect.coverage +. 1e-9 && monotone rest
    | _ -> true
  in
  check Alcotest.bool "coverage monotone in effort" true
    (monotone (Dpcore.Inspect.curve m))

let () =
  Alcotest.run "dpcore-mining"
    [
      ( "tuple",
        [
          Alcotest.test_case "normalization" `Quick test_tuple_normalization;
          Alcotest.test_case "subset" `Quick test_tuple_subset;
          Alcotest.test_case "empty" `Quick test_tuple_empty;
          Alcotest.test_case "all_signatures" `Quick test_tuple_all_signatures;
          qcheck prop_subset_reflexive;
          qcheck prop_subset_antisym;
          qcheck prop_equal_hash;
        ] );
      ( "mining",
        [
          Alcotest.test_case "finds contrast" `Quick test_mining_finds_contrast;
          Alcotest.test_case "slow-only reason" `Quick test_mining_slow_only_reason;
          Alcotest.test_case "ranking order" `Quick test_patterns_ranked;
          Alcotest.test_case "merged patterns" `Quick test_identical_patterns_merged;
          Alcotest.test_case "equal classes yield nothing" `Quick
            test_no_contrast_when_classes_equal;
          Alcotest.test_case "k sensitivity" `Quick test_meta_enumeration_k_sensitivity;
          Alcotest.test_case "tuples interned" `Quick test_tuple_interned;
          qcheck prop_engine_matches_reference;
          qcheck prop_engine_matches_reference_prov;
        ] );
      ( "inspect",
        [
          Alcotest.test_case "curve" `Quick test_inspect_curve;
          Alcotest.test_case "empty" `Quick test_inspect_empty;
          Alcotest.test_case "monotone" `Quick test_inspect_monotone_on_ranked;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "high-impact rule" `Quick test_high_impact_rule;
          Alcotest.test_case "time coverages" `Quick test_time_coverages;
          Alcotest.test_case "ranking coverage" `Quick test_ranking_coverage;
          Alcotest.test_case "driver types" `Quick test_driver_type_counts;
        ] );
    ]
