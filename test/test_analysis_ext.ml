(* Tests for the analysis extensions: pattern differencing, drill-down
   reports and Graphviz exports. *)

module Time = Dputil.Time
module Tuple = Dpcore.Tuple
module Mining = Dpcore.Mining
module Diff = Dpcore.Diff

let check = Alcotest.check
let sig_ = Dptrace.Signature.of_string

let tuple w =
  Tuple.make ~waits:(List.map sig_ w) ~unwaits:[] ~runnings:[]

let pattern ~w ~cost ~count =
  Fixtures.make_pattern ~tuple:(tuple w) ~cost ~count ~max_single:cost

(* --- Diff --- *)

let change_of entries w =
  (List.find (fun e -> Tuple.equal e.Diff.tuple (tuple w)) entries).Diff.change

let test_diff_classification () =
  let before =
    [
      pattern ~w:[ "gone.sys!F" ] ~cost:(Time.ms 100) ~count:1;
      pattern ~w:[ "worse.sys!F" ] ~cost:(Time.ms 100) ~count:1;
      pattern ~w:[ "better.sys!F" ] ~cost:(Time.ms 100) ~count:1;
      pattern ~w:[ "same.sys!F" ] ~cost:(Time.ms 100) ~count:1;
    ]
  in
  let after =
    [
      pattern ~w:[ "new.sys!F" ] ~cost:(Time.ms 50) ~count:1;
      pattern ~w:[ "worse.sys!F" ] ~cost:(Time.ms 300) ~count:1;
      pattern ~w:[ "better.sys!F" ] ~cost:(Time.ms 30) ~count:1;
      pattern ~w:[ "same.sys!F" ] ~cost:(Time.ms 110) ~count:1;
    ]
  in
  let entries = Diff.compare_patterns ~before ~after () in
  check Alcotest.bool "appeared" true (change_of entries [ "new.sys!F" ] = Diff.Appeared);
  check Alcotest.bool "disappeared" true
    (change_of entries [ "gone.sys!F" ] = Diff.Disappeared);
  (match change_of entries [ "worse.sys!F" ] with
  | Diff.Regressed f -> check (Alcotest.float 1e-6) "3x worse" 3.0 f
  | _ -> Alcotest.fail "expected Regressed");
  (match change_of entries [ "better.sys!F" ] with
  | Diff.Improved f -> check Alcotest.bool "3.3x better" true (f > 3.0)
  | _ -> Alcotest.fail "expected Improved");
  check Alcotest.bool "stable within threshold" true
    (change_of entries [ "same.sys!F" ] = Diff.Stable)

let test_diff_ordering_and_helpers () =
  let before = [ pattern ~w:[ "a.sys!F" ] ~cost:(Time.ms 10) ~count:1 ] in
  let after =
    [
      pattern ~w:[ "a.sys!F" ] ~cost:(Time.ms 100) ~count:1;
      pattern ~w:[ "b.sys!F" ] ~cost:(Time.ms 5) ~count:1;
    ]
  in
  let entries = Diff.compare_patterns ~before ~after () in
  (* Regressions first, then appearances. *)
  (match List.map (fun e -> e.Diff.change) entries with
  | [ Diff.Regressed _; Diff.Appeared ] -> ()
  | _ -> Alcotest.fail "unexpected ordering");
  check Alcotest.int "regressions incl. appearances" 2
    (List.length (Fixtures.regressions entries));
  check Alcotest.int "nothing fixed" 0 (List.length (Diff.fixed entries));
  check Alcotest.bool "summary mentions counts" true
    (String.length (Diff.summary entries) > 10)

let test_diff_threshold () =
  let before = [ pattern ~w:[ "a.sys!F" ] ~cost:(Time.ms 100) ~count:1 ] in
  let after = [ pattern ~w:[ "a.sys!F" ] ~cost:(Time.ms 180) ~count:1 ] in
  let strict = Diff.compare_patterns ~threshold:1.5 ~before ~after () in
  let lax = Diff.compare_patterns ~threshold:2.0 ~before ~after () in
  check Alcotest.bool "1.8x regresses at 1.5" true
    (match (List.hd strict).Diff.change with Diff.Regressed _ -> true | _ -> false);
  check Alcotest.bool "1.8x stable at 2.0" true
    ((List.hd lax).Diff.change = Diff.Stable)

let test_diff_empty_sides () =
  let p = [ pattern ~w:[ "a.sys!F" ] ~cost:(Time.ms 10) ~count:1 ] in
  check Alcotest.int "all appeared" 1
    (List.length (Fixtures.regressions (Diff.compare_patterns ~before:[] ~after:p ())));
  check Alcotest.int "all fixed" 1
    (List.length (Diff.fixed (Diff.compare_patterns ~before:p ~after:[] ())));
  check Alcotest.int "both empty" 0
    (List.length (Diff.compare_patterns ~before:[] ~after:[] ()))

(* --- Graphviz exports --- *)

let string_contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_waitgraph_dot () =
  let case = Dpworkload.Motivating_case.build () in
  let g =
    Dpwaitgraph.Wait_graph.build case.Dpworkload.Motivating_case.stream
      case.Dpworkload.Motivating_case.browser_instance
  in
  let dot = Dpwaitgraph.Wait_graph.to_dot g in
  check Alcotest.bool "digraph" true (string_contains dot "digraph wait_graph");
  check Alcotest.bool "mentions UI thread" true (string_contains dot "Browser.UI");
  check Alcotest.bool "mentions disk" true (string_contains dot "DiskService");
  check Alcotest.bool "has edges" true (string_contains dot "->");
  check Alcotest.bool "closes" true (string_contains dot "}")

let test_awg_dot () =
  let corpus = Dpworkload.Motivating_case.corpus ~copies:4 () in
  let r =
    Dpcore.Pipeline.run_scenario Dpcore.Component.drivers corpus
      "BrowserTabCreate"
  in
  let dot = Dpcore.Awg.to_dot r.Dpcore.Pipeline.slow_awg in
  check Alcotest.bool "digraph" true (string_contains dot "digraph awg");
  check Alcotest.bool "mentions fv.sys" true (string_contains dot "fv.sys");
  check Alcotest.bool "aggregates shown" true (string_contains dot "N=");
  (* Every node line is well-formed enough for dot: balanced quotes. *)
  let quotes = ref 0 in
  String.iter (fun c -> if c = '"' then incr quotes) dot;
  check Alcotest.int "balanced quotes" 0 (!quotes mod 2)

(* --- drill-down report --- *)

let test_top_propagation_paths () =
  let corpus = Dpworkload.Motivating_case.corpus ~copies:4 () in
  let r =
    Dpcore.Pipeline.run_scenario Dpcore.Component.drivers corpus
      "BrowserTabCreate"
  in
  let text = Dpcore.Report.top_propagation_paths r.Dpcore.Pipeline.slow_awg ~n:2 in
  check Alcotest.bool "two blocks" true (string_contains text "path #2");
  check Alcotest.bool "no third block" false (string_contains text "path #3");
  check Alcotest.bool "chains rendered" true (string_contains text "wait ")

let test_module_breakdown_render () =
  let corpus = Dpworkload.Motivating_case.corpus ~copies:2 () in
  let graphs =
    Dpcore.Pipeline.build_graphs corpus (Dptrace.Corpus.all_instances corpus)
  in
  let rows = Dpcore.Impact.by_module Dpcore.Component.drivers graphs in
  let table =
    Dputil.Table.render (Dpcore.Report.module_breakdown rows)
  in
  check Alcotest.bool "fs.sys row" true (string_contains table "fs.sys")

(* --- witness explorer --- *)

let test_witnesses_found () =
  let corpus = Dpworkload.Motivating_case.corpus ~copies:6 () in
  let r =
    Dpcore.Pipeline.run_scenario Dpcore.Component.drivers corpus
      "BrowserTabCreate"
  in
  let pattern = List.hd r.Dpcore.Pipeline.mining.Dpcore.Mining.patterns in
  let ws =
    Dpcore.Explorer.witnesses ~limit:4 Dpcore.Component.drivers corpus
      ~scenario:"BrowserTabCreate" ~pattern ()
  in
  check Alcotest.bool "witnesses found" true (ws <> []);
  check Alcotest.bool "bounded" true (List.length ws <= 4);
  (* Costliest first. *)
  let rec decreasing = function
    | (a : Dpcore.Explorer.witness) :: (b :: _ as rest) ->
      a.Dpcore.Explorer.matched_cost >= b.Dpcore.Explorer.matched_cost
      && decreasing rest
    | _ -> true
  in
  check Alcotest.bool "ranked" true (decreasing ws);
  let w = List.hd ws in
  (* Witnesses of the slow pattern are slow instances. *)
  check Alcotest.bool "witness is slow" true
    (Dptrace.Scenario.duration w.Dpcore.Explorer.instance > Time.ms 500);
  (* The concrete chain realises the pattern down to the hardware. *)
  check Alcotest.bool "chain reaches the disk" true
    (List.exists Fixtures.is_hw_service w.Dpcore.Explorer.chain);
  check Alcotest.bool "chain starts with a wait" true
    (Dptrace.Event.is_wait (List.hd w.Dpcore.Explorer.chain));
  let rendered = Dpcore.Explorer.render w in
  check Alcotest.bool "narrative names the UI thread" true
    (string_contains rendered "Browser.UI")

let test_witnesses_absent_pattern () =
  let corpus = Dpworkload.Motivating_case.corpus ~copies:2 () in
  let pattern =
    (Fixtures.make_pattern
       ~tuple:(tuple [ "nosuch.sys!F" ])
       ~cost:1 ~count:1 ~max_single:1)
  in
  let ws =
    Dpcore.Explorer.witnesses Dpcore.Component.drivers corpus
      ~scenario:"BrowserTabCreate" ~pattern ()
  in
  check Alcotest.int "no witnesses" 0 (List.length ws)

(* --- bootstrap robustness --- *)

(* The bootstrap resamples the per-stream impacts run_report measured. *)
let report_of corpus =
  Dpcore.Pipeline.run_report ~scenarios:[] Dpcore.Component.drivers corpus

let streams_of corpus = (report_of corpus).Dpcore.Pipeline.streams

let test_bootstrap_basic () =
  let corpus = Dpworkload.Corpus_gen.generate (Dpworkload.Corpus_gen.scaled 0.05) in
  let report = report_of corpus in
  let r =
    Dpcore.Robustness.bootstrap ~replicates:50 report.Dpcore.Pipeline.streams
  in
  check Alcotest.int "replicates recorded" 50 r.Dpcore.Robustness.replicates;
  (* Point estimates must match the direct analysis... *)
  check (Alcotest.float 1e-9) "point = direct"
    (Dpcore.Impact.ia_wait report.Dpcore.Pipeline.impact)
    r.Dpcore.Robustness.ia_wait.Dpcore.Robustness.point;
  (* ...and lie within their own intervals (they should, overwhelmingly). *)
  List.iter
    (fun (ci : Dpcore.Robustness.ci) ->
      check Alcotest.bool "interval ordered" true
        (ci.Dpcore.Robustness.lo <= ci.Dpcore.Robustness.hi);
      check Alcotest.bool "point in interval" true
        (Dpcore.Robustness.contains ci ci.Dpcore.Robustness.point))
    [
      r.Dpcore.Robustness.ia_wait;
      r.Dpcore.Robustness.ia_run;
      r.Dpcore.Robustness.ia_opt;
      r.Dpcore.Robustness.propagation_ratio;
    ]

let test_bootstrap_deterministic () =
  let streams =
    streams_of (Dpworkload.Corpus_gen.generate (Dpworkload.Corpus_gen.scaled 0.03))
  in
  let a = Dpcore.Robustness.bootstrap ~replicates:30 ~seed:7 streams in
  let b = Dpcore.Robustness.bootstrap ~replicates:30 ~seed:7 streams in
  check (Alcotest.float 1e-12) "same lo"
    a.Dpcore.Robustness.ia_wait.Dpcore.Robustness.lo
    b.Dpcore.Robustness.ia_wait.Dpcore.Robustness.lo;
  let c = Dpcore.Robustness.bootstrap ~replicates:30 ~seed:8 streams in
  check Alcotest.bool "different seed differs" true
    (a.Dpcore.Robustness.ia_wait.Dpcore.Robustness.lo
    <> c.Dpcore.Robustness.ia_wait.Dpcore.Robustness.lo)

let test_bootstrap_empty () =
  let streams = streams_of (Dptrace.Corpus.create ~streams:[] ~specs:[]) in
  let r = Dpcore.Robustness.bootstrap ~replicates:10 streams in
  check (Alcotest.float 1e-9) "degenerate" 0.0
    r.Dpcore.Robustness.ia_wait.Dpcore.Robustness.hi

(* Zero replicates would make a [0, 0] interval that every value leaves,
   and a negative count used to die in Array.make. *)
let test_bootstrap_replicates_positive () =
  List.iter
    (fun replicates ->
      match Dpcore.Robustness.bootstrap ~replicates [ Dpcore.Impact.empty ] with
      | _ -> Alcotest.failf "replicates = %d accepted" replicates
      | exception Invalid_argument _ -> ())
    [ 0; -1 ]

(* The list-based bootstrap the loop replaced: each replicate is a
   [List.init] of draws merged with [Impact.merge]. *)
let bootstrap_reference ~replicates ~seed streams =
  let module R = Dpcore.Robustness in
  let merge_all = List.fold_left Dpcore.Impact.merge Dpcore.Impact.empty in
  let per_stream = Array.of_list streams in
  let n = Array.length per_stream in
  let prng = Dputil.Prng.of_int seed in
  let samples =
    Array.init replicates (fun _ ->
        merge_all (List.init n (fun _ -> per_stream.(Dputil.Prng.int prng n))))
  in
  let full = merge_all streams in
  let ci metric =
    let xs = Array.map metric samples in
    {
      R.point = metric full;
      mean = Dputil.Stats.mean xs;
      lo = Dputil.Stats.percentile xs 2.5;
      hi = Dputil.Stats.percentile xs 97.5;
    }
  in
  {
    R.ia_wait = ci Dpcore.Impact.ia_wait;
    ia_run = ci Dpcore.Impact.ia_run;
    ia_opt = ci Dpcore.Impact.ia_opt;
    propagation_ratio = ci Dpcore.Impact.propagation_ratio;
    replicates;
  }

(* Random per-stream impacts, [n] of them. *)
let gen_streams n =
  let open QCheck.Gen in
  let impact =
    map
      (fun (d_scn, d_wait, d_run, d_waitdist, instances, counted_waits, counted_runs) ->
        { Dpcore.Impact.d_scn; d_wait; d_run; d_waitdist; instances; counted_waits;
          counted_runs })
      (tup7 (int_bound 100_000) (int_bound 50_000) (int_bound 50_000)
         (int_bound 30_000) (int_bound 20) (int_bound 40) (int_bound 40))
  in
  pair (int_bound 1000) (n >>= fun n -> list_repeat n impact)

(* Below and above 10,000 streams, where older [List.init]s switch to a
   tail-recursive branch. *)
let test_bootstrap_matches_reference (name, n) =
  QCheck.Test.make ~name:("bootstrap loop = list-based reference, " ^ name) ~count:6
    (QCheck.make
       ~print:(fun (seed, xs) -> Printf.sprintf "seed %d, %d streams" seed (List.length xs))
       (gen_streams n))
    (fun (seed, streams) ->
      let replicates = 5 in
      compare
        (Dpcore.Robustness.bootstrap ~replicates ~seed streams)
        (bootstrap_reference ~replicates ~seed streams)
      = 0)

let () =
  Alcotest.run "analysis-ext"
    [
      ( "diff",
        [
          Alcotest.test_case "classification" `Quick test_diff_classification;
          Alcotest.test_case "ordering/helpers" `Quick test_diff_ordering_and_helpers;
          Alcotest.test_case "threshold" `Quick test_diff_threshold;
          Alcotest.test_case "empty sides" `Quick test_diff_empty_sides;
        ] );
      ( "dot",
        [
          Alcotest.test_case "wait graph" `Quick test_waitgraph_dot;
          Alcotest.test_case "awg" `Quick test_awg_dot;
        ] );
      ( "drill-down",
        [
          Alcotest.test_case "propagation paths" `Quick test_top_propagation_paths;
          Alcotest.test_case "module breakdown" `Quick test_module_breakdown_render;
        ] );
      ( "witness",
        [
          Alcotest.test_case "found and ranked" `Quick test_witnesses_found;
          Alcotest.test_case "absent pattern" `Quick test_witnesses_absent_pattern;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "bootstrap basics" `Quick test_bootstrap_basic;
          Alcotest.test_case "deterministic" `Quick test_bootstrap_deterministic;
          Alcotest.test_case "empty corpus" `Quick test_bootstrap_empty;
          Alcotest.test_case "replicates must be positive" `Quick
            test_bootstrap_replicates_positive;
        ]
        @ List.map
            (fun case -> QCheck_alcotest.to_alcotest (test_bootstrap_matches_reference case))
            [
              ("n <= 300", QCheck.Gen.int_range 1 300);
              ("n > 10,000", QCheck.Gen.int_range 10_001 12_000);
            ] );
    ]
