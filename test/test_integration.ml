(* End-to-end integration tests: the full pipeline over a generated corpus
   must reproduce the paper's shapes, and serialisation must not perturb
   any result. *)

module Corpus_gen = Dpworkload.Corpus_gen
module Pipeline = Dpcore.Pipeline
module Impact = Dpcore.Impact
module Mining = Dpcore.Mining
module Evaluation = Dpcore.Evaluation

let check = Alcotest.check
let drivers = Dpcore.Component.drivers

(* One corpus shared by all integration tests (generation is fast but
   not free). *)
let corpus = lazy (Corpus_gen.generate (Corpus_gen.scaled 0.25))

let named_results =
  lazy
    (List.map
       (fun (tpl : Dpworkload.Scenarios.template) ->
         let name = tpl.Dpworkload.Scenarios.spec.Dptrace.Scenario.name in
         (name, Pipeline.run_scenario drivers (Lazy.force corpus) name))
       Dpworkload.Scenarios.named)

let driver_impact corpus = fst (Pipeline.run_impact_prov drivers corpus)

let test_impact_bands () =
  let r = driver_impact (Lazy.force corpus) in
  let ia_wait = 100.0 *. Impact.ia_wait r in
  let ia_run = 100.0 *. Impact.ia_run r in
  let ia_opt = 100.0 *. Impact.ia_opt r in
  let ratio = Impact.propagation_ratio r in
  (* Paper: 36.4 / 1.6 / 26 / 3.5. We assert the shape bands. *)
  check Alcotest.bool "IA_wait in band" true (ia_wait > 30.0 && ia_wait < 55.0);
  check Alcotest.bool "IA_run in band" true (ia_run > 0.5 && ia_run < 4.0);
  check Alcotest.bool "IA_opt in band" true (ia_opt > 15.0 && ia_opt < 35.0);
  check Alcotest.bool "wait dominates CPU >10x" true (ia_wait /. ia_run > 10.0);
  check Alcotest.bool "propagation ratio > 1.5" true (ratio > 1.5);
  check Alcotest.bool "consistency: opt = wait*(1-1/ratio)" true
    (abs_float (ia_opt -. (ia_wait *. (1.0 -. (1.0 /. ratio)))) < 0.5)

let test_all_scenarios_mine_patterns () =
  List.iter
    (fun (name, (r : Pipeline.scenario_result)) ->
      let n = List.length r.Pipeline.mining.Mining.patterns in
      check Alcotest.bool (name ^ " has patterns") true (n >= 10);
      check Alcotest.bool (name ^ " has contrasts") true
        (r.Pipeline.mining.Mining.contrast_metas <> []))
    (Lazy.force named_results)

let test_itc_le_ttc () =
  List.iter
    (fun (name, (r : Pipeline.scenario_result)) ->
      let c = r.Pipeline.coverages in
      check Alcotest.bool (name ^ " itc<=ttc") true
        (c.Evaluation.itc <= c.Evaluation.ttc +. 1e-9);
      check Alcotest.bool (name ^ " ttc bounded") true
        (c.Evaluation.ttc <= 1.0 +. 1e-9))
    (Lazy.force named_results)

let test_ranking_concentrates () =
  List.iter
    (fun (name, (r : Pipeline.scenario_result)) ->
      let ps = r.Pipeline.mining.Mining.patterns in
      let c10 = Evaluation.ranking_coverage ps ~top_fraction:0.10 in
      let c30 = Evaluation.ranking_coverage ps ~top_fraction:0.30 in
      check Alcotest.bool (name ^ " top-10% beats uniform") true (c10 > 0.10);
      check Alcotest.bool (name ^ " monotone") true (c30 >= c10))
    (Lazy.force named_results)

let result name = List.assoc name (Lazy.force named_results)

let test_tab_switch_non_optimizable () =
  (* The paper: 66.6% of TabSwitch driver cost is direct hardware; it must
     be the most hardware-bound of the browser scenarios here too. *)
  let ts = Dpcore.Awg.non_optimizable_fraction (result "BrowserTabSwitch").Pipeline.slow_awg in
  check Alcotest.bool "substantial" true (ts > 0.4);
  let tc = Dpcore.Awg.non_optimizable_fraction (result "BrowserTabCreate").Pipeline.slow_awg in
  check Alcotest.bool "dominates TabCreate" true (ts > tc)

let top10_types name =
  Evaluation.driver_type_counts
    (result name).Pipeline.mining.Mining.patterns ~top_n:10
    ~type_of:Dpworkload.Taxonomy.type_name_of_signature

let test_table4_affinities () =
  (* MenuDisplay is network-bound. *)
  (match top10_types "MenuDisplay" with
  | (ty, _) :: _ -> check Alcotest.string "menu top type" "Network" ty
  | [] -> Alcotest.fail "no types for MenuDisplay");
  (* File-system drivers appear in AppAccessControl's patterns alongside
     filters (the security-software architecture). *)
  let acc = top10_types "AppAccessControl" in
  check Alcotest.bool "filters in access control" true
    (List.mem_assoc "FileSystem Filter" acc);
  check Alcotest.bool "fs in access control" true
    (List.mem_assoc "FileSystem/Storage" acc);
  (* Graphics shows up for AppNonResponsive (the hard-fault motif). *)
  let anr = top10_types "AppNonResponsive" in
  check Alcotest.bool "graphics in non-responsive" true
    (List.mem_assoc "Graphics" anr)

let test_classification_shapes () =
  (* WebPageNavigation is the majority-fast scenario (paper: 54% fast);
     BrowserTabCreate is majority-slow (paper: 64% slow). *)
  let frac name pick =
    let c = (result name).Pipeline.classification in
    let f, m, s = Dpcore.Classify.counts c in
    let total = float_of_int (f + m + s) in
    pick (float_of_int f /. total) (float_of_int s /. total)
  in
  check Alcotest.bool "wpn mostly fast" true
    (frac "WebPageNavigation" (fun f _ -> f > 0.4));
  check Alcotest.bool "tab create mostly slow" true
    (frac "BrowserTabCreate" (fun _ s -> s > 0.5))

let test_codec_preserves_analysis () =
  let corpus = Corpus_gen.generate (Corpus_gen.scaled 0.05) in
  let reloaded =
    Fixtures.corpus_of_string (Fixtures.corpus_to_string corpus)
  in
  let a = driver_impact corpus in
  let b = driver_impact reloaded in
  check Alcotest.int "d_scn preserved" a.Impact.d_scn b.Impact.d_scn;
  check Alcotest.int "d_wait preserved" a.Impact.d_wait b.Impact.d_wait;
  check Alcotest.int "d_waitdist preserved" a.Impact.d_waitdist b.Impact.d_waitdist;
  check Alcotest.int "d_run preserved" a.Impact.d_run b.Impact.d_run

let test_k_ablation_monotone () =
  (* Larger segment bounds can only discover more (or equal) contrast
     meta-patterns. *)
  let corpus = Lazy.force corpus in
  let metas k =
    let r = Pipeline.run_scenario ~k drivers corpus "BrowserTabCreate" in
    List.length r.Pipeline.mining.Mining.contrast_metas
  in
  let m1 = metas 1 and m3 = metas 3 and m5 = metas 5 in
  check Alcotest.bool "k=3 >= k=1" true (m3 >= m1);
  check Alcotest.bool "k=5 >= k=3" true (m5 >= m3)

let test_reduction_ablation () =
  (* Disabling the non-optimisable reduction must add hardware-only
     structures back into the AWG. *)
  let corpus = Lazy.force corpus in
  let reduced = Pipeline.run_scenario ~reduce:true drivers corpus "BrowserTabSwitch" in
  let full = Pipeline.run_scenario ~reduce:false drivers corpus "BrowserTabSwitch" in
  check Alcotest.bool "more cost without reduction" true
    (Dpcore.Awg.total_cost full.Pipeline.slow_awg
    > Dpcore.Awg.total_cost reduced.Pipeline.slow_awg)

let test_witness_on_full_corpus () =
  let corpus = Lazy.force corpus in
  let r = result "BrowserTabCreate" in
  let pattern = List.hd r.Pipeline.mining.Mining.patterns in
  match
    Dpcore.Explorer.witnesses ~limit:2 drivers corpus
      ~scenario:"BrowserTabCreate" ~pattern ()
  with
  | [] -> Alcotest.fail "top pattern has no witness in its own corpus"
  | w :: _ ->
    let spec = r.Pipeline.classification.Dpcore.Classify.spec in
    check Alcotest.bool "witness is a slow instance" true
      (Dptrace.Scenario.classify spec w.Dpcore.Explorer.instance
      = Dptrace.Scenario.Slow);
    (* And the timeline of the witness renders. *)
    check Alcotest.bool "timeline renders" true
      (String.length
         (Dptrace.Timeline.render_instance w.Dpcore.Explorer.stream
            w.Dpcore.Explorer.instance)
      > 100)

let test_report_renderers () =
  let named = Lazy.force named_results in
  let classes = List.map (fun (n, r) -> (n, r.Pipeline.classification)) named in
  let tables =
    [
      Dputil.Table.render (Dpcore.Report.scenario_classes classes);
      Dputil.Table.render (Dpcore.Report.coverages named);
      Dputil.Table.render (Dpcore.Report.ranking named);
      Dputil.Table.render
        (Dpcore.Report.driver_types named
           ~type_names:
             (List.map Dpworkload.Taxonomy.type_name Dpworkload.Taxonomy.all_types)
           ~type_of:Dpworkload.Taxonomy.type_name_of_signature);
    ]
  in
  List.iter
    (fun t -> check Alcotest.bool "non-empty table" true (String.length t > 100))
    tables

(* --- the CLI --- *)

(* The driveperf binary built beside the tests. *)
let driveperf =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/driveperf.exe"

(* A one-scenario command given a name without a spec stops at its first
   stream, before stepping it: on a framed corpus whose last stream frame
   fails its checksum, the one error line is the spec's, not the
   frame's. *)
let test_no_spec_steps_no_stream () =
  let encoded = V2_frames.encode (Corpus_gen.generate (Corpus_gen.scaled 0.05)) in
  let damaged = Bytes.of_string encoded in
  let spans = V2_frames.frame_spans encoded in
  let _, payload, len = List.nth spans (List.length spans - 2) in
  let at = payload + (len / 2) in
  Bytes.set damaged at (Char.chr (Char.code (Bytes.get damaged at) lxor 1));
  let path = Filename.temp_file "driveperf_nospec" ".dpf"
  and err = Filename.temp_file "driveperf_nospec" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove path; Sys.remove err) @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc damaged);
  let code =
    Sys.command
      (Filename.quote_command driveperf ~stdout:Filename.null ~stderr:err
         [ "causality"; "NoSuch"; "-c"; path; "-j"; "1" ])
  in
  check Alcotest.int "exit code" 1 code;
  check Alcotest.string "the spec's error line" "no spec for scenario NoSuch in the corpus\n"
    (In_channel.with_open_bin err In_channel.input_all)

(* [driveperf args]: its exit code, stdout and stderr. *)
let run_cli args =
  let out = Filename.temp_file "driveperf_cli" ".out"
  and err = Filename.temp_file "driveperf_cli" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove out; Sys.remove err) @@ fun () ->
  let code = Sys.command (Filename.quote_command driveperf ~stdout:out ~stderr:err args) in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  (code, read out, read err)

(* [f file] in a fresh directory, removed afterwards with its files,
   where [file name] is a path in it. *)
let in_temp_dir f =
  let dir = Filename.temp_dir "driveperf_cli" "" in
  let rec remove path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> remove (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> remove dir) @@ fun () -> f (Filename.concat dir)

(* The drawing commands reload the streams they draw by the content keys
   of the skeletons their fold kept, so every fold behind them must key
   its skeletons, including those that are no one-scenario report
   ([explain --component], [export-trace] without [--rank]): on a text
   corpus they print what they print on its framed copy. *)
let test_drawing_text_matches_framed () =
  in_temp_dir @@ fun file ->
  let corpus = Corpus_gen.generate (Corpus_gen.scaled 0.05) in
  List.iter (fun name -> ignore (Dptrace.Corpus_dir.save (file name) corpus)) [ "c.dpt"; "c.dpf" ];
  let trace = file "trace.json" in
  List.iter
    (fun args ->
      let name = String.concat " " args in
      let run c =
        let code, out, err = run_cli (args @ [ "-c"; file c ]) in
        check Alcotest.string (name ^ " on " ^ c ^ ": stderr") "" err;
        check Alcotest.int (name ^ " on " ^ c ^ ": exit code") 0 code;
        if not (Sys.file_exists trace) then out
        else begin
          let json = In_channel.with_open_bin trace In_channel.input_all in
          Sys.remove trace;
          out ^ json
        end
      in
      check Alcotest.string name (run "c.dpf") (run "c.dpt"))
    [
      [ "explain"; "--component"; "fs.sys" ];
      [ "export-trace"; "BrowserTabCreate"; "-o"; trace ];
      [ "witness"; "BrowserTabCreate"; "--rank"; "1" ];
    ]

(* A text file whose last stream is malformed is folded up to it under
   --cache, then refused: one error line naming the file and line, exit
   1, and no cache file written. *)
let test_text_parse_error_writes_no_cache () =
  in_temp_dir @@ fun file ->
  let text = Fixtures.corpus_to_string (Corpus_gen.generate (Corpus_gen.scaled 0.02)) in
  let line = List.length (String.split_on_char '\n' text) - 1 in
  let path = file "cut.dpt" and cache = file "cache" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (String.sub text 0 (String.length text - 4) ^ "bogus\nend\n"));
  let code, out, err = run_cli [ "report"; "--json"; "-c"; path; "--cache"; cache; "-j"; "1" ] in
  check Alcotest.int "exit code" 1 code;
  check Alcotest.string "no report" "" out;
  check Alcotest.string "the parse error's line"
    (Printf.sprintf "driveperf: error: %s:%d: unrecognised directive \"bogus\"\n" path line)
    err;
  check Alcotest.(list string) "no cache file" []
    (if Sys.file_exists cache then Array.to_list (Sys.readdir cache) else [])

let () =
  Alcotest.run "integration"
    [
      ( "paper shapes",
        [
          Alcotest.test_case "impact bands (E1)" `Slow test_impact_bands;
          Alcotest.test_case "patterns everywhere (E3)" `Slow
            test_all_scenarios_mine_patterns;
          Alcotest.test_case "ITC <= TTC (E3)" `Slow test_itc_le_ttc;
          Alcotest.test_case "ranking concentrates (E4)" `Slow
            test_ranking_concentrates;
          Alcotest.test_case "TabSwitch non-optimisable (E9)" `Slow
            test_tab_switch_non_optimizable;
          Alcotest.test_case "Table 4 affinities (E5)" `Slow test_table4_affinities;
          Alcotest.test_case "class shapes (E2)" `Slow test_classification_shapes;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "codec preserves analysis" `Slow
            test_codec_preserves_analysis;
          Alcotest.test_case "k ablation monotone (A1)" `Slow test_k_ablation_monotone;
          Alcotest.test_case "reduction ablation (A2)" `Slow test_reduction_ablation;
          Alcotest.test_case "report renderers" `Slow test_report_renderers;
          Alcotest.test_case "witness on full corpus" `Slow
            test_witness_on_full_corpus;
        ] );
      ( "cli",
        [
          Alcotest.test_case "a scenario without a spec steps no stream" `Quick
            test_no_spec_steps_no_stream;
          Alcotest.test_case "drawing commands: text as framed" `Quick
            test_drawing_text_matches_framed;
          Alcotest.test_case "a text parse error writes no cache" `Quick
            test_text_parse_error_writes_no_cache;
        ] );
    ]
