(* Tests for the visual observability layer (dpviz): flow-event pairing
   (every wait slice's s/f flow ids pair exactly once), artifact
   validity (every export parses via Tjson, folded lines are
   well-formed, speedscope invariants hold), byte-identical re-export
   determinism, the slow-vs-fast differential flame localizing the
   --cores run-queue regression, and the monitor's per-alert view
   bundles. *)

module Corpus_gen = Dpworkload.Corpus_gen
module Corpus = Dptrace.Corpus
module Scenario = Dptrace.Scenario
module Timeline = Dptrace.Timeline
module Classify = Dpcore.Classify
module Component = Dpcore.Component
module Awg = Dpcore.Awg
module Wait_graph = Dpwaitgraph.Wait_graph
module Trace_export = Dpviz.Trace_export
module Flame = Dpviz.Flame
module Bundle = Dpviz.Bundle

let check = Alcotest.check

let gen ?(scale = 0.12) ?(cross = true) ?cores seed =
  Corpus_gen.generate
    { Corpus_gen.default_config with seed; scale; cross_traffic = cross; cores }

(* A scenario of the corpus that actually has classified instances. *)
let some_classified corpus =
  List.filter_map
    (fun name ->
      match Classify.classify corpus name with
      | exception Not_found -> None
      | c -> if Classify.total c > 0 then Some c else None)
    (Corpus.scenario_names corpus)

let export_of corpus scenario =
  let c = Classify.classify corpus scenario in
  Trace_export.export (Trace_export.exemplars_of_classes c)

(* --- flow pairing and artifact validity --- *)

let trace_events json =
  match Tjson.parse json with
  | doc -> Tjson.get_arr "traceEvents" doc

let flow_ids ph events =
  List.filter_map
    (fun e ->
      if Tjson.get_str "ph" e = ph then Some (Tjson.get_num "id" e) else None)
    events

let assert_flows_pair json =
  let events = trace_events json in
  let s = List.sort compare (flow_ids "s" events)
  and f = List.sort compare (flow_ids "f" events) in
  check Alcotest.int "every flow start has exactly one finish"
    (List.length s) (List.length f);
  List.iter2 (fun a b -> check (Alcotest.float 0.0) "flow ids pair" a b) s f;
  let rec no_dup = function
    | a :: (b :: _ as tl) ->
      check Alcotest.bool "flow ids unique" false (a = b);
      no_dup tl
    | _ -> ()
  in
  no_dup s;
  List.length s

let test_export_valid_and_flows_pair () =
  let corpus = gen 3 in
  let classified = some_classified corpus in
  check Alcotest.bool "fixture has classified scenarios" true
    (classified <> []);
  let total_flows = ref 0 in
  List.iter
    (fun (c : Classify.t) ->
      let json = export_of corpus c.Classify.spec.Scenario.name in
      total_flows := !total_flows + assert_flows_pair json;
      (* Counter track values never go negative. *)
      List.iter
        (fun e ->
          if Tjson.get_str "ph" e = "C" then
            check Alcotest.bool "waiter count >= 0" true
              (Tjson.get_num "waiters" (Tjson.get "args" e) >= 0.0))
        (trace_events json))
    classified;
  check Alcotest.bool "some scenario exported flow arrows" true
    (!total_flows > 0)

let test_flow_pairing_qcheck =
  QCheck.Test.make ~name:"flow s/f ids pair exactly once on random corpora"
    ~count:6
    QCheck.(pair (int_range 1 1000) (int_range 0 2))
    (fun (seed, cores) ->
      let corpus =
        gen ~scale:0.06 ?cores:(if cores = 0 then None else Some cores) seed
      in
      List.for_all
        (fun (c : Classify.t) ->
          let json = export_of corpus c.Classify.spec.Scenario.name in
          ignore (assert_flows_pair json);
          true)
        (some_classified corpus))

let test_export_deterministic () =
  let corpus = gen 5 in
  match some_classified corpus with
  | [] -> Alcotest.fail "fixture has no classified scenario"
  | c :: _ ->
    let name = c.Classify.spec.Scenario.name in
    check Alcotest.string "re-export is byte-identical"
      (export_of corpus name) (export_of corpus name)

let test_exemplar_selection () =
  let corpus = gen 7 in
  match
    List.find_opt
      (fun (c : Classify.t) -> List.length c.Classify.slow >= 2)
      (some_classified corpus)
  with
  | None -> Alcotest.fail "fixture has no scenario with 2 slow instances"
  | Some c ->
    let xs = Trace_export.exemplars_of_classes ~slow:2 ~fast:1 c in
    let slow =
      List.filter
        (fun (x : Trace_export.exemplar) ->
          String.length x.Trace_export.x_label >= 4
          && String.sub x.Trace_export.x_label 0 4 = "slow")
        xs
    in
    check Alcotest.int "slow exemplar cap respected" 2 (List.length slow);
    (match slow with
    | a :: b :: _ ->
      check Alcotest.bool "slow exemplars ordered slowest-first" true
        (Scenario.duration a.Trace_export.x_instance
        >= Scenario.duration b.Trace_export.x_instance)
    | _ -> Alcotest.fail "expected two slow exemplars");
    List.iter
      (fun (x : Trace_export.exemplar) ->
        let lo, hi = Timeline.instance_window x.Trace_export.x_instance in
        check Alcotest.bool "window contains the instance" true
          (lo <= x.Trace_export.x_instance.Scenario.t0
          && hi >= x.Trace_export.x_instance.Scenario.t1))
      xs

(* --- flame views --- *)

let folded_line_ok line =
  match String.rindex_opt line ' ' with
  | None -> false
  | Some i ->
    let stack = String.sub line 0 i in
    let weight = String.sub line (i + 1) (String.length line - i - 1) in
    (match int_of_string_opt weight with
    | Some w when w > 0 ->
      stack <> ""
      && String.for_all (fun c -> c <> ' ') stack
      && List.for_all
           (fun fr -> fr <> "")
           (String.split_on_char ';' stack)
    | _ -> false)

let test_folded_format () =
  let corpus = gen 11 in
  match some_classified corpus with
  | [] -> Alcotest.fail "fixture has no classified scenario"
  | c :: _ ->
    let folded = Flame.folded_running (c.Classify.slow @ c.Classify.fast) in
    check Alcotest.bool "running profile is non-empty" true (folded <> []);
    let text = Flame.to_folded folded in
    String.split_on_char '\n' text
    |> List.filter (fun l -> l <> "")
    |> List.iter (fun l ->
           check Alcotest.bool ("well-formed folded line: " ^ l) true
             (folded_line_ok l))

let test_speedscope_invariants () =
  let corpus = gen 11 in
  match some_classified corpus with
  | [] -> Alcotest.fail "fixture has no classified scenario"
  | c :: _ ->
    let folded = Flame.folded_running c.Classify.slow in
    let doc =
      Tjson.parse (Dputil.Jsonw.to_string (Flame.to_speedscope ~name:"t" folded))
    in
    check Alcotest.string "schema"
      "https://www.speedscope.app/file-format-schema.json"
      (Tjson.get_str "$schema" doc);
    let frames = Tjson.get_arr "frames" (Tjson.get "shared" doc) in
    let profile =
      match Tjson.get_arr "profiles" doc with
      | [ p ] -> p
      | ps -> Alcotest.fail (Printf.sprintf "want 1 profile, got %d" (List.length ps))
    in
    check Alcotest.string "unit" "microseconds" (Tjson.get_str "unit" profile);
    let samples = Tjson.get_arr "samples" profile
    and weights = Tjson.get_arr "weights" profile in
    check Alcotest.int "samples and weights align" (List.length samples)
      (List.length weights);
    let nframes = List.length frames in
    List.iter
      (fun s ->
        match Tjson.arr s with
        | Some idxs ->
          List.iter
            (fun i ->
              match Tjson.num i with
              | Some f ->
                check Alcotest.bool "frame index in range" true
                  (f >= 0.0 && f < float_of_int nframes)
              | None -> Alcotest.fail "sample frame should be a number")
            idxs
        | None -> Alcotest.fail "sample should be an array")
      samples;
    let sum =
      List.fold_left
        (fun acc w -> acc + int_of_float (Option.get (Tjson.num w)))
        0 weights
    in
    check Alcotest.int "endValue = sum of weights" sum
      (int_of_float (Tjson.get_num "endValue" profile))

let test_diff_arithmetic () =
  let slow = [ ([ "a"; "b" ], 100); ([ "c" ], 40) ]
  and fast = [ ([ "a"; "b" ], 30); ([ "c" ], 90); ([ "d" ], 5) ] in
  (match Flame.diff ~slow ~fast with
  | [ ([ "a"; "b" ], 70) ] -> ()
  | d -> Alcotest.fail (Printf.sprintf "unexpected diff of %d entries" (List.length d)));
  check
    (Alcotest.list (Alcotest.pair (Alcotest.list Alcotest.string) Alcotest.int))
    "normalize averages per instance"
    [ ([ "a" ], 33) ]
    (Flame.normalize [ ([ "a" ], 100); ([ "b" ], 1) ] ~instances:3)

(* The acceptance check: on a --cores starved corpus, the slow-vs-fast
   differential AWG flame (over all components, so kernel frames
   survive into the AWG) ranks a run-queue wait signature first. *)
let test_differential_localizes_run_queue () =
  let corpus = gen ~scale:0.2 ~cores:1 9 in
  let everything = Component.of_patterns [ "*" ] in
  let c = Classify.classify corpus "AppAccessControl" in
  let _, _, slow_n = Classify.counts c in
  check Alcotest.bool "regression corpus has slow instances" true (slow_n > 0);
  let awg_of pairs =
    Awg.build everything
      (List.map
         (fun ((st : Dptrace.Stream.t), i) ->
           Wait_graph.build ~index:(Dptrace.Stream.shared_index st) st i)
         pairs)
  in
  let diff =
    Flame.diff
      ~slow:
        (Flame.normalize
           (Flame.folded_awg (awg_of c.Classify.slow))
           ~instances:(List.length c.Classify.slow))
      ~fast:
        (Flame.normalize
           (Flame.folded_awg (awg_of c.Classify.fast))
           ~instances:(List.length c.Classify.fast))
  in
  match diff with
  | [] -> Alcotest.fail "differential flame is empty"
  | (top_path, delta) :: _ ->
    check Alcotest.bool "top delta positive" true (delta > 0);
    let mentions_run_queue =
      List.exists
        (fun frame ->
          (* frame is e.g. "wait:kernel!CpuQueue<-App!AccessCheck" *)
          let needle = "kernel!CpuQueue" in
          let n = String.length needle and l = String.length frame in
          let rec scan i =
            i + n <= l && (String.sub frame i n = needle || scan (i + 1))
          in
          scan 0)
        top_path
    in
    check Alcotest.bool
      (Printf.sprintf "top differential path mentions the run queue: %s"
         (String.concat ";" top_path))
      true mentions_run_queue

(* --- bundles and the monitor hook --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fresh_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let dir = Printf.sprintf "viz_%d" !ctr in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    dir

let test_bundle_deterministic () =
  let corpus = gen 13 in
  match some_classified corpus with
  | [] -> Alcotest.fail "fixture has no classified scenario"
  | c :: _ ->
    let base = fresh_dir () in
    let r =
      Dpcore.Pipeline.run_scenario Component.drivers corpus
        c.Classify.spec.Scenario.name
    in
    let b1 = Bundle.write ~dir:(Filename.concat base "a") r in
    let b2 = Bundle.write ~dir:(Filename.concat base "b") r in
    check Alcotest.int "same file set" (List.length b1.Bundle.files)
      (List.length b2.Bundle.files);
    List.iter2
      (fun f1 f2 ->
        check Alcotest.string
          ("byte-identical re-export: " ^ Filename.basename f1)
          (read_file f1) (read_file f2))
      b1.Bundle.files b2.Bundle.files;
    (* The AWG views come from the result's merged forests; they must
       read as one Awg.build over each class's graphs. *)
    List.iter
      (fun (cls, pairs) ->
        let awg =
          Awg.build Component.drivers
            (List.map
               (fun ((st : Dptrace.Stream.t), i) ->
                 Wait_graph.build ~index:(Dptrace.Stream.shared_index st) st i)
               pairs)
        in
        let name = Printf.sprintf "flame_awg_%s.folded" cls in
        check Alcotest.string (name ^ " = one Awg.build's")
          (Flame.to_folded (Flame.folded_awg awg))
          (read_file (Filename.concat (Filename.concat base "a") name)))
      [ ("slow", c.Classify.slow); ("fast", c.Classify.fast) ];
    (* Every JSON artifact of the bundle parses. *)
    List.iter
      (fun f ->
        if Filename.check_suffix f ".json" then
          match Tjson.parse (read_file f) with
          | _ -> ()
          | exception Tjson.Bad msg ->
            Alcotest.fail (Filename.basename f ^ ": " ^ msg))
      b1.Bundle.files

let test_viz_counters () =
  Dpobs.enable ~spans:false ~metrics:true ();
  Dpobs.Metrics.reset ();
  let corpus = gen 3 in
  (match some_classified corpus with
  | [] -> Alcotest.fail "fixture has no classified scenario"
  | c :: _ -> ignore (export_of corpus c.Classify.spec.Scenario.name));
  let v name = Dpobs.Metrics.counter_value (Dpobs.Metrics.counter name) in
  check Alcotest.bool "viz.slices_emitted counts" true
    (v "viz.slices_emitted" > 0);
  check Alcotest.bool "viz.flows_emitted counts" true
    (v "viz.flows_emitted" > 0)

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

(* One replay with --view-dir over three files arriving one per tick,
   shared by the monitor tests: its directory, view directory, files in
   arrival order and parsed alerts. *)
let monitor_replay =
  lazy
    (let dir = fresh_dir () in
     let p name = Filename.concat dir name in
     let files = [ p "calm1.dpf"; p "calm2.dpf"; p "slow.dpf" ] in
     List.iter2 Dptrace.Codec_v2.save files
       [ gen ~cross:false 1; gen ~cross:false 2; gen ~cores:1 9 ];
     let manifest = p "replay.manifest" in
     write_lines manifest
       [
         "clock 1000"; "add calm1.dpf"; "tick"; "clock +5000"; "add calm2.dpf";
         "tick"; "clock +5000"; "add slow.dpf"; "tick";
       ];
     let view_dir = p "views" in
     let config =
       {
         Dpmon.Monitor.default_config with
         replicates = 40;
         alert_log = Some (p "alerts.jsonl");
         view_dir = Some view_dir;
       }
     in
     let s = Dpmon.Monitor.replay config ~manifest in
     check Alcotest.bool "replay raised alerts" true (s.Dpmon.Monitor.r_alerts > 0);
     let alerts =
       read_file (p "alerts.jsonl")
       |> String.split_on_char '\n'
       |> List.filter (fun l -> String.trim l <> "")
       |> List.map Tjson.parse
     in
     (dir, view_dir, files, alerts))

let test_monitor_view_bundles () =
  let _, view_dir, _, alerts = Lazy.force monitor_replay in
  let with_scenario =
    List.filter (fun a -> Tjson.str (Tjson.get "scenario" a) <> None) alerts
  in
  check Alcotest.bool "some alert names a scenario" true (with_scenario <> []);
  List.iter
    (fun a ->
      let view = Tjson.get_str "view" a in
      check Alcotest.bool "alert view is under --view-dir" true
        (String.length view > String.length view_dir
        && String.sub view 0 (String.length view_dir) = view_dir);
      check Alcotest.bool ("bundle directory exists: " ^ view) true
        (Sys.is_directory view);
      let trace = read_file (Filename.concat view "trace.json") in
      ignore (assert_flows_pair trace);
      check Alcotest.bool "bundle has the differential flame" true
        (Sys.file_exists (Filename.concat view "flame_diff.folded")))
    with_scenario;
  (* Scenario-less alerts must not claim a view. *)
  List.iter
    (fun a ->
      if Tjson.str (Tjson.get "scenario" a) = None then
        check Alcotest.bool "no view on scenario-less alerts" true
          (Tjson.member "view" a = None))
    alerts

(* The monitor keeps no events, so its bundles read them back from the
   window's files: each must be byte for byte what Bundle.write makes of
   the scenario's result over the window's resident corpus (tick N's
   window is the first N files, each stream under its window id: its
   number in the order the monitor folded them). *)
let test_monitor_views_match_resident () =
  let dir, _, files, alerts = Lazy.force monitor_replay in
  let reports = Hashtbl.create 4 in
  let report_at tick =
    match Hashtbl.find_opt reports tick with
    | Some r -> r
    | None ->
      let corpora =
        List.filteri (fun i _ -> i < tick) files
        |> List.map (fun path ->
               fst
                 (Dptrace.Codec_v2.fold path
                    ~step:(fun _ -> Dptrace.Codec_v2.frame_stream)
                    ~consume:Option.some))
      in
      let corpus =
        Corpus.create
          ~streams:
            (List.concat_map (fun (c : Corpus.t) -> c.Corpus.streams) corpora
            |> List.mapi (fun i st -> Dptrace.Stream.with_id st i))
          ~specs:(List.hd corpora).Corpus.specs
      in
      let r = Dpcore.Pipeline.run_report Component.drivers corpus in
      Hashtbl.add reports tick r;
      r
  in
  let views =
    List.filter_map
      (fun a ->
        match Tjson.member "view" a with
        | Some _ ->
          Some
            ( int_of_float (Tjson.get_num "tick" a),
              Tjson.get_str "scenario" a,
              Tjson.get_str "view" a )
        | None -> None)
      alerts
    |> List.sort_uniq compare
  in
  check Alcotest.bool "some alert has a view" true (views <> []);
  List.iter
    (fun (tick, scn, view) ->
      let r = List.assoc scn (report_at tick).Dpcore.Pipeline.scenarios in
      let b =
        Bundle.write
          ~dir:(Filename.concat dir (Printf.sprintf "resident-%d-%s" tick scn))
          r
      in
      let slices =
        Tjson.get_arr "traceEvents" (Tjson.parse (read_file (List.hd b.Bundle.files)))
        |> List.filter (fun e ->
               Tjson.member "ph" e = Some (Tjson.Str "X")
               && Tjson.member "cat" e <> Some (Tjson.Str "instance"))
      in
      check Alcotest.bool "the resident trace has event slices" true (slices <> []);
      List.iter
        (fun path ->
          let name = Filename.basename path in
          check Alcotest.string
            (Printf.sprintf "tick %d %s: %s" tick scn name)
            (read_file path)
            (read_file (Filename.concat view name)))
        b.Bundle.files)
    views

let () =
  Alcotest.run "viz"
    [
      ( "export",
        [
          Alcotest.test_case "artifacts parse, flows pair" `Slow
            test_export_valid_and_flows_pair;
          QCheck_alcotest.to_alcotest test_flow_pairing_qcheck;
          Alcotest.test_case "byte-identical re-export" `Slow
            test_export_deterministic;
          Alcotest.test_case "exemplar selection and windows" `Quick
            test_exemplar_selection;
        ] );
      ( "flame",
        [
          Alcotest.test_case "folded lines well-formed" `Quick
            test_folded_format;
          Alcotest.test_case "speedscope invariants" `Quick
            test_speedscope_invariants;
          Alcotest.test_case "diff and normalize arithmetic" `Quick
            test_diff_arithmetic;
          Alcotest.test_case "differential localizes --cores run queue" `Slow
            test_differential_localizes_run_queue;
        ] );
      ( "bundle",
        [
          Alcotest.test_case "deterministic, JSON parses" `Slow
            test_bundle_deterministic;
          Alcotest.test_case "viz counters count" `Quick test_viz_counters;
          Alcotest.test_case "monitor exports per-alert views" `Slow
            test_monitor_view_bundles;
          Alcotest.test_case "monitor views = resident-corpus bundles" `Slow
            test_monitor_views_match_resident;
        ] );
    ]
