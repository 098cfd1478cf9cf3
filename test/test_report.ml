(* Tests for lib/core/report: the text renderers regenerate the paper's
   tables from analysis results, and the --json twin round-trips through
   a real parser (Tjson, shared with test_obs) carrying provenance for
   every reported component. *)

module Corpus_gen = Dpworkload.Corpus_gen
module Impact = Dpcore.Impact
module Pipeline = Dpcore.Pipeline
module Report = Dpcore.Report
module Provenance = Dpcore.Provenance
module J = Dputil.Jsonw

let check = Alcotest.check
let drivers = Dpcore.Component.drivers

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* One small corpus shared by all tests; provenance-carrying analysis of
   it computed once, with the global switch restored afterwards so other
   suites observe the default (disabled) state. *)
let corpus = lazy (Corpus_gen.generate (Corpus_gen.scaled 0.1))

let with_provenance f =
  Provenance.enable ();
  Fun.protect ~finally:Provenance.disable f

let analyzed =
  lazy
    (with_provenance (fun () ->
         let corpus = Lazy.force corpus in
         let impact, prov = Pipeline.run_impact_prov drivers corpus in
         let graphs =
           Pipeline.build_graphs corpus (Dptrace.Corpus.all_instances corpus)
         in
         let modules = Impact.by_module drivers graphs in
         let scenario = "BrowserTabCreate" in
         let r = Pipeline.run_scenario drivers corpus scenario in
         (impact, prov, modules, [ (scenario, r) ])))

(* --- paper tables --- *)

let test_impact_summary_regenerates () =
  let impact, _, _, _ = Lazy.force analyzed in
  let s = Dputil.Table.render (Report.impact_summary impact) in
  check Alcotest.bool "has headline rows" true
    (List.for_all (contains s)
       [
         "IA_wait";
         "IA_run";
         "IA_opt";
         "D_waitdist";
         Report.pct (Impact.ia_wait impact);
         Report.pct (Impact.ia_opt impact);
         Dputil.Time.to_string impact.Impact.d_scn;
         string_of_int impact.Impact.instances;
       ])

let test_module_breakdown_regenerates () =
  let _, _, modules, _ = Lazy.force analyzed in
  check Alcotest.bool "breakdown is non-trivial" true (List.length modules > 1);
  let s = Dputil.Table.render (Report.module_breakdown modules) in
  let top = List.hd modules in
  check Alcotest.bool "costliest module listed" true
    (contains s top.Impact.module_name);
  check Alcotest.bool "sorted by D_wait descending" true
    (let waits = List.map (fun r -> r.Impact.m_wait) modules in
     List.sort (fun a b -> compare b a) waits = waits)

let test_scenario_classes_totals () =
  let _, _, _, scenarios = Lazy.force analyzed in
  let entries =
    List.map (fun (n, r) -> (n, r.Pipeline.classification)) scenarios
  in
  let s = Dputil.Table.render (Report.scenario_classes entries) in
  let f, m, sl = Dpcore.Classify.counts (snd (List.hd entries)) in
  check Alcotest.bool "totals row matches class counts" true
    (contains s (Printf.sprintf "%d" (f + m + sl)) && contains s "Total")

let test_top_patterns_listing () =
  let _, _, _, scenarios = Lazy.force analyzed in
  let _, r = List.hd scenarios in
  let patterns = r.Pipeline.mining.Dpcore.Mining.patterns in
  check Alcotest.bool "mining found patterns" true (patterns <> []);
  let s = Report.top_patterns patterns ~n:3 in
  let top = List.hd patterns in
  let sig_name =
    Dptrace.Signature.name top.Dpcore.Mining.tuple.Dpcore.Tuple.waits.(0)
  in
  check Alcotest.bool "lists the top tuple's wait signature" true
    (contains s sig_name)

(* --- the JSON twin --- *)

let parsed_document =
  lazy
    (let impact, prov, modules, scenarios = Lazy.force analyzed in
     let doc =
       with_provenance (fun () ->
           Report.Json.document ~impact ~impact_prov:prov ~modules ~scenarios ())
     in
     let text = J.to_string doc in
     (impact, modules, scenarios, text, Tjson.parse text))

let test_json_parses_and_identifies () =
  let _, _, _, _, v = Lazy.force parsed_document in
  check Alcotest.string "tool" "driveperf" (Tjson.get_str "tool" v);
  check (Alcotest.float 0.0) "format" 1.0 (Tjson.get_num "format" v);
  check Alcotest.bool "provenance flag" true
    (Tjson.get "provenance_enabled" v = Tjson.Bool true)

let test_json_impact_numbers_round_trip () =
  let impact, _, _, _, v = Lazy.force parsed_document in
  let i = Tjson.get "impact" v in
  let time k = int_of_float (Tjson.get_num k i) in
  check Alcotest.int "d_scn" impact.Impact.d_scn (time "d_scn");
  check Alcotest.int "d_wait" impact.Impact.d_wait (time "d_wait");
  check Alcotest.int "d_waitdist" impact.Impact.d_waitdist (time "d_waitdist");
  check (Alcotest.float 1e-9) "ia_wait" (Impact.ia_wait impact)
    (Tjson.get_num "ia_wait" i);
  check Alcotest.bool "impact carries provenance" true
    (Tjson.get_arr "top_waits" (Tjson.get "provenance" i) <> [])

let test_json_provenance_for_every_module () =
  let _, modules, _, _, v = Lazy.force parsed_document in
  let rows = Tjson.get_arr "modules" v in
  check Alcotest.int "one row per module" (List.length modules)
    (List.length rows);
  List.iter2
    (fun (m : Impact.module_row) row ->
      check Alcotest.string "module name" m.Impact.module_name
        (Tjson.get_str "module" row);
      let prov = Tjson.get_arr "provenance" row in
      if m.Impact.m_counted_waits > 0 then
        check Alcotest.bool
          (m.Impact.module_name ^ " has witness wait events")
          true (prov <> []);
      (* Each recorded witness resolves to a concrete event with a time
         span inside its instance. *)
      List.iter
        (fun w ->
          let ts = Tjson.get_num "ts" w and te = Tjson.get_num "te" w in
          check Alcotest.bool "ts <= te" true (ts <= te);
          let inst = Tjson.get "instance" w in
          check Alcotest.bool "event within instance span" true
            (Tjson.get_num "t0" inst <= ts && te <= Tjson.get_num "t1" inst))
        prov)
    modules rows

let test_json_patterns_carry_witnesses () =
  let _, _, scenarios, _, v = Lazy.force parsed_document in
  let sc = List.hd (Tjson.get_arr "scenarios" v) in
  check Alcotest.string "scenario name" (fst (List.hd scenarios))
    (Tjson.get_str "name" sc);
  let patterns = Tjson.get_arr "patterns" sc in
  check Alcotest.bool "patterns present" true (patterns <> []);
  List.iteri
    (fun i p ->
      check Alcotest.int "rank is 1-based position" (i + 1)
        (int_of_float (Tjson.get_num "rank" p)))
    patterns;
  let top = List.hd patterns in
  check Alcotest.bool "top pattern has slow-class witnesses" true
    (Tjson.get_arr "witnesses" top <> []);
  List.iter
    (fun w ->
      check Alcotest.bool "witness cost positive" true
        (Tjson.get_num "cost" w > 0.0))
    (Tjson.get_arr "witnesses" top)

let test_json_deterministic () =
  let impact, _, modules, scenarios = Lazy.force analyzed in
  let _, prov, _, _ = Lazy.force analyzed in
  let render () =
    with_provenance (fun () ->
        J.to_string
          (Report.Json.document ~impact ~impact_prov:prov ~modules ~scenarios ()))
  in
  check Alcotest.string "two renders byte-identical" (render ()) (render ())

let test_json_disabled_mode_is_bare () =
  let impact, _, modules, scenarios = Lazy.force analyzed in
  (* Provenance disabled (the default outside with_provenance): the
     document says so and every module's provenance array is empty. *)
  let doc =
    Report.Json.document ~impact ~impact_prov:Provenance.empty_impact ~modules
      ~scenarios ()
  in
  let v = Tjson.parse (J.to_string doc) in
  check Alcotest.bool "flag off" true
    (Tjson.get "provenance_enabled" v = Tjson.Bool false);
  List.iter
    (fun row ->
      check Alcotest.bool "no witnesses" true
        (Tjson.get_arr "provenance" row = []))
    (Tjson.get_arr "modules" v)

(* Provenance is a side channel: recording witnesses must not change a
   single number of the analysis it rides along. *)
let test_provenance_changes_no_number () =
  let corpus = Lazy.force corpus in
  let numbers () =
    let r = Pipeline.run_report drivers corpus in
    let scenarios =
      List.map
        (fun (name, (r : Pipeline.scenario_result)) ->
          ( name,
            r.slow_impact,
            r.coverages,
            List.map
              (fun (p : Dpcore.Mining.pattern) ->
                (Dpcore.Tuple.id p.tuple, p.cost, p.count))
              r.mining.patterns ))
        r.scenarios
    in
    (r.impact, r.modules, scenarios)
  in
  let plain = numbers () in
  check Alcotest.bool "same numbers with provenance on" true
    (with_provenance numbers = plain)

(* The per-stream graph pass the bootstrap once ran itself, kept as the
   oracle for [report.streams]: each stream's graphs built and measured
   on their own, by the two-walk reference. *)
let per_stream_impacts corpus =
  List.map
    (fun (st : Dptrace.Stream.t) ->
      let index = Dptrace.Stream.shared_index st in
      let graphs =
        List.map (Dpwaitgraph.Wait_graph.build ~index st) st.Dptrace.Stream.instances
      in
      fst (Impact_reference.analyze_graphs_prov drivers graphs))
    corpus.Dptrace.Corpus.streams

(* An emptied directory under the test's cwd, so "cold" really is. *)
let fresh_cache_dir name =
  if Sys.file_exists name then
    Array.iter (fun f -> Sys.remove (Filename.concat name f)) (Sys.readdir name)
  else Sys.mkdir name 0o755;
  name

(* run_report's one per-stream pass must render exactly the document of
   a composition built in test code: the two-walk reference impact and
   module table over every instance's graph at once, and
   Scenario_reference.run for each requested name that has a spec.
   run_report merges per-stream Awg.Partial forests; the reference
   builds each class's AWG with one Awg.build over all its graphs, so
   the oracle checks the merge against the single-pass build. The
   scenario list carries a name without a spec, which both must skip. Its per-stream impacts, and so the
   bootstrap over them, must equal the oracle's, and so must its
   per-scenario table, the reference impact of each scenario's graphs
   built on their own, from scratch and from a snapshot cache read cold
   and then warm from disk. *)
let test_run_report_equals_composed () =
  let corpus = Lazy.force corpus in
  let scenarios = [ "BrowserTabCreate"; "NoSuchScenario"; "AppNonResponsive" ] in
  let render ~impact ~impact_prov ~modules ~scenarios =
    J.to_string (Report.Json.document ~impact ~impact_prov ~modules ~scenarios ())
  in
  let oracle = per_stream_impacts corpus in
  let bootstrap = Dpcore.Robustness.bootstrap ~replicates:50 in
  let per_scenario = Impact_reference.per_scenario drivers corpus in
  let check_tables ~msg (r : Pipeline.report) =
    check Alcotest.bool (msg ^ ": per-stream impacts = oracle") true
      (r.Pipeline.streams = oracle);
    check Alcotest.bool (msg ^ ": bootstrap = oracle's") true
      (bootstrap r.Pipeline.streams = bootstrap oracle);
    check Alcotest.bool (msg ^ ": per-scenario table = oracle") true
      (r.Pipeline.per_scenario = per_scenario)
  in
  let composed ?pool () =
    let graphs =
      Pipeline.build_graphs ?pool corpus (Dptrace.Corpus.all_instances corpus)
    in
    let impact, impact_prov = Impact_reference.analyze_graphs_prov drivers graphs in
    let modules = Impact_reference.by_module drivers graphs in
    let named =
      List.filter_map
        (fun name ->
          match Scenario_reference.run drivers corpus name with
          | r -> Some (name, r)
          | exception Not_found -> None)
        scenarios
    in
    render ~impact ~impact_prov ~modules ~scenarios:named
  in
  let render_report (r : Pipeline.report) =
    render ~impact:r.Pipeline.impact ~impact_prov:r.Pipeline.impact_prov
      ~modules:r.Pipeline.modules ~scenarios:r.Pipeline.scenarios
  in
  let compare_both ~msg ?pool () =
    let want = composed ?pool () in
    check Alcotest.bool (msg ^ ": the spec-less name is skipped") false
      (contains want "NoSuchScenario");
    let r = Pipeline.run_report ?pool ~scenarios drivers corpus in
    check Alcotest.string msg want (render_report r);
    check_tables ~msg r
  in
  let cached ~prov =
    let dir = fresh_cache_dir "snapcache_report" in
    let open_snap () =
      let fingerprint =
        Dpcore.Snapshot.fingerprint ~components:drivers
          ~specs:corpus.Dptrace.Corpus.specs ~k:Dpcore.Mining.default_k ()
      in
      let snap = Dpcore.Snapshot.create ~dir ~fingerprint () in
      Dpcore.Snapshot.ensure snap drivers corpus;
      snap
    in
    let cold = open_snap () in
    check_tables ~msg:(prov ^ ", cold cache")
      (Pipeline.run_report_snap ~scenarios cold corpus);
    Dpcore.Snapshot.save cold;
    let warm = open_snap () in
    check Alcotest.int (prov ^ ", warm cache: every stream from disk")
      (Dptrace.Corpus.stream_count corpus)
      (Dpcore.Snapshot.stats warm).Dpcore.Snapshot.s_hits;
    check_tables ~msg:(prov ^ ", warm cache")
      (Pipeline.run_report_snap ~scenarios warm corpus)
  in
  let both_pools ~prov =
    compare_both ~msg:(prov ^ ", sequential") ();
    Dppar.Pool.with_pool ~domains:2 (fun pool ->
        compare_both ~msg:(prov ^ ", 2-domain pool") ~pool ());
    cached ~prov
  in
  both_pools ~prov:"provenance off";
  with_provenance (fun () -> both_pools ~prov:"provenance on")

(* Everything a scenario result carries: class counts, the slow impact
   with its provenance, both AWGs, the ranked patterns with their
   witnesses, and the coverages. *)
let scenario_fingerprint (r : Pipeline.scenario_result) =
  let f, m, s = Dpcore.Classify.counts r.Pipeline.classification in
  let c = r.Pipeline.coverages in
  String.concat "\n--\n"
    [
      Printf.sprintf "classes %d/%d/%d" f m s;
      J.to_string
        (Report.Json.of_impact ~prov:r.Pipeline.slow_impact_prov
           r.Pipeline.slow_impact);
      Dpcore.Awg.render r.Pipeline.fast_awg;
      Dpcore.Awg.render r.Pipeline.slow_awg;
      J.to_string
        (J.Arr
           (List.mapi
              (fun i p -> Report.Json.of_pattern ~rank:(i + 1) p)
              r.Pipeline.mining.Dpcore.Mining.patterns));
      Printf.sprintf "metas %d/%d, itc %h, ttc %h"
        r.Pipeline.mining.Dpcore.Mining.fast_meta_count
        r.Pipeline.mining.Dpcore.Mining.slow_meta_count c.Dpcore.Evaluation.itc
        c.Dpcore.Evaluation.ttc;
    ]

(* run_scenario is the report's entry for one requested scenario; it
   must give the composed path's result for every
   scenario with a spec, sequentially and on a 2-domain pool, with
   provenance off and on, and still raise Not_found for a spec-less
   name. *)
let test_run_scenario_equals_composed () =
  let corpus = Lazy.force corpus in
  let names = Dptrace.Corpus.scenario_names corpus in
  let compare_all ~msg ?pool () =
    List.iter
      (fun name ->
        match Scenario_reference.run drivers corpus name with
        | exception Not_found -> ()
        | want ->
          check Alcotest.string
            (Printf.sprintf "%s: %s" msg name)
            (scenario_fingerprint want)
            (scenario_fingerprint
               (Pipeline.run_scenario ?pool drivers corpus name)))
      names;
    check Alcotest.bool (msg ^ ": a spec-less name raises Not_found") true
      (match Pipeline.run_scenario ?pool drivers corpus "NoSuchScenario" with
      | _ -> false
      | exception Not_found -> true)
  in
  let both_pools ~prov =
    compare_all ~msg:(prov ^ ", sequential") ();
    Dppar.Pool.with_pool ~domains:2 (fun pool ->
        compare_all ~msg:(prov ^ ", 2-domain pool") ~pool ())
  in
  both_pools ~prov:"provenance off";
  with_provenance (fun () -> both_pools ~prov:"provenance on")

(* run_report's per-stream pass takes each stream's index for that pass
   only: afterwards no stream holds one, and every stream's lookup was a
   miss. An index a multi-pass consumer memoised beforehand is reused,
   counted as a hit, and stays memoised. *)
let test_run_report_index_dies_with_pass () =
  let corpus = Corpus_gen.generate (Corpus_gen.scaled 0.02) in
  let streams = corpus.Dptrace.Corpus.streams in
  let memo (st : Dptrace.Stream.t) = Atomic.get st.Dptrace.Stream.memo_index in
  let hit = Dpobs.Metrics.counter "stream.index.hit"
  and miss = Dpobs.Metrics.counter "stream.index.miss" in
  let report_counts () =
    let h = Dpobs.Metrics.counter_value hit and m = Dpobs.Metrics.counter_value miss in
    ignore (Pipeline.run_report drivers corpus);
    (Dpobs.Metrics.counter_value hit - h, Dpobs.Metrics.counter_value miss - m)
  in
  Dpobs.enable ~spans:false ~metrics:true ();
  Fun.protect ~finally:Dpobs.disable @@ fun () ->
  let hits, misses = report_counts () in
  check Alcotest.int "no hit" 0 hits;
  check Alcotest.int "one miss per stream" (List.length streams) misses;
  check Alcotest.bool "no stream keeps an index" false
    (List.exists (fun st -> Option.is_some (memo st)) streams);
  let first = List.hd streams in
  let idx = Dptrace.Stream.shared_index first in
  let hits, misses = report_counts () in
  check Alcotest.int "the memoised index is a hit" 1 hits;
  check Alcotest.int "every other stream misses" (List.length streams - 1) misses;
  check Alcotest.bool "and stays memoised" true
    (match memo first with Some i -> i == idx | None -> false)

(* The CLI's fold, each stream stepped as it is decoded from a framed
   file and its parts absorbed at once, must render exactly the
   document, and feed exactly the bootstrap, that run_report gives over
   the resident corpus: for every scenario and for a subset,
   sequentially and on two domains, with provenance on and off. Under
   --recover on a damaged file (one frame CRC-resealed around an
   undecodable payload, one with a bad checksum) it must also drop the
   same frames with the same diagnostics. The classifications of a
   fold-built report reach stream skeletons only. *)
let test_fold_equals_resident () =
  let corpus = Lazy.force corpus in
  let clean = V2_frames.encode corpus in
  let damaged =
    let b = Bytes.of_string clean in
    let spans = V2_frames.frame_spans clean in
    let _, payload, len = List.nth spans 2 in
    Bytes.set b payload '\x00';
    V2_frames.reseal b ~payload ~len;
    let _, payload, len = List.nth spans 5 in
    let at = payload + (len / 2) in
    Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 1));
    Bytes.to_string b
  in
  let render cov (r : Pipeline.report) =
    J.to_string
      (Report.Json.document ~coverage:cov ~impact:r.Pipeline.impact
         ~impact_prov:r.Pipeline.impact_prov ~modules:r.Pipeline.modules
         ~scenarios:r.Pipeline.scenarios ())
  in
  let bootstrap (r : Pipeline.report) =
    Dpcore.Robustness.bootstrap ~replicates:50 r.Pipeline.streams
  in
  let compare ~msg ?pool ?scenarios ~mode data =
    let path = Filename.temp_file "driveperf_fold" ".dpf" in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    Out_channel.with_open_bin path (fun oc -> output_string oc data);
    let ok = function Ok l -> l | Error m -> Alcotest.failf "%s: %s" msg m in
    let loaded = ok (Dptrace.Corpus_dir.load ?pool ~mode path) in
    let resident, cov = Pipeline.screen loaded.Dptrace.Corpus_dir.l_corpus in
    let want = Pipeline.run_report ?pool ?scenarios drivers resident in
    let folded = ref loaded in
    let acc, skeletons, fold_cov =
      Pipeline.fold_report ?scenarios ~cache:None drivers (fun ~step ~consume ->
          folded := ok (Dptrace.Corpus_dir.fold ?pool ~mode ~step ~consume path);
          !folded.Dptrace.Corpus_dir.l_corpus)
    in
    let got = Pipeline.finish ?pool acc skeletons in
    check Alcotest.string (msg ^ ": document") (render cov want)
      (render fold_cov got);
    check Alcotest.bool (msg ^ ": bootstrap") true (bootstrap want = bootstrap got);
    check Alcotest.bool (msg ^ ": same frames and diagnostics") true
      (!folded.Dptrace.Corpus_dir.l_report = loaded.Dptrace.Corpus_dir.l_report);
    check Alcotest.bool (msg ^ ": classifications hold skeletons") true
      (List.for_all
         (fun (_, (r : Pipeline.scenario_result)) ->
           let c = r.Pipeline.classification in
           List.for_all
             (fun ((st : Dptrace.Stream.t), _) ->
               Dptrace.Stream.event_count st = 0 && st.Dptrace.Stream.threads = [])
             (c.Dpcore.Classify.fast @ c.Dpcore.Classify.middle
            @ c.Dpcore.Classify.slow))
         got.Pipeline.scenarios);
    loaded
  in
  let subset = [ "BrowserTabCreate"; "AppNonResponsive" ] in
  let matrix ~prov =
    Dppar.Pool.with_pool ~domains:2 @@ fun pool ->
    ignore (compare ~msg:(prov ^ ", sequential") ~mode:`Strict clean);
    ignore
      (compare ~msg:(prov ^ ", 2 domains, subset") ~pool ~scenarios:subset
         ~mode:`Strict clean);
    let recovered =
      compare ~msg:(prov ^ ", recover, subset") ~scenarios:subset ~mode:`Recover
        damaged
    in
    check
      Alcotest.(list int)
      (prov ^ ", recover: two frames dropped, the trailer count flagged")
      [ 2; 5; List.length (V2_frames.frame_spans clean) ]
      (match recovered.Dptrace.Corpus_dir.l_report with
      | Some r -> List.map (fun d -> d.Dptrace.Codec_v2.frame) r.Dptrace.Codec_v2.dropped
      | None -> []);
    ignore (compare ~msg:(prov ^ ", recover, 2 domains") ~pool ~mode:`Recover damaged)
  in
  matrix ~prov:"provenance off";
  with_provenance (fun () -> matrix ~prov:"provenance on")

(* A command that draws events folds with [Explorer.keyed] steps, keeps
   skeletons, and reloads its streams by the skeletons' content keys, so
   each skeleton must carry its stream's real key, including where
   nothing decoded a frame: a text file and the generated corpus.
   Without it, the key of the event-less skeleton is re-encoded and
   names no stream. The expected keys come from a second generation, so
   the folded streams carry no memo beforehand. A plain report fold over
   a text file computes no key. *)
let test_fold_skeletons_carry_keys () =
  let config = Corpus_gen.scaled 0.05 in
  let want =
    List.map Dptrace.Codec_v2.stream_key (Corpus_gen.generate config).Dptrace.Corpus.streams
  in
  let kept source =
    let _, kept, _ = Pipeline.fold_report ~cache:None drivers source in
    kept.Dptrace.Corpus.streams
  in
  let keys source = List.map Dptrace.Codec_v2.stream_key (kept source) in
  let keyed source ~step ~consume = source ~step:(Dpcore.Explorer.keyed step) ~consume in
  let generated ~step ~consume =
    let c = Corpus_gen.generate config in
    Dptrace.Corpus_dir.fold_streams ~step ~consume (fun push ->
        List.iter (push c.Dptrace.Corpus.specs) c.Dptrace.Corpus.streams;
        c.Dptrace.Corpus.specs)
  in
  check Alcotest.(list string) "generated corpus" want (keys (keyed generated));
  let path = Filename.temp_file "driveperf_keys" ".dpt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  ignore (Dptrace.Corpus_dir.save path (Corpus_gen.generate config));
  let text ~step ~consume =
    match Dptrace.Corpus_dir.fold ~step ~consume path with
    | Ok l -> l.Dptrace.Corpus_dir.l_corpus
    | Error m -> Alcotest.fail m
  in
  check Alcotest.(list string) "text file" want (keys (keyed text));
  check Alcotest.bool "a plain fold over a text file computes no key" true
    (List.for_all (fun st -> Dptrace.Stream.key_memo st = None) (kept text))

(* A resident corpus whose second stream takes the first's id: run_report
   and run_report_snap drop the repeat, as the screen does, so each id
   names one stream's instances, and the document is the one of the
   corpus without the repeat. *)
let test_run_report_drops_repeated_id () =
  let corpus = Lazy.force corpus in
  let specs = corpus.Dptrace.Corpus.specs in
  match corpus.Dptrace.Corpus.streams with
  | a :: b :: rest ->
    let repeated =
      Dptrace.Corpus.create
        ~streams:(a :: Dptrace.Stream.with_id b a.Dptrace.Stream.id :: rest)
        ~specs
    in
    let doc (r : Pipeline.report) =
      J.to_string
        (Report.Json.document ~impact:r.Pipeline.impact ~impact_prov:r.Pipeline.impact_prov
           ~modules:r.Pipeline.modules ~scenarios:r.Pipeline.scenarios ())
    in
    with_provenance @@ fun () ->
    let want = doc (Pipeline.run_report drivers (Dptrace.Corpus.create ~streams:(a :: rest) ~specs)) in
    check Alcotest.string "run_report" want (doc (Pipeline.run_report drivers repeated));
    let snap =
      Dpcore.Snapshot.create
        ~fingerprint:(Dpcore.Snapshot.fingerprint ~components:drivers ~specs ~k:Dpcore.Mining.default_k ())
        ()
    in
    Dpcore.Snapshot.ensure snap drivers repeated;
    check Alcotest.string "run_report_snap" want (doc (Pipeline.run_report_snap snap repeated))
  | _ -> Alcotest.fail "fixture has fewer than two streams"

let test_jsonw_escaping_round_trips () =
  let doc =
    J.Obj
      [
        ("plain", J.str "hello");
        ("quotes", J.str {|she said "hi"|});
        ("control", J.str "tab\there\nnewline");
        ("backslash", J.str {|C:\drivers\fv.sys|});
        ("numbers", J.Arr [ J.int (-3); J.float 0.125; J.float 1e9 ]);
      ]
  in
  let v = Tjson.parse (J.to_string doc) in
  check Alcotest.string "quotes" {|she said "hi"|} (Tjson.get_str "quotes" v);
  check Alcotest.string "control" "tab\there\nnewline"
    (Tjson.get_str "control" v);
  check Alcotest.string "backslash" {|C:\drivers\fv.sys|}
    (Tjson.get_str "backslash" v);
  match Tjson.get_arr "numbers" v with
  | [ a; b; c ] ->
    check (Alcotest.float 0.0) "int" (-3.0) (Option.get (Tjson.num a));
    check (Alcotest.float 0.0) "fraction" 0.125 (Option.get (Tjson.num b));
    check (Alcotest.float 0.0) "large" 1e9 (Option.get (Tjson.num c))
  | _ -> Alcotest.fail "numbers array shape"

let () =
  Alcotest.run "report"
    [
      ( "tables",
        [
          Alcotest.test_case "impact summary regenerates" `Quick
            test_impact_summary_regenerates;
          Alcotest.test_case "module breakdown regenerates" `Quick
            test_module_breakdown_regenerates;
          Alcotest.test_case "scenario classes totals" `Quick
            test_scenario_classes_totals;
          Alcotest.test_case "top patterns listing" `Quick
            test_top_patterns_listing;
        ] );
      ( "json",
        [
          Alcotest.test_case "parses and identifies" `Quick
            test_json_parses_and_identifies;
          Alcotest.test_case "impact numbers round-trip" `Quick
            test_json_impact_numbers_round_trip;
          Alcotest.test_case "provenance for every module" `Quick
            test_json_provenance_for_every_module;
          Alcotest.test_case "patterns carry witnesses" `Quick
            test_json_patterns_carry_witnesses;
          Alcotest.test_case "deterministic" `Quick test_json_deterministic;
          Alcotest.test_case "disabled mode is bare" `Quick
            test_json_disabled_mode_is_bare;
          Alcotest.test_case "provenance changes no number" `Quick
            test_provenance_changes_no_number;
          Alcotest.test_case "run_report = composed path" `Quick
            test_run_report_equals_composed;
          Alcotest.test_case "run_scenario = composed path" `Quick
            test_run_scenario_equals_composed;
          Alcotest.test_case "run_report: the index dies with its pass" `Quick
            test_run_report_index_dies_with_pass;
          Alcotest.test_case "fold = resident run_report" `Quick
            test_fold_equals_resident;
          Alcotest.test_case "a fold's skeletons carry their keys" `Quick
            test_fold_skeletons_carry_keys;
          Alcotest.test_case "run_report drops a repeated stream id" `Quick
            test_run_report_drops_repeated_id;
          Alcotest.test_case "escaping round-trips" `Quick
            test_jsonw_escaping_round_trips;
        ] );
    ]
