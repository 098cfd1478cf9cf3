(* Tests for the continuous corpus monitor: replay determinism (equal
   manifests produce byte-identical alert logs and OpenMetrics
   expositions), significance-gated alerting (an injected CPU-starved
   delta drifts outside the baseline CI; a no-op tick is silent),
   absolute rules (parse failures, ingest lag), snapshot-cache reuse
   across ticks, and the exposition format itself. *)

module Corpus_gen = Dpworkload.Corpus_gen
module Codec_v2 = Dptrace.Codec_v2
module Monitor = Dpmon.Monitor
module Rules = Dpmon.Rules

let check = Alcotest.check

(* A framed file read whole. *)
let load path =
  fst (Codec_v2.fold path ~step:(fun _ -> Codec_v2.frame_stream) ~consume:Option.some)

(* --- sandboxed fixtures --- *)

let dir_ctr = ref 0

let fresh_dir () =
  incr dir_ctr;
  let dir = Printf.sprintf "monitor_%d" !dir_ctr in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Sys.mkdir dir 0o755;
  dir

let gen_save ?(scale = 0.12) ?(cross = true) ?cores ~seed path =
  let corpus =
    Corpus_gen.generate
      { Corpus_gen.default_config with seed; scale; cross_traffic = cross; cores }
  in
  Codec_v2.save path corpus

(* Two calm files establish the baseline, a CPU-starved file is the
   injected regression. Shared by several tests; built once per file. *)
let fixture =
  lazy
    (let dir = fresh_dir () in
     let p name = Filename.concat dir name in
     gen_save ~seed:1 ~cross:false (p "calm1.dpf");
     gen_save ~seed:2 ~cross:false (p "calm2.dpf");
     gen_save ~seed:9 ~cores:1 (p "slow.dpf");
     dir)

let write_file path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The regression manifest: calm baseline tick, injected-delta tick,
   no-op tick. *)
let regression_manifest dir =
  let mpath = Filename.concat dir "replay.manifest" in
  write_file mpath
    [
      "# injected-regression replay";
      "clock 1000";
      "add calm1.dpf";
      "add calm2.dpf";
      "tick";
      "clock +5000";
      "add slow.dpf";
      "tick";
      "clock +1000";
      "tick";
    ];
  mpath

let config ~dir ~tag =
  {
    Monitor.default_config with
    replicates = 40;
    alert_log = Some (Filename.concat dir (tag ^ ".jsonl"));
    metrics_out = Some (Filename.concat dir (tag ^ ".om"));
  }

let alerts_of_log path =
  read_file path |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match Tjson.parse l with
         | Tjson.Obj fields -> fields
         | _ -> Alcotest.fail "alert line should be a JSON object")

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let field fields name = List.assoc name fields
let num fields name =
  match field fields name with
  | Tjson.Num f -> f
  | _ -> Alcotest.failf "field %s should be a number" name
let str fields name =
  match field fields name with
  | Tjson.Str s -> s
  | _ -> Alcotest.failf "field %s should be a string" name

(* --- replay determinism --- *)

let test_replay_deterministic () =
  let fixture_dir = Lazy.force fixture in
  let manifest = regression_manifest fixture_dir in
  let dir = fresh_dir () in
  let run tag =
    let cfg = config ~dir ~tag in
    let s = Monitor.replay cfg ~manifest in
    ( s,
      read_file (Option.get cfg.Monitor.alert_log),
      read_file (Option.get cfg.Monitor.metrics_out) )
  in
  let s1, log1, om1 = run "one" in
  let s2, log2, om2 = run "two" in
  check Alcotest.string "alert logs byte-identical" log1 log2;
  check Alcotest.string "expositions byte-identical" om1 om2;
  check Alcotest.int "same tick count" s1.Monitor.r_ticks s2.Monitor.r_ticks;
  check Alcotest.int "same alert count" s1.Monitor.r_alerts s2.Monitor.r_alerts;
  check Alcotest.int "three ticks" 3 s1.Monitor.r_ticks;
  check Alcotest.int "three files" 3 s1.Monitor.r_files;
  check Alcotest.int "no parse failures" 0 s1.Monitor.r_parse_failures

(* --- alerting: injected regression fires, no-op is silent --- *)

let test_regression_alert () =
  let fixture_dir = Lazy.force fixture in
  let manifest = regression_manifest fixture_dir in
  let dir = fresh_dir () in
  let cfg = config ~dir ~tag:"alerts" in
  let s = Monitor.replay cfg ~manifest in
  check Alcotest.bool "alerts raised" true (s.Monitor.r_alerts > 0);
  let alerts = alerts_of_log (Option.get cfg.Monitor.alert_log) in
  (* Tick 1 establishes the baseline: no relative alerts. *)
  check Alcotest.int "baseline tick is silent" 0
    (List.length (List.filter (fun a -> num a "tick" = 1.0) alerts));
  (* Tick 2 carries the injected regression: exactly one CI drift on
     IA_wait, with the window's value outside the baseline interval. *)
  let drifts =
    List.filter (fun a -> str a "rule" = "ia_drift_wait") alerts
  in
  check Alcotest.int "exactly one ia_wait drift" 1 (List.length drifts);
  let d = List.hd drifts in
  check (Alcotest.float 1e-9) "on the delta tick" 2.0 (num d "tick");
  (match field d "data" with
  | Tjson.Obj data ->
    check Alcotest.string "drift metric" "ia_wait" (str data "metric");
    check Alcotest.bool "CI-separated" true
      (num data "value" > num data "hi" || num data "value" < num data "lo")
  | _ -> Alcotest.fail "drift data should be an object");
  (* Regressed-pattern claims carry a factor beyond the threshold. *)
  List.iter
    (fun a ->
      if str a "rule" = "pattern_regressed" then
        match field a "data" with
        | Tjson.Obj data ->
          check Alcotest.bool "factor beyond threshold" true
            (num data "factor" >= 1.5)
        | _ -> Alcotest.fail "pattern data should be an object")
    alerts;
  (* The no-op tick raises nothing. *)
  check Alcotest.int "no-op tick is silent" 0
    (List.length (List.filter (fun a -> num a "tick" = 3.0) alerts))

(* --- snapshot-cache reuse across ticks --- *)

let test_snapshot_reuse () =
  let fixture_dir = Lazy.force fixture in
  let dir = fresh_dir () in
  let t = Monitor.create (config ~dir ~tag:"reuse") in
  Fun.protect ~finally:(fun () -> Monitor.close t) @@ fun () ->
  Monitor.set_clock t 0;
  (match Monitor.ingest t ~mtime_ms:0 (Filename.concat fixture_dir "calm1.dpf") with
  | Ok () -> ()
  | Error e -> Alcotest.failf "ingest: %s" e);
  ignore (Monitor.tick t : Rules.alert list);
  (match Monitor.ingest t ~mtime_ms:0 (Filename.concat fixture_dir "calm2.dpf") with
  | Ok () -> ()
  | Error e -> Alcotest.failf "ingest: %s" e);
  ignore (Monitor.tick t : Rules.alert list);
  match Monitor.snapshot_stats t with
  | None -> Alcotest.fail "snapshot should exist after an analysed tick"
  | Some s ->
    check Alcotest.bool "warm tick reuses cached streams" true
      (s.Dpcore.Snapshot.s_hits > 0);
    check Alcotest.bool "new streams analysed" true
      (s.Dpcore.Snapshot.s_misses > 0)

(* A cached monitor holds one descriptor per open snapshot: each save
   swaps the file it reads for the one it wrote, so ten ticks of one
   fingerprint hold no more descriptors than the first. The file never
   changes after the first tick, so only that tick writes the cache
   file: every later save keeps its inode. *)
let test_cache_descriptors_bounded () =
  let fixture_dir = Lazy.force fixture in
  let dir = fresh_dir () in
  let cache = Filename.concat dir "cache" in
  let t =
    Monitor.create { (config ~dir ~tag:"fds") with Monitor.cache_dir = Some cache }
  in
  Fun.protect ~finally:(fun () -> Monitor.close t) @@ fun () ->
  Monitor.set_clock t 0;
  let ticks =
    List.init 10 (fun i ->
        (match Monitor.ingest t ~mtime_ms:i (Filename.concat fixture_dir "calm1.dpf") with
        | Ok () -> ()
        | Error e -> Alcotest.failf "ingest: %s" e);
        ignore (Monitor.tick t : Rules.alert list);
        let inode =
          match Dpcore.Snapshot.list_files cache with
          | [ path ] -> (Unix.stat path).Unix.st_ino
          | l -> Alcotest.failf "expected one cache file, got %d" (List.length l)
        in
        (Array.length (Sys.readdir "/proc/self/fd"), inode))
  in
  (match Monitor.snapshot_stats t with
  | Some s -> check Alcotest.bool "later ticks hit the cache file" true (s.Dpcore.Snapshot.s_hits > 0)
  | None -> Alcotest.fail "snapshot should exist after an analysed tick");
  let open_fds = List.map fst ticks in
  check Alcotest.int "no descriptor gained over ten ticks" (List.hd open_fds)
    (List.fold_left max 0 open_fds);
  (* A rewrite renames a new file over the one still linked, so it
     always changes the inode. *)
  let rec rewrites = function
    | a :: (b :: _ as rest) -> Bool.to_int (a <> b) + rewrites rest
    | _ -> 0
  in
  check Alcotest.int "the cache file written once, at the first tick" 0
    (rewrites (List.map snd ticks))

(* --- absolute rules: parse failure and ingest lag --- *)

let test_parse_failure_and_lag () =
  let fixture_dir = Lazy.force fixture in
  let dir = fresh_dir () in
  let bad = Filename.concat dir "garbage.dpf" in
  write_file bad [ "this is not a corpus" ];
  let t = Monitor.create (config ~dir ~tag:"abs") in
  Fun.protect ~finally:(fun () -> Monitor.close t) @@ fun () ->
  Monitor.set_clock t 0;
  (match Monitor.ingest t ~mtime_ms:0 (Filename.concat fixture_dir "calm1.dpf") with
  | Ok () -> ()
  | Error e -> Alcotest.failf "ingest: %s" e);
  (match Monitor.ingest t ~mtime_ms:0 bad with
  | Ok () -> Alcotest.fail "garbage should not load"
  | Error _ -> ());
  let alerts = Monitor.tick t in
  check Alcotest.int "one parse-failure alert" 1
    (List.length
       (List.filter (fun a -> a.Rules.a_rule = "parse_failure") alerts));
  (* Advance past the lag limit with nothing arriving. *)
  Monitor.advance_clock t 120_000;
  let alerts = Monitor.tick t in
  check Alcotest.int "ingest-lag alert" 1
    (List.length (List.filter (fun a -> a.Rules.a_rule = "ingest_lag") alerts));
  check Alcotest.int "stale parse failure not re-raised" 0
    (List.length
       (List.filter (fun a -> a.Rules.a_rule = "parse_failure") alerts))

(* --- scan: new and changed files only --- *)

let test_scan_incremental () =
  let dir = fresh_dir () in
  gen_save ~seed:1 ~scale:0.05 ~cross:false (Filename.concat dir "a.dpf");
  gen_save ~seed:2 ~scale:0.05 ~cross:false (Filename.concat dir "b.dpf");
  let t = Monitor.create { Monitor.default_config with replicates = 10 } in
  Fun.protect ~finally:(fun () -> Monitor.close t) @@ fun () ->
  check Alcotest.int "first scan loads both" 2 (Monitor.scan t dir);
  check Alcotest.int "second scan loads nothing" 0 (Monitor.scan t dir);
  (* A rewrite (different size) is picked up. *)
  gen_save ~seed:3 ~scale:0.06 ~cross:false (Filename.concat dir "b.dpf");
  check Alcotest.int "changed file reloads" 1 (Monitor.scan t dir)

(* --- a sliding window forgets --- *)

(* Window 2 over four files arriving one per tick: from the third tick
   on, one file leaves the window each tick, and the snapshot counts
   exactly that file's streams stale, then drops them. A file that left
   keeps its scan bookkeeping, so it is not loaded again. *)
let test_window_forgets () =
  let dir = fresh_dir () in
  let t =
    Monitor.create { Monitor.default_config with window = 2; replicates = 10 }
  in
  Fun.protect ~finally:(fun () -> Monitor.close t) @@ fun () ->
  Monitor.set_clock t 0;
  let stale = Dpobs.Metrics.counter "snapshot.stale" in
  let streams = ref [] in
  for i = 1 to 4 do
    let path = Filename.concat dir (Printf.sprintf "w%d.dpf" i) in
    gen_save ~seed:(20 + i) ~scale:0.03 ~cross:false path;
    streams :=
      !streams @ [ Dptrace.Corpus.stream_count (load path) ];
    check Alcotest.int (Printf.sprintf "scan %d loads the new file" i) 1
      (Monitor.scan t dir);
    let before = Dpobs.Metrics.counter_value stale in
    ignore (Monitor.tick t : Rules.alert list);
    check Alcotest.int
      (Printf.sprintf "tick %d: stale = the streams of the file that left" i)
      (if i > 2 then List.nth !streams (i - 3) else 0)
      (Dpobs.Metrics.counter_value stale - before);
    match Monitor.snapshot_stats t with
    | Some s -> check Alcotest.int "and none is kept" 0 s.Dpcore.Snapshot.s_stale
    | None -> Alcotest.fail "snapshot should exist after an analysed tick"
  done;
  check Alcotest.int "files out of the window are not reloaded" 0
    (Monitor.scan t dir)

(* --- the window's numbers, against a resident-corpus oracle --- *)

(* A window's resident corpus, as the monitor once kept it: its files
   loaded whole, oldest first, streams concatenated, each under the
   window id the monitor gives it when each file was folded once, in
   this order, the first spec of each name winning. *)
let resident_window ~mode paths =
  let corpora =
    List.map
      (fun path ->
        match Dptrace.Corpus_dir.load ~mode path with
        | Ok l -> l.Dptrace.Corpus_dir.l_corpus
        | Error e -> Alcotest.failf "load %s: %s" path e)
      paths
  in
  let specs =
    List.fold_left
      (fun acc (s : Dptrace.Scenario.spec) ->
        if List.exists (fun (s' : Dptrace.Scenario.spec) -> s'.name = s.name) acc then acc
        else acc @ [ s ])
      []
      (List.concat_map (fun (c : Dptrace.Corpus.t) -> c.Dptrace.Corpus.specs) corpora)
  in
  Dptrace.Corpus.create
    ~streams:
      (List.concat_map (fun (c : Dptrace.Corpus.t) -> c.Dptrace.Corpus.streams) corpora
      |> List.mapi (fun i st -> Dptrace.Stream.with_id st i))
    ~specs

(* The gauges an analysed tick sets, as Pipeline.run_report over the
   resident corpus of the window's files gives them. *)
let check_gauges ~what (cfg : Monitor.config) paths =
  let module M = Dpobs.Metrics in
  let corpus = resident_window ~mode:cfg.Monitor.mode paths in
  let report = Dpcore.Pipeline.run_report ~k:cfg.Monitor.k cfg.Monitor.components corpus in
  let gauge name = M.gauge_value (M.gauge name) in
  check Alcotest.int (what ^ ": window_files") (List.length paths)
    (gauge "monitor.window_files");
  check Alcotest.int (what ^ ": window_streams") (Dptrace.Corpus.stream_count corpus)
    (gauge "monitor.window_streams");
  check Alcotest.int (what ^ ": window_instances") (Dptrace.Corpus.instance_count corpus)
    (gauge "monitor.window_instances");
  check Alcotest.bool (what ^ ": some scenario rows") true
    (report.Dpcore.Pipeline.per_scenario <> []);
  List.iter
    (fun (scn, r) ->
      check Alcotest.int
        (Printf.sprintf "%s: %s ia_wait ppm" what scn)
        (int_of_float ((Dpcore.Impact.ia_wait r *. 1e6) +. 0.5))
        (gauge (M.labelled "monitor.scenario_ia_wait_ppm" [ ("scenario", scn) ])))
    report.Dpcore.Pipeline.per_scenario

(* Flip four bytes in the middle of a file: one stream frame fails its
   checksum. *)
let damage path =
  let data = Bytes.of_string (read_file path) in
  Bytes.blit_string "\xff\xff\xff\xff" 0 data (Bytes.length data / 2) 4;
  let oc = open_out_bin path in
  output_bytes oc data;
  close_out oc

(* Window 2, under [`Recover]: a file with a damaged frame, a file whose
   specs change the window's spec set after the next file's ingest (so
   the tick folds that file again under the new specs), a changed file
   ingested again, and a file rewritten before its second fold. After
   every analysed tick the window gauges equal the resident oracle's. *)
let test_window_oracle () =
  let dir = fresh_dir () in
  let p name = Filename.concat dir name in
  let gen ?(scale = 0.04) seed =
    Corpus_gen.generate
      { Corpus_gen.default_config with seed; scale; cross_traffic = false }
  in
  Codec_v2.save (p "a.dpf") (gen 31);
  Codec_v2.save (p "b.dpf") (gen 32);
  (* c's first spec is slower than everyone else's. *)
  (let c = gen 33 in
   let specs =
     match c.Dptrace.Corpus.specs with
     | s :: rest -> { s with Dptrace.Scenario.tslow = s.Dptrace.Scenario.tslow * 2 } :: rest
     | [] -> Alcotest.fail "fixture has no spec"
   in
   Codec_v2.save (p "c.dpf") (Dptrace.Corpus.create ~streams:c.Dptrace.Corpus.streams ~specs));
  Codec_v2.save (p "d.dpf") (gen 34);
  damage (p "d.dpf");
  (match Dptrace.Corpus_dir.load ~mode:`Recover (p "d.dpf") with
  | Ok { Dptrace.Corpus_dir.l_report = Some { Codec_v2.dropped = _ :: _; _ }; _ } -> ()
  | _ -> Alcotest.fail "d.dpf should recover with a dropped frame");
  let cfg = { Monitor.default_config with window = 2; replicates = 10; mode = `Recover } in
  let specs_of paths = (resident_window ~mode:`Recover paths).Dptrace.Corpus.specs in
  check Alcotest.bool "c's ingest and the next tick see different specs" true
    (specs_of [ p "b.dpf"; p "c.dpf" ] <> specs_of [ p "c.dpf"; p "d.dpf" ]);
  let t = Monitor.create cfg in
  Fun.protect ~finally:(fun () -> Monitor.close t) @@ fun () ->
  Monitor.set_clock t 0;
  let ingest name =
    match Monitor.ingest t ~mtime_ms:(Monitor.now_ms t) (p name) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "ingest %s: %s" name e
  in
  let frames_read = Dpobs.Metrics.counter "codec_v2.frames_read" in
  (* A tick, with the frames it read from disk. *)
  let tick () =
    let before = Dpobs.Metrics.counter_value frames_read in
    ignore (Monitor.tick t : Rules.alert list);
    Dpobs.Metrics.counter_value frames_read - before
  in
  ingest "a.dpf";
  ingest "b.dpf";
  check Alcotest.int "tick 1 reads nothing" 0 (tick ());
  check_gauges ~what:"tick 1" cfg [ p "a.dpf"; p "b.dpf" ];
  ingest "c.dpf";
  ingest "d.dpf";
  check Alcotest.bool "tick 2 folds c again" true (tick () > 0);
  check_gauges ~what:"tick 2" cfg [ p "c.dpf"; p "d.dpf" ];
  Codec_v2.save (p "b.dpf") (gen ~scale:0.05 35);
  ingest "b.dpf";
  check Alcotest.bool "tick 3 folds d again" true (tick () > 0);
  check_gauges ~what:"tick 3" cfg [ p "d.dpf"; p "b.dpf" ];
  (* c joins under b's specs and must be folded again under its own once
     a joins, but it was rewritten meanwhile: it leaves the window. *)
  ingest "c.dpf";
  ingest "a.dpf";
  Codec_v2.save (p "c.dpf") (gen 36);
  check Alcotest.bool "tick 4 tries c again" true (tick () > 0);
  check_gauges ~what:"tick 4" cfg [ p "a.dpf" ];
  check Alcotest.int "a no-op tick reads nothing" 0 (tick ())

(* --- a window of twins: one file under two names --- *)

(* A window holding one file twice, under two names: the copies share
   every stream id of their file, so each window stream is known by its
   window id, and its entry is absorbed under it. With provenance on,
   each copy's witnesses keep their own ids, and the window's report is
   byte for byte a composition over the hash-table oracle under those
   ids: each scenario's class forests rebuilt per stream by
   [Awg_reference], merged in window order by the reference
   accumulator, and mined by [Mining_reference] with those witnesses.
   That holds for the resident window, for the window's entries folded
   from each file as an ingest folds them, and for the patterns the
   tick mined. *)
let test_twin_files_keep_witnesses () =
  let dir = fresh_dir () in
  let p = Filename.concat dir in
  gen_save ~seed:43 ~scale:0.05 (p "a.dpf");
  let oc = open_out_bin (p "b.dpf") in
  output_string oc (read_file (p "a.dpf"));
  close_out oc;
  let paths = [ p "a.dpf"; p "b.dpf" ] in
  Dpcore.Provenance.enable ();
  Fun.protect ~finally:Dpcore.Provenance.disable @@ fun () ->
  let cfg = { Monitor.default_config with replicates = 10 } in
  let t = Monitor.create cfg in
  let ticked =
    Fun.protect ~finally:(fun () -> Monitor.close t) (fun () ->
        Monitor.set_clock t 0;
        check Alcotest.int "both copies ingested" 2 (Monitor.scan t dir);
        ignore (Monitor.tick t : Rules.alert list);
        Monitor.patterns t)
  in
  check_gauges ~what:"twins" cfg paths;
  let corpus = resident_window ~mode:cfg.Monitor.mode paths in
  let components = cfg.Monitor.components and k = cfg.Monitor.k in
  let streams = corpus.Dptrace.Corpus.streams in
  let doc (r : Dpcore.Pipeline.report) =
    Dputil.Jsonw.to_string
      (Dpcore.Report.Json.document ~impact:r.impact ~impact_prov:r.impact_prov
         ~modules:r.modules ~scenarios:r.scenarios ())
  in
  let resident = Dpcore.Pipeline.run_report ~k components corpus in
  (* Each file's entries as its ingest folds them, stepped under the ids
     of its own frames. *)
  let entries =
    let snap =
      Dpcore.Snapshot.create
        ~fingerprint:
          (Dpcore.Snapshot.fingerprint ~components ~specs:corpus.Dptrace.Corpus.specs ~k ())
        ()
    in
    List.concat_map
      (fun path ->
        let entries = ref [] in
        (match
           Dptrace.Corpus_dir.fold ~mode:cfg.Monitor.mode
             ~step:(fun specs f -> Dpcore.Snapshot.lookup_or_step snap components ~specs f)
             ~consume:(fun (e, skeleton) ->
               entries := e :: !entries;
               Some skeleton)
             path
         with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "fold %s: %s" path e);
        List.rev !entries)
      paths
  in
  let window = Dpcore.Pipeline.run_report_entries ~k corpus entries in
  (* The reference forest of one class of [name]: each stream's class
     graphs, in instance order, merged stream by stream. *)
  let forest spec name cls =
    let merged = Hashtbl.create 64 in
    List.iter
      (fun (st : Dptrace.Stream.t) ->
        let index = Dptrace.Stream.index st in
        let graphs =
          List.filter_map
            (fun (i : Dptrace.Scenario.instance) ->
              if i.scenario = name && Dptrace.Scenario.classify spec i = cls then
                Some (Dpwaitgraph.Wait_graph.build ~index st i)
              else None)
            st.Dptrace.Stream.instances
        in
        Awg_reference.absorb merged (Awg_reference.partial components graphs))
      streams;
    merged
  in
  let scenarios =
    List.map
      (fun (name, (sc : Dpcore.Pipeline.scenario_result)) ->
        let spec = sc.classification.Dpcore.Classify.spec in
        let fast = Awg_reference.witness_table sc.fast_awg (forest spec name Fast)
        and slow = Awg_reference.witness_table sc.slow_awg (forest spec name Slow) in
        let witnesses n =
          match Awg_reference.Nodes.find_opt fast n with
          | Some w -> w
          | None -> Awg_reference.Nodes.find slow n
        in
        ( name,
          { sc with
            mining =
              Mining_reference.mine ~k ~witnesses ~fast:sc.fast_awg ~slow:sc.slow_awg ~spec ()
          } ))
      resident.scenarios
  in
  let composed = doc { resident with scenarios } in
  check Alcotest.string "resident window = reference composition" composed (doc resident);
  check Alcotest.string "window entries = reference composition" composed (doc window);
  let rendered patterns =
    List.map
      (fun (name, ps) ->
        ( name,
          List.mapi
            (fun i pat -> Dputil.Jsonw.to_string (Dpcore.Report.Json.of_pattern ~rank:(i + 1) pat))
            ps ))
      patterns
  in
  check
    Alcotest.(list (pair string (list string)))
    "the tick's patterns = reference composition"
    (rendered
       (List.map
          (fun (name, (sc : Dpcore.Pipeline.scenario_result)) ->
            (name, sc.mining.Dpcore.Mining.patterns))
          scenarios))
    (rendered ticked);
  (* A copy's witnesses name its own streams: the first copy's ids are
     below the second's. *)
  let copy = List.length streams / 2 in
  let ids =
    List.concat_map
      (fun (_, ps) ->
        List.concat_map
          (fun (pat : Dpcore.Mining.pattern) ->
            List.map
              (fun ((r : Dpcore.Provenance.instance_ref), _, _) -> r.stream_id)
              (Dpcore.Provenance.Wset.entries pat.witnesses))
          ps)
      ticked
  in
  check Alcotest.bool "witnesses from both copies" true
    (List.exists (fun id -> id < copy) ids && List.exists (fun id -> id >= copy) ids)

(* A view bundle reads its exemplars' events back from the window's
   files, by content key. A file rewritten on disk since its ingest no
   longer holds the class streams the window analysed, so each alerted
   scenario gets no bundle and one warning naming it, while the alerts
   and the window's gauges are those of a run without views; with the
   files intact, every scenario alert carries its bundle. *)
let test_changed_file_gets_no_view () =
  let fixture_dir = Lazy.force fixture in
  let run ~views ~rewrite =
    let dir = fresh_dir () in
    let copy name =
      let path = Filename.concat dir name in
      let oc = open_out_bin path in
      output_string oc (read_file (Filename.concat fixture_dir name));
      close_out oc;
      path
    in
    let paths = List.map copy [ "calm1.dpf"; "calm2.dpf"; "slow.dpf" ] in
    let vdir = Filename.concat dir "views" in
    let cfg = config ~dir ~tag:"views" in
    let t = Monitor.create { cfg with view_dir = (if views then Some vdir else None) } in
    Fun.protect ~finally:(fun () -> Monitor.close t) @@ fun () ->
    Monitor.set_clock t 0;
    let ingest path =
      match Monitor.ingest t ~mtime_ms:0 path with
      | Ok () -> ()
      | Error e -> Alcotest.failf "ingest: %s" e
    in
    List.iter ingest [ List.nth paths 0; List.nth paths 1 ];
    ignore (Monitor.tick t : Rules.alert list);
    ingest (List.nth paths 2);
    if rewrite then
      List.iter (fun path -> gen_save ~seed:77 ~scale:0.05 ~cross:false path)
        [ List.nth paths 0; List.nth paths 1 ];
    let warnings = ref [] in
    Dputil.Logf.set_sink (fun level msg ->
        if level = Dputil.Logf.Warn
           && String.starts_with ~prefix:"monitor: no view bundle" msg
        then warnings := msg :: !warnings);
    let alerts =
      Fun.protect
        ~finally:(fun () ->
          Dputil.Logf.set_sink (fun l m ->
              Printf.eprintf "driveperf: %s: %s\n%!" (Dputil.Logf.level_name l) m))
        (fun () -> Monitor.tick t)
    in
    let gauges =
      String.split_on_char '\n' (read_file (Option.get cfg.Monitor.metrics_out))
      |> List.filter (fun l ->
             String.starts_with ~prefix:"monitor_window" l
             || String.starts_with ~prefix:"monitor_scenario_ia_wait_ppm" l)
    in
    let bundles = if Sys.file_exists vdir then Array.length (Sys.readdir vdir) else 0 in
    (alerts, gauges, List.rev !warnings, bundles)
  in
  let alerts, gauges, warnings, bundles = run ~views:true ~rewrite:true in
  let plain, plain_gauges, _, _ = run ~views:false ~rewrite:false in
  let scenarios =
    List.sort_uniq compare (List.filter_map (fun a -> a.Rules.a_scenario) alerts)
  in
  check Alcotest.bool "scenario alerts raised" true (scenarios <> []);
  check Alcotest.bool "none carries a view" true
    (List.for_all (fun a -> a.Rules.a_view = None) alerts);
  check Alcotest.int "no bundle written" 0 bundles;
  check
    Alcotest.(list string)
    "one warning per alerted scenario"
    (List.map (Printf.sprintf "monitor: no view bundle for %s") scenarios)
    (List.map (fun w -> String.sub w 0 (String.rindex w ':')) warnings);
  check Alcotest.bool "each names a file changed since it was read" true
    (List.for_all (String.ends_with ~suffix:" changed since it was read") warnings);
  check Alcotest.bool "the alerts of a run without views" true (alerts = plain);
  check Alcotest.(list string) "the gauges of a run without views" plain_gauges gauges;
  check Alcotest.bool "gauges exposed" true (gauges <> []);
  let intact, _, _, _ = run ~views:true ~rewrite:false in
  check Alcotest.bool "intact files: every scenario alert has its bundle" true
    (List.for_all (fun a -> (a.Rules.a_scenario = None) = (a.Rules.a_view = None)) intact)

(* --- bounded memory: the window keeps skeletons and entries --- *)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* Window 2 over six files: once a tick is done, what the monitor keeps
   live is under half of what one of those files takes loaded whole. *)
let test_window_memory () =
  let dir = fresh_dir () in
  let paths =
    List.init 6 (fun i ->
        let path = Filename.concat dir (Printf.sprintf "m%d.dpf" i) in
        gen_save ~seed:(60 + i) ~scale:0.1 ~cross:false path;
        path)
  in
  let resident =
    let base = live_words () in
    let corpus = load (List.hd paths) in
    let words = live_words () - base in
    ignore (Sys.opaque_identity corpus);
    words
  in
  let base = live_words () in
  let t = Monitor.create { Monitor.default_config with window = 2; replicates = 10 } in
  Fun.protect ~finally:(fun () -> Monitor.close t) @@ fun () ->
  Monitor.set_clock t 0;
  List.iteri
    (fun i path ->
      (match Monitor.ingest t ~mtime_ms:i path with
      | Ok () -> ()
      | Error e -> Alcotest.failf "ingest: %s" e);
      ignore (Monitor.tick t : Rules.alert list);
      let kept = live_words () - base in
      if kept >= resident / 2 then
        Alcotest.failf "tick %d: %d live words kept, one file loaded whole takes %d"
          (i + 1) kept resident)
    paths;
  ignore (Sys.opaque_identity t)

(* --- the OpenMetrics exposition --- *)

let test_openmetrics_exposition () =
  let fixture_dir = Lazy.force fixture in
  let manifest = regression_manifest fixture_dir in
  let dir = fresh_dir () in
  let cfg = config ~dir ~tag:"om" in
  ignore (Monitor.replay cfg ~manifest : Monitor.replay_summary);
  let om = read_file (Option.get cfg.Monitor.metrics_out) in
  let has s = contains om s in
  check Alcotest.bool "ends with EOF marker" true
    (String.length om > 6
    && String.sub om (String.length om - 6) 6 = "# EOF\n");
  check Alcotest.bool "ticks counter" true (has "monitor_ticks_total 3");
  check Alcotest.bool "files counter" true
    (has "monitor_files_ingested_total 3");
  check Alcotest.bool "streams counter" true
    (has "# TYPE monitor_streams_ingested counter");
  check Alcotest.bool "alerts by rule" true
    (has "monitor_alerts_total{rule=\"ia_drift_wait\"} 1");
  check Alcotest.bool "lag gauge typed" true
    (has "# TYPE monitor_ingest_lag_ms gauge");
  check Alcotest.bool "tick duration quantiles" true
    (has "monitor_tick_duration{quantile=\"0.99\"}");
  check Alcotest.bool "tick duration count" true
    (has "monitor_tick_duration_count 3");
  check Alcotest.bool "virtual durations are zero" true
    (has "monitor_tick_duration_sum 0.0");
  check Alcotest.bool "per-scenario gauge labelled" true
    (has "monitor_scenario_ia_wait_ppm{scenario=\"AppLaunch\"}");
  check Alcotest.bool "help text survives" true
    (has "# HELP monitor_ticks Ingest ticks run")

(* --- manifest errors --- *)

let test_manifest_errors () =
  let dir = fresh_dir () in
  let mpath = Filename.concat dir "bad.manifest" in
  write_file mpath [ "clock 0"; "frobnicate now" ];
  (match Monitor.replay (config ~dir ~tag:"bad") ~manifest:mpath with
  | exception Failure msg ->
    check Alcotest.bool "names the line" true (contains msg ":2:")
  | _ -> Alcotest.fail "malformed manifest should raise");
  match Monitor.replay (config ~dir ~tag:"absent") ~manifest:"no/such/file" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unreadable manifest should raise"

(* --- churn: injected stat races, flaky tails, injected latency --- *)

let with_plan spec f =
  match Dpfault.parse spec with
  | Error msg -> Alcotest.failf "parse %S: %s" spec msg
  | Ok plan ->
    Dpfault.install plan;
    Fun.protect ~finally:Dpfault.clear f

(* Transient EINTRs on the tail re-read and races on the stat, all under
   the default retry budget: every injection is absorbed, so the whole
   replay — alert log and OpenMetrics exposition — stays byte-identical
   to a fault-free run. No alert is lost, none is duplicated. *)
let test_flaky_tail_replay_identical () =
  let fixture_dir = Lazy.force fixture in
  let manifest = regression_manifest fixture_dir in
  let dir = fresh_dir () in
  let run tag spec =
    let cfg = config ~dir ~tag in
    let go () =
      ignore (Monitor.replay cfg ~manifest : Monitor.replay_summary)
    in
    (match spec with None -> go () | Some s -> with_plan s go);
    ( read_file (Option.get cfg.Monitor.alert_log),
      read_file (Option.get cfg.Monitor.metrics_out) )
  in
  let log0, om0 = run "clean" None in
  let log1, om1 =
    run "flaky" (Some "7:monitor.tail=eintr@0.3,monitor.stat=race@0.3")
  in
  check Alcotest.string "alert log byte-identical under churn" log0 log1;
  check Alcotest.string "exposition byte-identical under churn" om0 om1

(* Injected latency (the slow-disk preset): the virtual clock ignores
   wall-time stalls, and a reinstalled plan replays the same schedule, so
   two slow-disk replays match each other and the fault-free log. *)
let test_slow_disk_replay_deterministic () =
  let fixture_dir = Lazy.force fixture in
  let manifest = regression_manifest fixture_dir in
  let dir = fresh_dir () in
  let run tag spec =
    let cfg = config ~dir ~tag in
    let go () =
      ignore (Monitor.replay cfg ~manifest : Monitor.replay_summary)
    in
    (match spec with None -> go () | Some s -> with_plan s go);
    read_file (Option.get cfg.Monitor.alert_log)
  in
  let clean = run "lat-clean" None in
  let slow1 = run "lat-one" (Some "3:slow-disk") in
  let slow2 = run "lat-two" (Some "3:slow-disk") in
  check Alcotest.string "slow-disk replays match each other" slow1 slow2;
  check Alcotest.string "latency never changes the alerts" clean slow1

(* --- sinks: a failed write fails alone --- *)

(* The regression replay and two more no-op ticks: five in all. *)
let five_tick_manifest dir =
  let mpath = Filename.concat dir "five.manifest" in
  write_file mpath
    [
      "clock 1000";
      "add calm1.dpf";
      "add calm2.dpf";
      "tick";
      "clock +5000";
      "add slow.dpf";
      "tick";
      "clock +1000";
      "tick";
      "clock +1000";
      "tick";
      "clock +1000";
      "tick";
    ];
  mpath

(* Half of the monitor's sink writes fail, or tear, at the
   [monitor.write] site (its default retry budget is never spent: a
   sink does not retry within a tick). The replay still runs all five
   ticks and logs the clean replay's alert lines; each failing sink
   warns once per run of failures; the alert log holds only whole
   lines, each one the clean log has, but for the view of an alert
   whose bundle failed. *)
let test_sink_failures_survived () =
  let fixture_dir = Lazy.force fixture in
  let manifest = five_tick_manifest fixture_dir in
  let dir = fresh_dir () in
  let run tag spec =
    let cfg =
      { (config ~dir ~tag) with view_dir = Some (Filename.concat dir "views") }
    in
    let warnings = ref [] in
    Dputil.Logf.set_sink (fun level msg ->
        if level = Dputil.Logf.Warn then warnings := msg :: !warnings);
    let replay () = Monitor.replay cfg ~manifest in
    let s =
      Fun.protect
        ~finally:(fun () ->
          Dputil.Logf.set_sink (fun l m ->
              Printf.eprintf "driveperf: %s: %s\n%!" (Dputil.Logf.level_name l) m))
        (fun () -> match spec with None -> replay () | Some spec -> with_plan spec replay)
    in
    (s, List.rev !warnings, read_file (Option.get cfg.Monitor.alert_log))
  in
  let clean, clean_warnings, clean_log = run "sinks-clean" None in
  let alert_lines = List.filter (String.starts_with ~prefix:"monitor: [") in
  (* A line without its view, which a failed bundle leaves out: it is
     last, so the line is cut there and closed. *)
  let unviewed l =
    let key = ",\"view\":" in
    let n = String.length key in
    let rec at i =
      if i + n > String.length l then l
      else if String.sub l i n = key then String.sub l 0 i ^ "}"
      else at (i + 1)
    in
    at 0
  in
  let log_lines log =
    List.filter_map
      (fun l -> if l = "" then None else Some (unviewed l))
      (String.split_on_char '\n' log)
  in
  check Alcotest.int "the clean replay runs five ticks" 5 clean.Monitor.r_ticks;
  check Alcotest.bool "and raises alerts" true (alert_lines clean_warnings <> []);
  List.iter
    (fun (spec, tag) ->
      let s, warnings, log = run tag (Some spec) in
      check Alcotest.int (spec ^ ": every tick runs") 5 s.Monitor.r_ticks;
      check Alcotest.(list string) (spec ^ ": the clean alert lines")
        (alert_lines clean_warnings) (alert_lines warnings);
      let failed = List.filter (fun w -> contains w "write failed") warnings in
      check Alcotest.bool (spec ^ ": a write failed") true (failed <> []);
      List.iter
        (fun l ->
          if not (List.mem l (log_lines clean_log)) then
            Alcotest.failf "%s: alert log line %S is not the clean log's" spec l)
        (log_lines log);
      check Alcotest.bool (spec ^ ": the log ends with a whole line") true
        (log = "" || log.[String.length log - 1] = '\n'))
    [ ("3:monitor.write=fail@0.5", "sinks-fail"); ("4:monitor.write=torn@0.5", "sinks-torn") ]

(* An alert log shortened by other hands after a failed write: the
   reopened log counts its whole writes from what is left, so a torn
   write after it is still cut back at the next reopen, and no partial
   line stays. A log removed after a failed write stays gone at
   [close]. *)
let test_shortened_log_cut_back () =
  let fixture_dir = Lazy.force fixture in
  let dir = fresh_dir () in
  let cfg = config ~dir ~tag:"shortened" in
  let log = Option.get cfg.Monitor.alert_log in
  let t = Monitor.create ~fresh_log:true cfg in
  Monitor.set_clock t 1000;
  let add path = ignore (Monitor.ingest t ~mtime_ms:(Monitor.now_ms t) path : (unit, string) result) in
  (* A file that fails to load: the next tick raises a parse_failure
     alert, so that tick writes the log. *)
  let garbage name =
    let path = Filename.concat dir name in
    write_file path [ "this is not a corpus" ];
    add path
  in
  let tick ?plan () =
    Monitor.advance_clock t 1000;
    let alerts =
      match plan with None -> Monitor.tick t | Some p -> with_plan p (fun () -> Monitor.tick t)
    in
    check Alcotest.bool "the tick raises alerts" true (alerts <> [])
  in
  List.iter (fun f -> add (Filename.concat fixture_dir f)) [ "calm1.dpf"; "calm2.dpf" ];
  Monitor.advance_clock t 1000;
  ignore (Monitor.tick t : Rules.alert list);
  add (Filename.concat fixture_dir "slow.dpf");
  tick ();
  let first = List.hd (String.split_on_char '\n' (read_file log)) ^ "\n" in
  check Alcotest.bool "the log holds more than one line" true
    (String.length (read_file log) > String.length first);
  garbage "a.dpf";
  tick ~plan:"1:monitor.write=fail@1" ();
  write_file log [ String.sub first 0 (String.length first - 1) ];
  garbage "b.dpf";
  tick ~plan:"1:monitor.write=torn@1" ();
  garbage "c.dpf";
  tick ();
  (match String.split_on_char '\n' (read_file log) with
  | [ l1; l2; "" ] ->
    check Alcotest.string "the torn line is cut back" first (l1 ^ "\n");
    check Alcotest.bool "and the next line is whole" true
      (String.starts_with ~prefix:"{\"tick\":5," l2 && contains l2 "c.dpf")
  | lines -> Alcotest.failf "the log has %d lines, not two whole ones" (List.length lines - 1));
  garbage "d.dpf";
  tick ~plan:"1:monitor.write=fail@1" ();
  Sys.remove log;
  Monitor.close t;
  check Alcotest.bool "close makes no log that is gone" false (Sys.file_exists log)

(* Stat races during directory scans: the failed-file bookkeeping keeps
   its stats through retries, so a garbage file is alerted on exactly
   once and not re-ingested until it actually changes — then its rewrite
   is picked up like any rotation. *)
let test_scan_under_stat_races () =
  let dir = fresh_dir () in
  gen_save ~seed:1 ~scale:0.05 ~cross:false (Filename.concat dir "a.dpf");
  let garbage = Filename.concat dir "b.dpf" in
  write_file garbage [ "this is not a corpus" ];
  let t = Monitor.create { Monitor.default_config with replicates = 10 } in
  Fun.protect ~finally:(fun () -> Monitor.close t) @@ fun () ->
  Monitor.set_clock t 0;
  with_plan "9:monitor.stat=race@0.4" @@ fun () ->
  check Alcotest.int "first scan ingests both" 2 (Monitor.scan t dir);
  let parse_failures alerts =
    List.length
      (List.filter (fun a -> a.Rules.a_rule = "parse_failure") alerts)
  in
  check Alcotest.int "garbage alerted once" 1 (parse_failures (Monitor.tick t));
  check Alcotest.int "no duplicate ingestion" 0 (Monitor.scan t dir);
  check Alcotest.int "no duplicate alert" 0 (parse_failures (Monitor.tick t));
  (* Rotation: the bad file is rewritten with real data; the change is
     seen through the races and the alert is not re-raised. *)
  gen_save ~seed:3 ~scale:0.06 ~cross:false garbage;
  check Alcotest.int "rotated file reloads" 1 (Monitor.scan t dir);
  check Alcotest.int "recovery is silent" 0 (parse_failures (Monitor.tick t))

(* A tail whose retry budget exhausts degrades into the parse-failure
   path — counted, alerted once — and recovers on the next clean read. *)
let test_tail_exhaustion_recovers () =
  let fixture_dir = Lazy.force fixture in
  let dir = fresh_dir () in
  let t = Monitor.create (config ~dir ~tag:"exhaust") in
  Fun.protect ~finally:(fun () -> Monitor.close t) @@ fun () ->
  Monitor.set_clock t 0;
  let calm = Filename.concat fixture_dir "calm1.dpf" in
  with_plan "5:monitor.tail=fail@1.0!2" (fun () ->
      match Monitor.ingest t ~mtime_ms:0 calm with
      | Ok () -> Alcotest.fail "exhausted tail must not load"
      | Error msg ->
        check Alcotest.bool "error names the injection" true
          (contains msg "injected" && contains msg "monitor.tail"));
  let alerts = Monitor.tick t in
  check Alcotest.int "one parse-failure alert" 1
    (List.length
       (List.filter (fun a -> a.Rules.a_rule = "parse_failure") alerts));
  (* Plan disarmed: the retry-on-change path reloads the file cleanly. *)
  (match Monitor.ingest t ~mtime_ms:1 calm with
  | Ok () -> ()
  | Error e -> Alcotest.failf "clean re-read failed: %s" e);
  let alerts = Monitor.tick t in
  check Alcotest.int "no stale alert after recovery" 0
    (List.length
       (List.filter (fun a -> a.Rules.a_rule = "parse_failure") alerts))

(* --- peers: a misbehaving scraper cannot stall or kill the loop --- *)

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close s) @@ fun () ->
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  match Unix.getsockname s with
  | Unix.ADDR_INET (_, port) -> port
  | _ -> Alcotest.fail "no port bound"

(* Connects, retrying until the listener is up or [deadline] passes.
   [rcvbuf] sets the receive buffer before connecting, so it also bounds
   the window the server may fill. *)
let connect ?rcvbuf ~port ~deadline () =
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let rec go () =
    let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Option.iter (Unix.setsockopt_int s Unix.SO_RCVBUF) rcvbuf;
    match Unix.connect s addr with
    | () -> s
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _)
      when Unix.gettimeofday () < deadline ->
      Unix.close s;
      Unix.sleepf 0.01;
      go ()
  in
  go ()

(* Waits until [deadline] for the server to answer and close, then hangs
   up. Returns what the server sent. *)
let read_answer s ~deadline =
  Fun.protect ~finally:(fun () -> Unix.close s) @@ fun () ->
  let buf = Buffer.create 64 and chunk = Bytes.create 256 in
  let rec drain () =
    let remain = deadline -. Unix.gettimeofday () in
    if remain > 0.0 then
      match Unix.select [ s ] [] [] remain with
      | [], _, _ -> ()
      | _ -> (
        match Unix.read s chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        | exception Unix.Unix_error _ -> ())
  in
  drain ();
  Buffer.contents buf

(* Connects, sends nothing, and waits up to [patience_s] for an answer. *)
let silent_client ~port ~patience_s =
  let deadline = Unix.gettimeofday () +. patience_s in
  read_answer (connect ~port ~deadline ()) ~deadline

let get_metrics s =
  let req = "GET /metrics HTTP/1.0\r\n\r\n" in
  ignore (Unix.write_substring s req 0 (String.length req) : int)

(* Five 0.2 s ticks take about a second. A scraper that connects and
   never sends its request must be answered 400 within the poll budget;
   a blocking read would hold the loop until the client gave up. *)
let test_silent_scraper_cannot_stall () =
  let dir = fresh_dir () in
  let port = free_port () in
  let client =
    Domain.spawn (fun () -> silent_client ~port ~patience_s:6.0)
  in
  let t0 = Unix.gettimeofday () in
  Monitor.watch
    ~listen:(Printf.sprintf "127.0.0.1:%d" port)
    ~interval_s:0.2 ~max_ticks:5 ~dashboard:false
    { Monitor.default_config with replicates = 10 }
    ~dir;
  let elapsed = Unix.gettimeofday () -. t0 in
  let answer = Domain.join client in
  check Alcotest.bool "silent client answered 400" true
    (String.starts_with ~prefix:"HTTP/1.0 400" answer);
  if elapsed > 3.0 then
    Alcotest.failf "five 0.2 s ticks took %.1f s with a silent client" elapsed

(* A scraper that asks for an 8 MB exposition, half-closes, reads one
   byte and resets the connection (SO_LINGER 0) while the server is
   still writing. The half-close makes the reset land on a CLOSE_WAIT
   socket, so the server's write fails with EPIPE, which must not be
   delivered as SIGPIPE: its default action kills this whole test
   binary. The next, well-behaved scrape must still be answered. *)
let test_resetting_scraper_cannot_kill () =
  let server = Dpmon.Httpd.start "127.0.0.1:0" in
  Fun.protect ~finally:(fun () -> Dpmon.Httpd.stop server) @@ fun () ->
  let port = Dpmon.Httpd.port server in
  let deadline () = Unix.gettimeofday () +. 6.0 in
  let resetting =
    Domain.spawn (fun () ->
        let s = connect ~rcvbuf:4096 ~port ~deadline:(deadline ()) () in
        get_metrics s;
        Unix.shutdown s Unix.SHUTDOWN_SEND;
        ignore (Unix.read s (Bytes.create 1) 0 1 : int);
        Unix.setsockopt_optint s Unix.SO_LINGER (Some 0);
        Unix.close s)
  in
  let big = String.make (8 * 1024 * 1024) '#' in
  check Alcotest.bool "reset connection handled" true
    (Dpmon.Httpd.poll server ~timeout_s:5.0 ~body:(fun () -> big));
  Domain.join resetting;
  let polite =
    Domain.spawn (fun () ->
        let deadline = deadline () in
        let s = connect ~port ~deadline () in
        get_metrics s;
        read_answer s ~deadline)
  in
  check Alcotest.bool "next scrape handled" true
    (Dpmon.Httpd.poll server ~timeout_s:5.0 ~body:(fun () -> "# EOF\n"));
  check Alcotest.bool "next scrape answered 200" true
    (String.starts_with ~prefix:"HTTP/1.0 200" (Domain.join polite))

let () =
  Alcotest.run "monitor"
    [
      ( "replay",
        [
          Alcotest.test_case "byte-identical reruns" `Slow
            test_replay_deterministic;
          Alcotest.test_case "manifest errors carry line numbers" `Quick
            test_manifest_errors;
        ] );
      ( "alerting",
        [
          Alcotest.test_case "injected regression drifts, no-op silent" `Slow
            test_regression_alert;
          Alcotest.test_case "parse failure and ingest lag" `Quick
            test_parse_failure_and_lag;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "warm ticks hit the snapshot" `Slow
            test_snapshot_reuse;
          Alcotest.test_case "a cached monitor's descriptors stay bounded" `Slow
            test_cache_descriptors_bounded;
          Alcotest.test_case "scan picks up new and changed files" `Quick
            test_scan_incremental;
          Alcotest.test_case "a sliding window forgets what left it" `Quick
            test_window_forgets;
          Alcotest.test_case "twin files keep separate witnesses" `Slow
            test_twin_files_keep_witnesses;
          Alcotest.test_case "window gauges = resident run_report" `Slow
            test_window_oracle;
          Alcotest.test_case "the window keeps skeletons, not events" `Slow
            test_window_memory;
          Alcotest.test_case "a file changed on disk gets no view" `Slow
            test_changed_file_gets_no_view;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "OpenMetrics families and samples" `Slow
            test_openmetrics_exposition;
        ] );
      ( "churn",
        [
          Alcotest.test_case "flaky tail replay byte-identical" `Slow
            test_flaky_tail_replay_identical;
          Alcotest.test_case "slow-disk replay deterministic" `Slow
            test_slow_disk_replay_deterministic;
          Alcotest.test_case "stat races: no duplicate or lost alerts"
            `Quick test_scan_under_stat_races;
          Alcotest.test_case "a replay outlives failing sink writes" `Slow
            test_sink_failures_survived;
          Alcotest.test_case "a shortened alert log is still cut back" `Slow
            test_shortened_log_cut_back;
          Alcotest.test_case "tail exhaustion degrades and recovers" `Quick
            test_tail_exhaustion_recovers;
        ] );
      ( "peers",
        [
          Alcotest.test_case "silent scraper cannot stall the loop" `Quick
            test_silent_scraper_cannot_stall;
          Alcotest.test_case "resetting scraper cannot kill the process"
            `Quick test_resetting_scraper_cannot_kill;
        ] );
    ]
