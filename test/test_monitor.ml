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
      !streams @ [ Dptrace.Corpus.stream_count (fst (Codec_v2.load ~mode:`Strict path)) ];
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
          Alcotest.test_case "scan picks up new and changed files" `Quick
            test_scan_incremental;
          Alcotest.test_case "a sliding window forgets what left it" `Quick
            test_window_forgets;
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
