module Component = Dpcore.Component
module Snapshot = Dpcore.Snapshot
module Pipeline = Dpcore.Pipeline
module Impact = Dpcore.Impact
module Robustness = Dpcore.Robustness
module Diff = Dpcore.Diff
module Mining = Dpcore.Mining
module Classify = Dpcore.Classify
module Corpus = Dptrace.Corpus
module Corpus_dir = Dptrace.Corpus_dir
module Codec_v2 = Dptrace.Codec_v2
module Scenario = Dptrace.Scenario
module J = Dputil.Jsonw
module M = Dpobs.Metrics

type config = {
  components : Dpcore.Component.t;
  rules : Rules.rule list;
  window : int;
  k : int;
  top_patterns : int;
  replicates : int;
  seed : int;
  mode : Dptrace.Codec_v2.mode;
  cache_dir : string option;
  alert_log : string option;
  metrics_out : string option;
  view_dir : string option;
}

let default_config =
  {
    components = Component.drivers;
    rules = Rules.defaults;
    window = 8;
    k = Mining.default_k;
    top_patterns = 10;
    replicates = 200;
    seed = 1;
    mode = `Strict;
    cache_dir = None;
    alert_log = None;
    metrics_out = None;
    view_dir = None;
  }

(* What a window file's fold keeps: its specs and stream skeletons, in
   file order, each stream's snapshot entry, in the same order, and the
   fingerprint the entries were stepped under ([None] when the file has
   no stream). *)
type folded = {
  w_corpus : Corpus.t;
  w_entries : Snapshot.entry list;
  w_fp : string option;
}

type lfile = {
  f_path : string;
  mutable f_folded : folded option;  (* [None] once out of the window *)
  mutable f_seq : int;
  mutable f_mtime_ms : int;
  mutable f_size : int;
}

type baseline = {
  b_streams : Impact.result list;  (* per-stream impacts, stream order *)
  b_patterns : (string * Mining.pattern list) list;
  mutable b_ci : Robustness.t option;  (* computed once, on demand *)
}

(* An output of the monitor. A failed write fails alone: it is logged
   once per run of failures of its sink, and the next write retries. *)
type sink = { sink_name : string; mutable failing : bool }

type t = {
  config : config;
  pool : Dppar.Pool.t option;
  files : (string, lfile) Hashtbl.t;
  failed : (string, int * int) Hashtbl.t;  (* path -> (mtime_ms, size) *)
  mutable seq : int;
  mutable next_id : int;  (* the window id of the next stream folded *)
  mutable vclock : int option;  (* Some ms = virtual *)
  mutable pending_changed : bool;
  mutable pending_failures : (string * string) list;  (* newest first *)
  mutable last_arrival_ms : int option;
  mutable baseline : baseline option;
  mutable snap : (string * Snapshot.t) option;  (* the last tick's: fingerprint * cache *)
  mutable opened : (string * Snapshot.t) list;
      (* opened since, by ingests under other fingerprints *)
  mutable tick_count : int;
  mutable alert_count : int;
  mutable alert_oc : out_channel option;  (* [None] after a failed write *)
  mutable log_whole : int;  (* the alert log's length after its last whole write *)
  log_sink : sink;
  metrics_sink : sink;
  bundle_sink : sink;
  mutable line : Dpobs.Progress.line option;
  m_ticks : M.counter;
  m_files : M.counter;
  m_streams : M.counter;
  m_parse_failures : M.counter;
  m_lag : M.gauge;
  m_tick_duration : M.histogram;
  m_window_files : M.gauge;
  m_window_streams : M.gauge;
  m_window_instances : M.gauge;
}

let describe_all () =
  M.describe "monitor.ticks" "Ingest ticks run";
  M.describe "monitor.files_ingested" "Corpus files loaded or reloaded";
  M.describe "monitor.streams_ingested" "Trace streams ingested across loads";
  M.describe "monitor.parse_failures" "Corpus files that failed to load";
  M.describe "monitor.alerts" "Alerts raised, by rule";
  M.describe "monitor.ingest_lag_ms"
    "Milliseconds since the newest corpus file arrived";
  M.describe "monitor.tick_duration"
    "Per-tick duration in milliseconds (virtual, i.e. 0, under replay)";
  M.describe "monitor.window_files" "Corpus files in the rolling window";
  M.describe "monitor.window_streams" "Streams in the window corpus";
  M.describe "monitor.window_instances"
    "Scenario instances in the window corpus";
  M.describe "monitor.scenario_ia_wait_ppm"
    "Window IA_wait per scenario, parts per million"

let create ?pool ?(fresh_log = false) config =
  Dpobs.enable ~spans:false ~metrics:true ();
  describe_all ();
  let alert_oc =
    Option.map
      (fun path ->
        let flags =
          if fresh_log then [ Open_wronly; Open_creat; Open_trunc ]
          else [ Open_wronly; Open_creat; Open_append ]
        in
        open_out_gen flags 0o644 path)
      config.alert_log
  in
  {
    config;
    pool;
    files = Hashtbl.create 32;
    failed = Hashtbl.create 8;
    seq = 0;
    next_id = 0;
    vclock = None;
    pending_changed = false;
    pending_failures = [];
    last_arrival_ms = None;
    baseline = None;
    snap = None;
    opened = [];
    tick_count = 0;
    alert_count = 0;
    alert_oc;
    log_whole = Option.fold ~none:0 ~some:out_channel_length alert_oc;
    log_sink = { sink_name = "alert log"; failing = false };
    metrics_sink = { sink_name = "metrics file"; failing = false };
    bundle_sink = { sink_name = "view bundle"; failing = false };
    line = None;
    m_ticks = M.counter "monitor.ticks";
    m_files = M.counter "monitor.files_ingested";
    m_streams = M.counter "monitor.streams_ingested";
    m_parse_failures = M.counter "monitor.parse_failures";
    m_lag = M.gauge "monitor.ingest_lag_ms";
    m_tick_duration = M.histogram "monitor.tick_duration";
    m_window_files = M.gauge "monitor.window_files";
    m_window_streams = M.gauge "monitor.window_streams";
    m_window_instances = M.gauge "monitor.window_instances";
  }

(* --- sinks ---

   The alert log, the metrics file and each view bundle are written
   through [attempt], after the [monitor.write] fault site: a write that
   fails, by an I/O error or an injected fault, is dropped, and the tick
   and the other sinks go on. A torn text write persists the first half
   of its text before it fails; a torn bundle fails as a failed one
   does. A sink's first failure in a run of them logs one warning and
   registers its failure counter, so a clean run's exposition has none.
   The next tick retries: the alert log is reopened, even with no alert
   to write, and cut back to its last whole write; the metrics file is
   rewritten whole. *)

(* [Some (write ())], or [None] when it fails. *)
let attempt s write =
  match write () with
  | x ->
    if s.failing then Dpobs.Log.info "monitor: %s written again" s.sink_name;
    s.failing <- false;
    Some x
  | exception ((Sys_error _ | Unix.Unix_error _ | Dpfault.Injected _) as e) ->
    M.incr (M.counter (M.labelled "monitor.write_failures" [ ("sink", s.sink_name) ]));
    if not s.failing then
      Dpobs.Log.warn "monitor: %s: write failed (%s); retrying at the next write" s.sink_name
        (match e with
        | Sys_error m -> m
        | Unix.Unix_error (err, _, _) -> Unix.error_message err
        | e -> Printexc.to_string e);
    s.failing <- true;
    None

(* [text] written through [out]. *)
let write_text s out text =
  attempt s (fun () ->
      (match Dpfault.check Dpfault.Monitor_write with
      | None -> ()
      | Some kind ->
        if kind = Dpfault.Torn_write then out (String.sub text 0 (String.length text / 2));
        Dpfault.act Dpfault.Monitor_write kind);
      out text)

(* The alert log cut back to its length after the last whole write, so
   a torn write leaves no partial line. A log shortened or removed since
   keeps what it has, and the next whole write counts from there. *)
let cut_log t path =
  match Unix.stat path with
  | st ->
    if st.Unix.st_size > t.log_whole then Unix.truncate path t.log_whole
    else t.log_whole <- st.Unix.st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> t.log_whole <- 0

(* The alert log reopened after a failed write; one that is gone starts
   again. *)
let reopen_log t path =
  cut_log t path;
  open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path

(* A log whose last write failed is cut back if it can be; one that is
   gone stays gone. *)
let close t =
  match (t.alert_oc, t.config.alert_log) with
  | Some oc, _ -> close_out_noerr oc
  | None, Some path -> ( try cut_log t path with Unix.Unix_error _ -> ())
  | None, None -> ()

(* --- clock --- *)

let real_now_ms () = int_of_float (Unix.gettimeofday () *. 1000.0)

let now_ms t =
  match t.vclock with Some ms -> ms | None -> real_now_ms ()

let set_clock t ms = t.vclock <- Some ms
let advance_clock t d = t.vclock <- Some (now_ms t + d)

(* --- the window and its snapshots --- *)

let newest_first t =
  Hashtbl.fold (fun _ f acc -> f :: acc) t.files []
  |> List.sort (fun a b -> compare b.f_seq a.f_seq)

(* The files of the window, newest first. A file older than the newest
   [window] forgets its fold for good (only a re-ingest, which makes it
   the newest, brings one back) but keeps its bookkeeping, so [scan]
   does not load it again. *)
let window_newest_first t =
  List.filteri
    (fun i f ->
      if i >= t.config.window then f.f_folded <- None;
      f.f_folded <> None)
    (newest_first t)

(* The specs of a window, given its files' specs oldest first: the first
   spec of each name wins. *)
let merge_specs specs =
  List.fold_left
    (fun acc (s : Scenario.spec) ->
      let same (s' : Scenario.spec) = s'.Scenario.name = s.Scenario.name in
      if List.exists same acc then acc else acc @ [ s ])
    [] (List.concat specs)

let fingerprint t specs =
  Snapshot.fingerprint ~components:t.config.components ~specs ~k:t.config.k ()

(* The snapshot under fingerprint [fp]: the last tick's if it has that
   fingerprint, else one an ingest opened since, else a new one. *)
let snapshot_for t fp =
  match t.snap with
  | Some (fp', snap) when fp' = fp -> snap
  | _ -> (
    match List.assoc_opt fp t.opened with
    | Some snap -> snap
    | None ->
      let snap = Snapshot.create ?dir:t.config.cache_dir ~fingerprint:fp () in
      t.opened <- (fp, snap) :: t.opened;
      snap)

let snapshot_stats t = Option.map (fun (_, s) -> Snapshot.stats s) t.snap

let patterns t = match t.baseline with Some b -> b.b_patterns | None -> []

(* Fold one corpus file through a snapshot: each stream is looked up, or
   stepped, as it is decoded, and only its skeleton, under the next
   window id (the window's files all restart their ids at 0), and its
   entry stay. [under specs] gives the window's specs for a file with
   these specs: the fold asks it once, on this domain, at the first
   stream, and steps the file under the snapshot of their fingerprint. *)
let fold_file t ~under path =
  let fp = ref None and entries = ref [] in
  Corpus_dir.fold ?pool:t.pool ~mode:t.config.mode
    ~step:(fun specs ->
      let specs = under specs in
      let f = fingerprint t specs in
      fp := Some f;
      Snapshot.lookup_or_step (snapshot_for t f) t.config.components ~specs)
    ~consume:(fun (e, skeleton) ->
      entries := e :: !entries;
      t.next_id <- t.next_id + 1;
      Some (Dptrace.Stream.with_id skeleton (t.next_id - 1)))
    path
  |> Result.map (fun (l : Corpus_dir.loaded) ->
         ( l,
           {
             w_corpus = l.Corpus_dir.l_corpus;
             w_entries = List.rev !entries;
             w_fp = !fp;
           } ))

(* The specs of the window [path] makes when it is (re)ingested: it
   becomes the newest file, joined by the newest [window - 1] others. *)
let joining t path specs =
  let others =
    List.filter (fun f -> f.f_path <> path) (newest_first t)
    |> List.filteri (fun i _ -> i < t.config.window - 1)
    |> List.filter_map (fun f ->
           Option.map (fun w -> w.w_corpus.Corpus.specs) f.f_folded)
  in
  merge_specs (List.rev (specs :: others))

(* --- feeding --- *)

(* [monitor.stat] fault site: injected stat races (and real transient
   errors) retry with backoff; a spent budget reports the same (0, 0)
   the genuine-error path always did — the file just looks unchanged
   until a later tick sees it cleanly. *)
let stat_info path =
  match
    Dpfault.Retry.run Dpfault.Monitor_stat (fun () ->
        Dpfault.guard Dpfault.Monitor_stat;
        Unix.stat path)
  with
  | { Unix.st_mtime; st_size; _ } ->
    (int_of_float (st_mtime *. 1000.0), st_size)
  | exception (Unix.Unix_error _ | Dpfault.Injected _) -> (0, 0)

let ingest t ?mtime_ms path =
  (* [monitor.tail] fault site: the re-read of a changed file. Exhausted
     retries funnel into the parse-failure path, so the file is counted,
     alerted on once, and retried when it changes again. *)
  match
    match
      Dpfault.Retry.run Dpfault.Monitor_tail (fun () ->
          Dpfault.guard Dpfault.Monitor_tail;
          fold_file t ~under:(joining t path) path)
    with
    | result -> result
    | exception Dpfault.Injected { site; kind } ->
      Error
        (Printf.sprintf
           "%s: injected %s fault at %s exhausted the retry budget" path
           (Dpfault.kind_name kind) (Dpfault.site_name site))
  with
  | Error msg ->
    Hashtbl.replace t.failed path (stat_info path);
    M.incr t.m_parse_failures;
    t.pending_failures <- (path, msg) :: t.pending_failures;
    Dpobs.Log.warn "monitor: %s" msg;
    Error msg
  | Ok ({ Corpus_dir.l_corpus; l_bytes; l_report; _ }, folded) ->
    (match l_report with
    | Some { Dptrace.Codec_v2.dropped = _ :: _ as dropped; _ } ->
      Dpobs.Log.warn "monitor: %s: recovered with %d dropped frame(s)" path
        (List.length dropped)
    | _ -> ());
    Hashtbl.remove t.failed path;
    let mtime =
      match mtime_ms with Some m -> m | None -> fst (stat_info path)
    in
    t.seq <- t.seq + 1;
    (match Hashtbl.find_opt t.files path with
    | Some f ->
      f.f_folded <- Some folded;
      f.f_seq <- t.seq;
      f.f_mtime_ms <- mtime;
      f.f_size <- l_bytes
    | None ->
      Hashtbl.replace t.files path
        { f_path = path; f_folded = Some folded; f_seq = t.seq;
          f_mtime_ms = mtime; f_size = l_bytes });
    t.last_arrival_ms <-
      Some
        (match t.last_arrival_ms with
        | None -> mtime
        | Some a -> max a mtime);
    (* A file this one pushes out of the window forgets its fold now. *)
    ignore (window_newest_first t : lfile list);
    t.pending_changed <- true;
    M.incr t.m_files;
    M.add t.m_streams (Corpus.stream_count l_corpus);
    Ok ()

let scan t dir =
  List.fold_left
    (fun n e ->
      let path = e.Corpus_dir.e_path in
      let changed_vs (mt, sz) =
        mt <> e.Corpus_dir.e_mtime_ms || sz <> e.Corpus_dir.e_size
      in
      let fresh =
        match Hashtbl.find_opt t.files path with
        | Some f -> changed_vs (f.f_mtime_ms, f.f_size)
        | None -> (
          match Hashtbl.find_opt t.failed path with
          | Some seen -> changed_vs seen  (* retry only on change *)
          | None -> true)
      in
      if fresh then (
        ignore (ingest t ~mtime_ms:e.Corpus_dir.e_mtime_ms path : (_, _) result);
        n + 1)
      else n)
    0 (Corpus_dir.scan dir)

(* --- window assembly --- *)

let keys (c : Corpus.t) = List.map Codec_v2.stream_key c.Corpus.streams

(* The window's files under the tick's snapshot: a file whose entries
   were stepped under another fingerprint (the window's specs changed
   since its ingest) is folded again from its path. A file that changed
   on disk since its ingest leaves the window; [scan] sees the change
   and ingests it anew. *)
let refold t ~specs ~fp files =
  List.filter_map
    (fun (f, w) ->
      match w.w_fp with
      | Some fp' when fp' <> fp -> (
        match fold_file t ~under:(fun _ -> specs) f.f_path with
        | Ok (_, w')
          when keys w'.w_corpus = keys w.w_corpus
               && w'.w_corpus.Corpus.specs = w.w_corpus.Corpus.specs ->
          f.f_folded <- Some w';
          Some (f, w')
        | result ->
          Dpobs.Log.warn "monitor: %s leaves the window: %s" f.f_path
            (match result with
            | Error msg -> msg
            | Ok _ -> "changed since it was ingested");
          f.f_folded <- None;
          None)
      | _ -> Some (f, w))
    files

(* The tick's window, oldest first, with its specs, fingerprint and
   snapshot. A file that leaves it on its second fold may take specs
   with it, so the window is taken again without it. *)
let rec tick_window t files =
  let specs = merge_specs (List.map (fun (_, w) -> w.w_corpus.Corpus.specs) files) in
  let fp = fingerprint t specs in
  let snap = snapshot_for t fp in
  let kept = refold t ~specs ~fp files in
  if List.compare_lengths kept files = 0 then (kept, specs, fp, snap)
  else tick_window t kept

(* --- rule evaluation --- *)

let baseline_ci t b =
  match b.b_ci with
  | Some ci -> ci
  | None ->
    let ci =
      Robustness.bootstrap ~replicates:t.config.replicates ~seed:t.config.seed
        b.b_streams
    in
    (* bench/e2e/expected_digests pins the replay exposition, which still
       counts the index hit per baseline stream of the graph pass this CI
       used to run. *)
    M.add (M.counter "stream.index.hit") (List.length b.b_streams);
    b.b_ci <- Some ci;
    ci

let fnum = Printf.sprintf "%.6g"

let drift_alert t b rule metric impact =
  let rb = baseline_ci t b in
  let value, ci, mname =
    match metric with
    | `Wait -> (Impact.ia_wait impact, rb.Robustness.ia_wait, "ia_wait")
    | `Run -> (Impact.ia_run impact, rb.Robustness.ia_run, "ia_run")
    | `Opt -> (Impact.ia_opt impact, rb.Robustness.ia_opt, "ia_opt")
  in
  Dpobs.Log.debug "monitor: drift check %s: value=%g baseline CI=[%g, %g]"
    mname value ci.Robustness.lo ci.Robustness.hi;
  if Robustness.contains ci value then None
  else
    Some
      ( rule,
        None,
        Printf.sprintf "%s %s left the baseline CI [%s, %s]" mname
          (fnum value) (fnum ci.Robustness.lo) (fnum ci.Robustness.hi),
        J.Obj
          [
            ("metric", J.str mname);
            ("value", J.float value);
            ("lo", J.float ci.Robustness.lo);
            ("hi", J.float ci.Robustness.hi);
            ("point", J.float ci.Robustness.point);
            ("mean", J.float ci.Robustness.mean);
            ("replicates", J.int rb.Robustness.replicates);
          ] )

let cap_patterns top xs =
  if top <= 0 then xs else List.filteri (fun i _ -> i < top) xs

let pattern_alerts b rule ~top ~threshold ~min_support ~pick patterns =
  (* Only scenarios the baseline already knew: a scenario's very first
     sighting is all [Appeared] by construction, which is noise. The
     baseline side stays uncapped — claims are gated to the new window's
     top-K, but membership is checked against everything the previous
     window mined, so a pattern shuffling across the top-K boundary
     doesn't masquerade as [Appeared]. *)
  List.concat_map
    (fun (scn, after) ->
      match List.assoc_opt scn b.b_patterns with
      | None -> []
      | Some before ->
        let after = cap_patterns top after in
        Diff.compare_patterns ~threshold ~min_support ~before ~after ()
        |> List.filter_map (fun (e : Diff.entry) ->
               match pick e with
               | None -> None
               | Some message ->
                 Some (rule, Some scn, message, Diff.json_entry e)))
    patterns

let support (p : Mining.pattern option) =
  match p with None -> 0 | Some p -> p.Mining.count

let evaluate_relative t b impact patterns =
  List.concat_map
    (fun rule ->
      match rule with
      | Rules.Ia_drift { metric } -> (
        match drift_alert t b (Rules.name rule) metric impact with
        | Some a -> [ a ]
        | None -> [])
      | Rules.Pattern_appeared { min_support } ->
        pattern_alerts b (Rules.name rule) ~top:t.config.top_patterns
          ~threshold:1.5 ~min_support
          ~pick:(fun e ->
            match e.Diff.change with
            | Diff.Appeared ->
              Some
                (Printf.sprintf "pattern appeared with support %d"
                   (support e.Diff.after))
            | _ -> None)
          patterns
      | Rules.Pattern_regressed { min_support; threshold } ->
        pattern_alerts b (Rules.name rule) ~top:t.config.top_patterns
          ~threshold ~min_support
          ~pick:(fun e ->
            match e.Diff.change with
            | Diff.Regressed f ->
              Some
                (Printf.sprintf "pattern avg cost grew %sx (support %d)"
                   (fnum f) (support e.Diff.after))
            | _ -> None)
          patterns
      | Rules.Ingest_lag _ | Rules.Parse_failure -> [])
    t.config.rules

(* --- view bundles ---

   A bundle reads its exemplars' events, which the window does not keep:
   the window files holding the alerted scenarios' class streams are read
   again once per tick, decoding only those streams. *)

(* [r] with its class streams mapped by [back]. *)
let with_streams back (r : Pipeline.scenario_result) =
  let c = r.Pipeline.classification and back = List.map (fun (st, i) -> (back st, i)) in
  let fast = back c.Classify.fast and middle = back c.Classify.middle in
  { r with Pipeline.classification = { c with fast; middle; slow = back c.Classify.slow } }

(* --- the tick --- *)

let status_line t =
  Printf.sprintf "monitor: tick %d | window %d file(s), %d stream(s) | %d alert(s)"
    t.tick_count
    (M.gauge_value t.m_window_files)
    (M.gauge_value t.m_window_streams)
    t.alert_count

let emit t alerts =
  List.iter
    (fun (a : Rules.alert) ->
      t.alert_count <- t.alert_count + 1;
      M.incr (M.counter (M.labelled "monitor.alerts" [ ("rule", a.Rules.a_rule) ]));
      Dpobs.Log.warn "monitor: [%s]%s %s" a.Rules.a_rule
        (match a.Rules.a_scenario with
        | Some s -> Printf.sprintf " %s:" s
        | None -> "")
        a.Rules.a_message)
    alerts;
  match t.config.alert_log with
  | Some path when alerts <> [] || t.alert_oc = None ->
    let text =
      String.concat ""
        (List.map (fun a -> J.to_string ~minify:true (Rules.alert_json a) ^ "\n") alerts)
    in
    let out text =
      let oc =
        match t.alert_oc with
        | Some oc -> oc
        | None ->
          let oc = reopen_log t path in
          t.alert_oc <- Some oc;
          oc
      in
      output_string oc text;
      flush oc
    in
    (match write_text t.log_sink out text with
    | Some () -> t.log_whole <- t.log_whole + String.length text
    | None ->
      Option.iter close_out_noerr t.alert_oc;
      t.alert_oc <- None)
  | _ -> ()

let tick t =
  let t0 = now_ms t in
  t.tick_count <- t.tick_count + 1;
  M.incr t.m_ticks;
  let failures = List.rev t.pending_failures in
  t.pending_failures <- [];
  let changed = t.pending_changed in
  t.pending_changed <- false;
  (* Absolute rules first: they hold whether or not anything arrived. *)
  let absolute =
    List.concat_map
      (fun rule ->
        match rule with
        | Rules.Parse_failure ->
          List.map
            (fun (path, err) ->
              ( Rules.name rule,
                None,
                Printf.sprintf "failed to load %s" path,
                J.Obj [ ("path", J.str path); ("error", J.str err) ] ))
            failures
        | Rules.Ingest_lag { max_ms } -> (
          match t.last_arrival_ms with
          | Some arrived when now_ms t - arrived > max_ms ->
            let lag = now_ms t - arrived in
            [
              ( Rules.name rule,
                None,
                Printf.sprintf "no corpus file for %d ms (limit %d)" lag
                  max_ms,
                J.Obj [ ("lag_ms", J.int lag); ("max_ms", J.int max_ms) ] );
            ]
          | _ -> [])
        | _ -> [])
      t.config.rules
  in
  (match t.last_arrival_ms with
  | Some arrived -> M.set t.m_lag (max 0 (now_ms t - arrived))
  | None -> ());
  let relative, views =
    if not changed then ([], [])
    else begin
      let files, specs, fp, snap =
        tick_window t
          (List.rev_map (fun f -> (f, Option.get f.f_folded)) (window_newest_first t))
      in
      t.snap <- Some (fp, snap);
      t.opened <- [];
      Snapshot.new_pass snap;
      List.iter (fun (_, w) -> List.iter (Snapshot.settle snap) w.w_entries) files;
      Snapshot.drop_stale snap;
      let n_files = List.length files in
      let corpus =
        Corpus.create
          ~streams:(List.concat_map (fun (_, w) -> w.w_corpus.Corpus.streams) files)
          ~specs
      in
      let report =
        Pipeline.run_report_entries ?pool:t.pool ~k:t.config.k corpus
          (List.concat_map (fun (_, w) -> w.w_entries) files)
      in
      Snapshot.save snap;
      (* bench/e2e/expected_digests pins the replay exposition, which
         still counts one finished scenario per row of the per-scenario
         table the tick once computed in a second pass. *)
      M.add (M.counter "pipeline.scenarios_done")
        (List.length report.Pipeline.per_scenario);
      (* They also pin one snapshot mining miss per scenario mined, from
         when the snapshot cached mining results: the counter appears
         once a tick has mined. *)
      if report.Pipeline.scenarios <> [] then
        M.add (M.counter "snapshot.mining_miss") (List.length report.Pipeline.scenarios);
      (* Full ranked lists: the baseline keeps everything mined so
         top-K boundary churn can't fake [Appeared]; the cap applies to
         the claiming side inside [pattern_alerts]. *)
      let patterns =
        List.map
          (fun (name, (r : Pipeline.scenario_result)) ->
            (name, r.Pipeline.mining.Mining.patterns))
          report.Pipeline.scenarios
      in
      M.set t.m_window_files n_files;
      M.set t.m_window_streams (Corpus.stream_count corpus);
      M.set t.m_window_instances (Corpus.instance_count corpus);
      List.iter
        (fun (scn, r) ->
          M.set
            (M.gauge
               (M.labelled "monitor.scenario_ia_wait_ppm"
                  [ ("scenario", scn) ]))
            (int_of_float ((Impact.ia_wait r *. 1e6) +. 0.5)))
        report.Pipeline.per_scenario;
      let out =
        match t.baseline with
        | None -> []  (* first analysed tick: establish, don't compare *)
        | Some b -> evaluate_relative t b report.Pipeline.impact patterns
      in
      t.baseline <-
        Some { b_streams = report.Pipeline.streams; b_patterns = patterns; b_ci = None };
      (* Every alerted scenario gets an openable view bundle next to the
         JSONL log: Perfetto trace of the slow/fast exemplars plus the
         differential flame views of the offending window. *)
      let views =
        match t.config.view_dir with
        | None -> []
        | Some vdir ->
          let alerted =
            List.filter_map (fun (_, s, _, _) -> s) out
            |> List.sort_uniq compare
            |> List.filter_map (fun scn ->
                   Option.map (fun r -> (scn, r))
                     (List.assoc_opt scn report.Pipeline.scenarios))
          in
          let reload (f, w) =
            (w.w_corpus.Corpus.streams, Corpus_dir.reload ?pool:t.pool ~mode:t.config.mode f.f_path)
          in
          match
            Dpcore.Explorer.with_events (List.map reload files)
              (List.concat_map
                 (fun (_, (r : Pipeline.scenario_result)) ->
                   let c = r.Pipeline.classification in
                   List.map fst (c.Classify.fast @ c.Classify.slow))
                 alerted)
          with
          | Error msg ->
            List.iter
              (fun (scn, _) -> Dpobs.Log.warn "monitor: no view bundle for %s: %s" scn msg)
              alerted;
            []
          | Ok back ->
            List.filter_map
              (fun (scn, r) ->
                let dir =
                  Filename.concat vdir
                    (Printf.sprintf "tick-%d-%s" t.tick_count
                       (String.map
                          (function '/' | '\\' -> '_' | ch -> ch)
                          scn))
                in
                let write () =
                  Dpviz.Bundle.write ~components:t.config.components
                    ~dir (with_streams back r)
                in
                attempt t.bundle_sink (fun () ->
                    Dpfault.guard Dpfault.Monitor_write;
                    write ())
                |> Option.map (fun b ->
                       Dpobs.Log.info "monitor: view bundle %s (%d files)" dir
                         (List.length b.Dpviz.Bundle.files);
                       (scn, dir)))
              alerted
      in
      (out, views)
    end
  in
  let alerts =
    List.map
      (fun (rule, scenario, message, data) ->
        {
          Rules.a_tick = t.tick_count;
          a_time_ms = now_ms t;
          a_rule = rule;
          a_scenario = scenario;
          a_message = message;
          a_data = data;
          a_view =
            Option.bind scenario (fun s -> List.assoc_opt s views);
        })
      (absolute @ relative)
  in
  emit t alerts;
  M.observe t.m_tick_duration (float_of_int (now_ms t - t0));
  (match t.config.metrics_out with
  | Some path ->
    let text = Dpobs.Export.openmetrics () in
    ignore
      (write_text t.metrics_sink (Dputil.Fs.write_file path output_string) text : unit option)
  | None -> ());
  (match t.line with
  | Some l -> Dpobs.Progress.line_set l (status_line t)
  | None -> ());
  alerts

let alerts_total t = t.alert_count

(* --- replay --- *)

type replay_summary = {
  r_ticks : int;
  r_files : int;
  r_alerts : int;
  r_parse_failures : int;
}

type directive = Set of int | Advance of int | Add of string | Tick

let parse_manifest path =
  let ic =
    try open_in path
    with Sys_error m -> failwith (Printf.sprintf "monitor: %s" m)
  in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let bad line_no line =
    failwith
      (Printf.sprintf "%s:%d: bad manifest directive %S" path line_no line)
  in
  let rec go line_no acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | raw ->
      let line = String.trim raw in
      if line = "" || line.[0] = '#' then go (line_no + 1) acc
      else
        let words =
          String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
        in
        let dir =
          match words with
          | [ "tick" ] -> Tick
          | [ "add"; p ] -> Add p
          | [ "clock"; spec ] when String.length spec > 0 -> (
            if spec.[0] = '+' then
              match
                int_of_string_opt (String.sub spec 1 (String.length spec - 1))
              with
              | Some d -> Advance d
              | None -> bad line_no line
            else
              match int_of_string_opt spec with
              | Some ms -> Set ms
              | None -> bad line_no line)
          | _ -> bad line_no line
        in
        go (line_no + 1) (dir :: acc)
  in
  go 1 []

let replay config ~manifest =
  let directives = parse_manifest manifest in
  (* A clean registry makes the exposition a pure function of the
     manifest (plus any pre-warmed on-disk snapshot cache). No pool:
     pool busy-time telemetry is wall-clock. *)
  M.reset ();
  let t = create ~fresh_log:true config in
  set_clock t 0;
  let base = Filename.dirname manifest in
  let files = ref 0 and parse_failures = ref 0 in
  List.iter
    (fun d ->
      match d with
      | Set ms -> set_clock t ms
      | Advance d -> advance_clock t d
      | Add p ->
        let p = if Filename.is_relative p then Filename.concat base p else p in
        incr files;
        (match ingest t ~mtime_ms:(now_ms t) p with
        | Ok () -> ()
        | Error _ -> incr parse_failures)
      | Tick -> ignore (tick t : Rules.alert list))
    directives;
  close t;
  {
    r_ticks = t.tick_count;
    r_files = !files;
    r_alerts = t.alert_count;
    r_parse_failures = !parse_failures;
  }

(* --- watch --- *)

let watch ?pool ?listen ?(interval_s = 2.0) ?max_ticks ?(dashboard = true)
    config ~dir =
  let t = create ?pool config in
  let httpd = Option.map Httpd.start listen in
  (match httpd with
  | Some h ->
    Dpobs.Log.info "monitor: serving /metrics on port %d" (Httpd.port h)
  | None -> ());
  if dashboard then t.line <- Dpobs.Progress.line_start ();
  let stop = ref false in
  while not !stop do
    ignore (scan t dir : int);
    ignore (tick t : Rules.alert list);
    (match max_ticks with
    | Some m when t.tick_count >= m -> stop := true
    | _ -> ());
    if not !stop then begin
      let deadline = Unix.gettimeofday () +. interval_s in
      let rec idle () =
        let remain = deadline -. Unix.gettimeofday () in
        if remain > 0.0 then
          match httpd with
          | Some h ->
            ignore
              (Httpd.poll h ~timeout_s:(Float.min remain 0.25)
                 ~body:Dpobs.Export.openmetrics
                : bool);
            idle ()
          | None -> Unix.sleepf remain
      in
      idle ()
    end
  done;
  (match httpd with Some h -> Httpd.stop h | None -> ());
  (match t.line with Some l -> Dpobs.Progress.line_finish l | None -> ());
  close t
