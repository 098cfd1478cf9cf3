(* driveperf — trace-based performance comprehension for device drivers.

   Subcommands:
     generate    synthesise a corpus (text .dpt or framed .dpf)
     impact      impact analysis (with per-module / per-scenario breakdowns)
     causality   causality analysis for one scenario
     report      regenerate the paper's tables from a corpus
     case        print the Figure 1 motivating case
     validate    structural checks over a corpus file
     stats       descriptive corpus statistics
     dot         Graphviz export of a scenario's Aggregated Wait Graph
     witness     trace a mined pattern back to concrete instances
     explain     provenance drill-down: pattern/component -> raw events
     timeline    ASCII thread timeline of a stream
     anonymize   scrub names structure-preservingly
     import-etw  convert an xperf-style dump
     convert     re-encode a corpus (text v1 <-> framed v2)
     diff        compare mined patterns across two corpora
     baseline    run the Section 6 baseline analyses
     analyze     one-shot full analyst report
     monitor     watch a corpus directory, alert on drift, export metrics
     faults      describe / replay a deterministic fault-injection plan

   Corpus files are read and written through {!Dptrace.Corpus_dir}
   (shared with the monitor): inputs are detected by content (text v1 /
   framed v2), and the extension selects the *output* format: .dpf
   framed v2, anything else text. *)

open Cmdliner

(* Input volume by detected format, for `driveperf stats` and the
   metrics dump. *)
let record_input_bytes bytes fmt =
  if Dpobs.metrics_on () then
    let name =
      match fmt with
      | Dptrace.Corpus_dir.Text -> "corpus.bytes.text_v1"
      | Dptrace.Corpus_dir.Framed -> "corpus.bytes.framed_v2"
    in
    Dpobs.Metrics.add (Dpobs.Metrics.counter name) bytes

(* A corpus file's read, loaded whole or folded: an error is one line
   and exit 1; recovered frames are summarised on stderr. *)
let check_read path = function
  | Error msg ->
    Dpobs.Log.error "%s" msg;
    exit 1
  | Ok ({ Dptrace.Corpus_dir.l_format; l_bytes; l_report; _ } as loaded) ->
    record_input_bytes l_bytes l_format;
    (match l_report with
    | Some report when report.Dptrace.Codec_v2.dropped <> [] ->
      (* Per-frame {frame; offset; reason} details are debug-level;
         the warn summary points at the knob that reveals them. *)
      List.iter
        (fun d ->
          Dpobs.Log.debug "%s: %a" path Dptrace.Codec_v2.pp_diagnostic d)
        report.Dptrace.Codec_v2.dropped;
      Dpobs.Log.warn
        "%s: recovered %d stream(s) from %d frame(s), %d problem(s) \
         (--log-level debug for per-frame details)"
        path report.Dptrace.Codec_v2.streams report.Dptrace.Codec_v2.frames
        (List.length report.Dptrace.Codec_v2.dropped)
    | _ -> ());
    loaded

let load_corpus ?pool ~mode path =
  check_read path (Dptrace.Corpus_dir.load ?pool ~mode path)

(* Built once: a command that draws events takes them back from it. *)
let generated =
  lazy (Dpworkload.Corpus_gen.generate Dpworkload.Corpus_gen.default_config)

let read_corpus ~mode = function
  | Some path -> (load_corpus ~mode path).Dptrace.Corpus_dir.l_corpus
  | None -> Lazy.force generated

(* --- common options --- *)

let corpus_arg =
  let doc = "Corpus file (dptrace format). Generated on the fly if absent." in
  Arg.(value & opt (some string) None & info [ "corpus"; "c" ] ~docv:"FILE" ~doc)

let seed_arg =
  let doc = "PRNG seed for corpus generation." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let scale_arg =
  let doc = "Corpus scale: 1.0 targets one tenth of the paper's volumes." in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"S" ~doc)

let components_arg =
  let doc = "Component wildcard patterns over module names." in
  Arg.(value & opt (list string) [ "*.sys" ] & info [ "components" ] ~docv:"PATS" ~doc)

let components_of pats =
  match pats with
  | [ "*.sys" ] -> Dpcore.Component.drivers
  | pats -> Dpcore.Component.of_patterns pats

(* Integer options with a lower bound, which Cmdliner enforces: --rank,
   -k, --replicates and --width take a positive integer, --instance a
   non-negative one. *)
let int_at_least least what =
  let parse text =
    match int_of_string_opt text with
    | Some n when n >= least -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a %s integer, got %S" what text))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_int = int_at_least 1 "positive"
let non_negative_int = int_at_least 0 "non-negative"

(* Output paths are checked before any work, though written at the end
   (through [Fs.write_file]): the directory a file goes in, or the
   nearest existing ancestor of a directory made if missing, must be a
   writable directory. A failure is a [Sys_error] naming the path. *)
let check_out ?(dir = false) path =
  let rec check d =
    match Unix.access (Filename.concat d ".") [ Unix.W_OK ] with
    | () -> ()
    | exception Unix.Unix_error (Unix.ENOENT, _, _) when dir && Filename.dirname d <> d ->
      check (Filename.dirname d)
    | exception Unix.Unix_error (e, _, _) ->
      raise (Sys_error (path ^ ": " ^ Unix.error_message e))
  in
  check (if dir then path else Filename.dirname path)

let out_path ?dir arg = Term.(const (fun p -> check_out ?dir p; p) $ arg)
let out_path_opt ?dir arg = Term.(const (fun p -> Option.iter (check_out ?dir) p; p) $ arg)

let domains_arg =
  let doc =
    "Analysis (and framed-v2 ingestion) parallelism: the number of \
     domains (cores) the work fans out over. 0 selects the default — the \
     DRIVEPERF_DOMAINS environment variable when set, otherwise the \
     recommended domain count of the machine. Results are identical for \
     every value."
  in
  Arg.(value & opt int 0 & info [ "j"; "domains" ] ~docv:"N" ~doc)

let mode_arg =
  let strict =
    ( `Strict,
      Arg.info [ "strict" ]
        ~doc:
          "Fail on any corpus corruption (default). A framed v2 load \
           aborts on the first bad frame; v1 formats always behave this \
           way." )
  in
  let recover =
    ( `Recover,
      Arg.info [ "recover" ]
        ~doc:
          "Recovery mode for framed v2 corpora: skip corrupt frames, \
           load the surviving streams, and print per-frame diagnostics \
           on stderr." )
  in
  Arg.(value & vflag `Strict [ strict; recover ])

(* --- deterministic fault injection (--fault-plan / DRIVEPERF_FAULTS) --- *)

let fault_arg =
  let doc =
    "Deterministic fault injection: arm the plan $(docv) (SEED:SPEC, \
     where SPEC is a preset — io-flaky, torn-writes, slow-disk — or \
     comma-separated site=kind@prob[!attempts] clauses) around this \
     command. Injected faults are retried with bounded backoff; streams \
     whose retry budget exhausts are quarantined and reported, not \
     fatal. The DRIVEPERF_FAULTS environment variable sets the same \
     knob; this flag wins. See $(b,driveperf faults) for the site and \
     kind vocabulary."
  in
  Arg.(
    value & opt (some string) None & info [ "fault-plan" ] ~docv:"PLAN" ~doc)

(* Arm the requested plan around a command body, disarm after. Without a
   plan the fault layer stays a single disarmed atomic load per guard. *)
let with_faults plan f =
  let spec =
    match plan with Some _ -> plan | None -> Sys.getenv_opt "DRIVEPERF_FAULTS"
  in
  match spec with
  | None -> f ()
  | Some spec -> (
    match Dpfault.parse spec with
    | Error msg ->
      Dpobs.Log.error "--fault-plan: %s" msg;
      exit 2
    | Ok plan ->
      Dpfault.install plan;
      Fun.protect ~finally:Dpfault.clear f)

let print_coverage (cov : Dpcore.Pipeline.coverage) =
  if cov.Dpcore.Pipeline.cov_quarantined <> [] then begin
    Dputil.Table.print (Dpcore.Report.stream_coverage cov);
    print_newline ()
  end

(* Run [f pool] with a pool of [j] domains (0 = auto), shut down after. *)
let with_cli_pool j f =
  let domains = if j <= 0 then Dppar.Pool.default_domains () else j in
  Dppar.Pool.with_pool ~domains f

(* Every one-scenario command checks its name against the corpus it
   analyses: a scenario with no spec is one error line and exit 1. *)
let no_spec scenario =
  Printf.eprintf "no spec for scenario %s in the corpus\n" scenario;
  exit 1

(* --- incremental snapshot cache (--cache DIR) ---

   The directory is made ready before any work: it and its missing
   parents are created, and a path that is not (and cannot become) a
   directory fails with one error line. *)

let cache_term =
  let doc =
    "Incremental re-analysis: cache per-stream analysis results under \
     $(docv) (created if missing) and reuse them on later runs over \
     overlapping corpora — only new or changed streams are re-analysed. \
     Entries are keyed by stream content and analysis configuration; \
     results are bit-identical to a run without the cache."
  in
  let prepare = function
    | None -> None
    | Some dir ->
      (match Dputil.Fs.mkdir_p dir with
      | () when Sys.is_directory dir -> ()
      | () ->
        Dpobs.Log.error "--cache %s: not a directory" dir;
        exit 1
      | exception Sys_error msg ->
        Dpobs.Log.error "--cache: %s" msg;
        exit 1);
      Some dir
  in
  Term.(
    const prepare
    $ Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR" ~doc))

(* --- self-telemetry options (lib/obs) --- *)

type obs_opts = {
  trace_out : string option;
  metrics_out : string option;
  log_level : Dpobs.Log.level option;
  progress : bool;
}

let obs_opts_term =
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Record timed spans of the analysis engine's own execution \
             and write them as Chrome trace-event JSON: one track per \
             domain, one span per pipeline stage. Open the file in \
             Perfetto (ui.perfetto.dev) or chrome://tracing.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the engine's telemetry registry (counters, gauges, \
             histograms: pool utilisation, codec bytes/frames, index \
             cache hits) as JSON.")
  in
  let log_level =
    let level =
      Arg.enum
        [
          ("error", Dpobs.Log.Error);
          ("warn", Dpobs.Log.Warn);
          ("info", Dpobs.Log.Info);
          ("debug", Dpobs.Log.Debug);
        ]
    in
    Arg.(
      value
      & opt (some level) None
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:
            "Diagnostic verbosity: error, warn (default), info or debug. \
             The DRIVEPERF_LOG environment variable sets the same knob; \
             this flag wins.")
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "Draw a live progress line (items/sec, ETA) on stderr for \
             long runs, driven by the engine's own counters. \
             Automatically disabled when stderr is not a terminal.")
  in
  let combine trace_out metrics_out log_level progress =
    { trace_out; metrics_out; log_level; progress }
  in
  Term.(
    const combine $ out_path_opt trace_out $ out_path_opt metrics_out $ log_level
    $ progress)

(* Apply the observability options around a command body: arm the
   requested recorders before any work (including corpus loading) and
   flush the exports after. [metrics] forces the registry on for commands
   that print from it regardless of --metrics-out. *)
let with_obs ?(metrics = false) o f =
  Dpobs.Log.init_from_env ();
  (match o.log_level with Some l -> Dpobs.Log.set_level l | None -> ());
  if o.trace_out <> None then Dpobs.enable ~metrics:false ();
  if metrics || o.metrics_out <> None || o.trace_out <> None || o.progress then
    Dpobs.enable ~spans:false ~metrics:true ();
  let code = f () in
  (match o.trace_out with
  | Some path ->
    Dpobs.Export.write_chrome_trace path;
    Dpobs.Log.info "wrote engine trace %s (open in Perfetto)" path
  | None -> ());
  (match o.metrics_out with
  | Some path ->
    Dpobs.Export.write_metrics path;
    Dpobs.Log.info "wrote engine metrics %s" path
  | None -> ());
  code

(* Progress over a named engine counter; a no-op without --progress or a
   tty, and transparent to the wrapped computation either way. *)
let with_progress o ~label ~total counter_name f =
  if not o.progress then f ()
  else
    match
      Dpobs.Progress.start ~label ~total (Dpobs.Metrics.counter counter_name)
    with
    | None -> f ()
    | Some p -> Fun.protect ~finally:(fun () -> Dpobs.Progress.finish p) f

(* --- the set-up shared by impact, causality, report and analyze ---

   One term for their common flags (-c, -j, --strict/--recover,
   --fault-plan and the telemetry options). It yields a runner that arms
   telemetry, then the fault plan, then a pool of -j domains. The body
   reads the corpus itself, by folding it ([source]), mostly into a
   report ([fold_results]). Nothing is read before the body. Commands with
   other flags make the same set-up with [with_setup]. *)

type setup = {
  path : string option;  (** [-c]; [None] for the generated corpus *)
  mode : Dptrace.Codec_v2.mode;
  pool : Dppar.Pool.t;
  obs : obs_opts;
  k : int;  (** the mining depth: [causality -k], otherwise the default *)
}

(* Run [f] with the set-up of -j [j] domains; a command without -j
   runs on one. *)
let with_setup ~j ~mode ~obs path f =
  with_cli_pool j @@ fun pool ->
  f { path; mode; pool; obs; k = Dpcore.Mining.default_k }

let no_obs = { trace_out = None; metrics_out = None; log_level = None; progress = false }

let setup_term =
  let run path j mode faults obs f =
    with_obs obs @@ fun () ->
    with_faults faults @@ fun () -> with_setup ~j ~mode ~obs path f
  in
  Term.(
    const run $ corpus_arg $ domains_arg $ mode_arg $ fault_arg
    $ obs_opts_term)

(* The --cache snapshot for this configuration, opened by the fold
   when it meets the first stream, the first to know the specs the
   fingerprint covers. *)
let snapshot_of ~components dir specs =
  let fingerprint =
    Dpcore.Snapshot.fingerprint ~components ~specs ~k:Dpcore.Mining.default_k ()
  in
  Dpcore.Snapshot.create ~dir ~fingerprint ()

(* The one read of the corpus, handed over stream by stream: the corpus
   file, read a window of streams at a time, or the generated corpus,
   built whole first. What [consume] returns stays: mostly skeletons. *)
let source s ~step ~consume =
  let pool = s.pool in
  match s.path with
  | Some path ->
    (check_read path (Dptrace.Corpus_dir.fold ~pool ~mode:s.mode ~step ~consume path))
      .Dptrace.Corpus_dir.l_corpus
  | None ->
    let c = Lazy.force generated in
    Dptrace.Corpus_dir.fold_streams ~pool ~step ~consume (fun push ->
        List.iter (push c.Dptrace.Corpus.specs) c.Dptrace.Corpus.streams;
        c.Dptrace.Corpus.specs)

(* [source] for a fold whose skeletons get their events back
   ([with_events]): each skeleton carries its stream's content key. *)
let keyed s ~step ~consume = source s ~consume ~step:(Dpcore.Explorer.keyed step)

(* [kept], the skeletons a fold kept, with the events of those [wanted]
   accepts back, reloaded by content key from the file the fold read
   (or the generated corpus). A stream no longer there is one error
   line and exit 1. *)
let with_events s (kept : Dptrace.Corpus.t) wanted =
  let reload skeletons =
    match s.path with
    | Some path -> Dptrace.Corpus_dir.reload ~pool:s.pool ~mode:s.mode path skeletons
    | None -> Ok (Lazy.force generated).Dptrace.Corpus.streams
  in
  let streams = kept.Dptrace.Corpus.streams in
  match Dpcore.Explorer.with_events [ (streams, reload) ] (List.filter wanted streams) with
  | Ok back -> { kept with Dptrace.Corpus.streams = List.map back streams }
  | Error msg ->
    Dpobs.Log.error "%s" msg;
    exit 1

(* The streams that hold an instance of [scenario]. *)
let holds scenario (st : Dptrace.Stream.t) =
  List.exists
    (fun (i : Dptrace.Scenario.instance) -> i.Dptrace.Scenario.scenario = scenario)
    st.Dptrace.Stream.instances

(* The analysis behind impact, report, analyze and the one-scenario
   commands ([with_scenario], never with --cache): the kept corpus with
   the coverage, and the report (its scenario tails under the --progress
   line), handed to the body. Under --cache the step looks each stream
   up in the cache, analysing only the misses, and the cache is written
   back after the body. *)
let fold_results ?scenarios ~cache ~components s source f =
  let pool = s.pool in
  let acc, corpus, coverage, snapshot =
    Dpcore.Pipeline.fold_report ~k:s.k ?scenarios
      ~cache:(Option.map (snapshot_of ~components) cache)
      components source
  in
  let total =
    List.length (Option.value scenarios ~default:(Dptrace.Corpus.scenario_names corpus))
  in
  let r =
    f (corpus, coverage)
      (with_progress s.obs ~label:"scenarios" ~total "pipeline.scenarios_done"
         (fun () -> Dpcore.Pipeline.finish ~pool acc corpus))
  in
  Option.iter
    (fun snap ->
      Dpcore.Snapshot.save snap;
      let s = Dpcore.Snapshot.stats snap in
      Dpobs.Log.info
        "cache %s: %d hit(s), %d miss(es), %d stale, %d loaded, %d dropped"
        (Option.get cache) s.Dpcore.Snapshot.s_hits s.Dpcore.Snapshot.s_misses
        s.Dpcore.Snapshot.s_stale s.Dpcore.Snapshot.s_loaded
        s.Dpcore.Snapshot.s_dropped)
    snapshot;
  r

(* The one-scenario commands: the report of [scenario] alone, read by
   [read] ([keyed] for the commands that take events back with
   [with_events]), its kept corpus of skeletons and coverage handed to
   the body with the scenario's result. A name without a spec stops the
   fold when it is handed the specs, on this domain, before any stream
   is stepped. *)
let with_scenario ~components s read scenario f =
  let exception No_spec in
  let source ~step ~consume =
    read s
      ~step:(fun specs ->
        if List.exists (fun (sp : Dptrace.Scenario.spec) -> sp.name = scenario) specs
        then step specs
        else raise No_spec)
      ~consume
  in
  match
    fold_results ~scenarios:[ scenario ] ~cache:None ~components s source
    @@ fun kept r -> (kept, List.assoc_opt scenario r.Dpcore.Pipeline.scenarios)
  with
  | kept, Some r -> f kept r
  | _, None | (exception No_spec) -> no_spec scenario

(* --- generate --- *)

let generate seed scale no_cross cores out =
  let config =
    {
      Dpworkload.Corpus_gen.default_config with
      seed;
      scale;
      cross_traffic = not no_cross;
      cores = (if cores <= 0 then None else Some cores);
    }
  in
  let corpus = Dpworkload.Corpus_gen.generate config in
  let fmt, _ = Dptrace.Corpus_dir.save out corpus in
  Format.printf "%a@.wrote %s (%s format)@." Dptrace.Corpus.pp_summary corpus
    out
    (Dptrace.Corpus_dir.format_name fmt);
  0

let generate_cmd =
  let out =
    Arg.(
      value
      & opt string "corpus.dpt"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output path.")
  in
  let no_cross =
    Arg.(
      value & flag
      & info [ "no-cross-traffic" ]
          ~doc:
            "Disable background cross-traffic (AntiVirus/ConfigManager \
             contention): a calm corpus, useful as a monitor baseline \
             against which a default (contended) corpus registers as a \
             regression.")
  in
  let cores =
    Arg.(
      value & opt int 0
      & info [ "cores" ] ~docv:"N"
          ~doc:
            "Engage the engine's N-core run-queue model (CPU pressure). 0 \
             (default) models unbounded capacity, the regime the paper's \
             numbers live in. Low values synthesise a CPU-starved fleet — \
             an injectable regression for monitor tests.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Synthesise a trace corpus")
    Term.(const generate $ seed_arg $ scale_arg $ no_cross $ cores $ out_path out)

(* --- impact --- *)

let impact pats breakdown per_scenario cache run =
  run @@ fun s ->
  let components = components_of pats in
  fold_results ~scenarios:[] ~cache ~components s (source s) @@ fun (_, coverage) r ->
  print_coverage coverage;
  Dputil.Table.print (Dpcore.Report.impact_summary r.Dpcore.Pipeline.impact);
  if breakdown then begin
    print_newline ();
    Dputil.Table.print (Dpcore.Report.module_breakdown r.Dpcore.Pipeline.modules)
  end;
  if per_scenario then begin
    print_newline ();
    Dputil.Table.print
      (Dpcore.Report.scenario_impacts r.Dpcore.Pipeline.per_scenario)
  end;
  0

let impact_cmd =
  let breakdown =
    Arg.(
      value & flag
      & info [ "by-module" ]
          ~doc:"Also print the per-driver-module attribution table.")
  in
  let per_scenario =
    Arg.(
      value & flag
      & info [ "per-scenario" ] ~doc:"Also print the per-scenario IA table.")
  in
  Cmd.v
    (Cmd.info "impact" ~doc:"Impact analysis (Section 3)")
    Term.(
      const impact $ components_arg $ breakdown $ per_scenario $ cache_term
      $ setup_term)

(* --- causality --- *)

let causality pats scenario k top run =
  run @@ fun s ->
  let components = components_of pats in
  with_scenario ~components { s with k } source scenario @@ fun (corpus, coverage) r ->
  print_coverage coverage;
  let f, m, s = Dpcore.Classify.counts r.Dpcore.Pipeline.classification in
  Format.printf "scenario %s: %d instances (fast %d / middle %d / slow %d)@."
    scenario (f + m + s) f m s;
  let durations =
    Dptrace.Corpus.instances_of corpus scenario
    |> List.map (fun (_, i) ->
           Dputil.Time.to_ms_float (Dptrace.Scenario.duration i))
    |> Array.of_list
  in
  let spec = r.Dpcore.Pipeline.classification.Dpcore.Classify.spec in
  print_string
    (Dputil.Histogram.render_with_markers
       ~markers:
         [
           ("T_fast", Dputil.Time.to_ms_float spec.Dptrace.Scenario.tfast);
           ("T_slow", Dputil.Time.to_ms_float spec.Dptrace.Scenario.tslow);
         ]
       (Dputil.Histogram.create ~buckets:14 durations));
  Format.printf "%s@." (Dpcore.Report.awg_summary r.Dpcore.Pipeline.slow_awg);
  let mining = r.Dpcore.Pipeline.mining in
  Format.printf
    "meta-patterns: %d fast-class, %d slow-class; %d contrasts; %d contrast \
     patterns@."
    mining.Dpcore.Mining.fast_meta_count mining.Dpcore.Mining.slow_meta_count
    (List.length mining.Dpcore.Mining.contrast_metas)
    (List.length mining.Dpcore.Mining.patterns);
  Format.printf "ITC=%s TTC=%s@."
    (Dpcore.Report.pct r.Dpcore.Pipeline.coverages.Dpcore.Evaluation.itc)
    (Dpcore.Report.pct r.Dpcore.Pipeline.coverages.Dpcore.Evaluation.ttc);
  print_string (Dpcore.Report.top_patterns mining.Dpcore.Mining.patterns ~n:top);
  0

let causality_cmd =
  let scenario =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO" ~doc:"Scenario name, e.g. BrowserTabCreate.")
  in
  let k =
    Arg.(
      value & opt positive_int Dpcore.Mining.default_k
      & info [ "k" ] ~docv:"K" ~doc:"Maximum path-segment length.")
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Patterns to print.")
  in
  Cmd.v
    (Cmd.info "causality" ~doc:"Causality analysis (Section 4)")
    Term.(
      const causality $ components_arg $ scenario $ k $ top $ setup_term)

(* --- report --- *)

let report json cache run =
  run @@ fun s ->
  if json then Dpcore.Provenance.enable ();
  let scenario_names =
    List.map
      (fun (tpl : Dpworkload.Scenarios.template) ->
        tpl.Dpworkload.Scenarios.spec.Dptrace.Scenario.name)
      Dpworkload.Scenarios.named
  in
  fold_results ~scenarios:scenario_names ~cache
    ~components:Dpcore.Component.drivers s (source s)
  @@ fun (_, cov)
         { Dpcore.Pipeline.impact; impact_prov; modules; scenarios = named; _ } ->
  if json then
    Dputil.Jsonw.output stdout
      (Dpcore.Report.Json.document ~coverage:cov ~impact ~impact_prov
         ~modules ~scenarios:named ())
  else begin
    print_coverage cov;
    Dputil.Table.print (Dpcore.Report.impact_summary impact);
    let classes =
      List.map (fun (n, r) -> (n, r.Dpcore.Pipeline.classification)) named
    in
    print_newline ();
    Dputil.Table.print (Dpcore.Report.scenario_classes classes);
    print_newline ();
    Dputil.Table.print (Dpcore.Report.coverages named);
    print_newline ();
    Dputil.Table.print (Dpcore.Report.ranking named);
    print_newline ();
    Dputil.Table.print
      (Dpcore.Report.driver_types named
         ~type_names:
           (List.map Dpworkload.Taxonomy.type_name Dpworkload.Taxonomy.all_types)
         ~type_of:Dpworkload.Taxonomy.type_name_of_signature)
  end;
  0

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the same results as one structured JSON document on \
           stdout instead of text tables. Enables provenance recording, \
           so every impact figure, module row and mined pattern carries \
           the trace events and scenario instances behind it.")

let report_cmd =
  Cmd.v
    (Cmd.info "report" ~doc:"Regenerate the paper's tables")
    Term.(
      const report $ json_arg $ cache_term $ setup_term)

(* --- case --- *)

let case () =
  let case = Dpworkload.Motivating_case.build () in
  print_string (Dpworkload.Motivating_case.describe case);
  print_newline ();
  print_string
    (Dptrace.Timeline.render_instance case.Dpworkload.Motivating_case.stream
       case.Dpworkload.Motivating_case.browser_instance);
  print_newline ();
  let wg =
    Dpwaitgraph.Wait_graph.build case.Dpworkload.Motivating_case.stream
      case.Dpworkload.Motivating_case.browser_instance
  in
  Format.printf "%a@." Dpwaitgraph.Wait_graph.pp wg;
  let corpus = Dpworkload.Motivating_case.corpus () in
  let r =
    Dpcore.Pipeline.run_scenario Dpcore.Component.drivers corpus
      "BrowserTabCreate"
  in
  print_endline "Aggregated Wait Graph of the slow class (Figure 2):";
  print_string (Dpcore.Awg.render r.Dpcore.Pipeline.slow_awg);
  print_endline "Top contrast patterns:";
  print_string
    (Dpcore.Report.top_patterns r.Dpcore.Pipeline.mining.Dpcore.Mining.patterns ~n:3);
  0

let case_cmd =
  Cmd.v
    (Cmd.info "case" ~doc:"Print the Figure 1 motivating case")
    Term.(const case $ const ())

(* --- validate --- *)

let validate corpus mode =
  let corpus = read_corpus ~mode corpus in
  match Dptrace.Validate.check_corpus corpus with
  | [] ->
    Format.printf "%a@.OK: no violations@." Dptrace.Corpus.pp_summary corpus;
    0
  | violations ->
    List.iter
      (fun (sid, v) ->
        Format.printf "stream %d: %a@." sid Dptrace.Validate.pp_violation v)
      violations;
    1

let validate_cmd =
  Cmd.v
    (Cmd.info "validate" ~doc:"Structural checks over a corpus")
    Term.(const validate $ corpus_arg $ mode_arg)

(* --- dot --- *)

let dot corpus scenario out mode =
  with_setup ~j:1 ~mode ~obs:no_obs corpus @@ fun s ->
  with_scenario ~components:Dpcore.Component.drivers s source scenario
  @@ fun (_, coverage) r ->
  if out <> None then print_coverage coverage;
  let text = Dpcore.Awg.to_dot r.Dpcore.Pipeline.slow_awg in
  (match out with
  | Some path ->
    Dputil.Fs.write_file path output_string text;
    Printf.printf "wrote %s (render with: dot -Tsvg %s)\n" path path
  | None -> print_string text);
  0

let dot_cmd =
  let scenario =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO" ~doc:"Scenario whose slow-class AWG to render.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output path (stdout if absent).")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Render a scenario's Aggregated Wait Graph as Graphviz")
    Term.(const dot $ corpus_arg $ scenario $ out_path_opt out $ mode_arg)

(* --- anonymize --- *)

let anonymize corpus out mapping_out keep_scenarios mode =
  let corpus = read_corpus ~mode corpus in
  let anonymised, mapping = Dptrace.Anonymize.corpus ~keep_scenarios corpus in
  (* The rename table first: a --mapping path that cannot be written
     fails the command before the corpus is written. *)
  Option.iter
    (fun path ->
      Dputil.Fs.write_file path
        (fun oc -> List.iter (fun (a, b) -> Printf.fprintf oc "%s -> %s\n" a b))
        mapping)
    mapping_out;
  ignore (Dptrace.Corpus_dir.save out anonymised);
  (match mapping_out with
  | Some path ->
    Printf.printf "wrote %s and mapping %s (%d renames)\n" out path
      (List.length mapping)
  | None -> Printf.printf "wrote %s (%d renames)\n" out (List.length mapping));
  0

let anonymize_cmd =
  let out =
    Arg.(
      value
      & opt string "anonymized.dpt"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output corpus path.")
  in
  let mapping =
    Arg.(
      value
      & opt (some string) None
      & info [ "mapping" ] ~docv:"FILE" ~doc:"Where to write the rename table.")
  in
  let keep =
    Arg.(value & flag & info [ "keep-scenarios" ] ~doc:"Preserve scenario names.")
  in
  Cmd.v
    (Cmd.info "anonymize" ~doc:"Scrub driver/function/thread names from a corpus")
    Term.(
      const anonymize $ corpus_arg $ out_path out $ out_path_opt mapping $ keep $ mode_arg)

(* --- import-etw --- *)

let import_etw input out specs =
  match Dptrace.Etw.load input with
  | exception Dptrace.Fields.Parse_error { line; message } ->
    Dpobs.Log.error "%s:%d: %s" input line message;
    1
  | exception Sys_error msg ->
    Dpobs.Log.error "%s: %s" input msg;
    1
  | stream ->
    let corpus = Dptrace.Corpus.create ~streams:[ stream ] ~specs in
    (match Dptrace.Validate.check_corpus corpus with
    | [] -> ()
    | violations ->
      List.iter
        (fun (sid, v) ->
          Dpobs.Log.warn "stream %d: %a" sid Dptrace.Validate.pp_violation v)
        violations);
    ignore (Dptrace.Corpus_dir.save out corpus);
    Format.printf "%a@.wrote %s@." Dptrace.Corpus.pp_summary corpus out;
    0

let import_etw_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"DUMP" ~doc:"xperf-style dump file (see Dptrace.Etw).")
  in
  let out =
    Arg.(
      value
      & opt string "imported.dpt"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output corpus path.")
  in
  let spec =
    let parse text =
      let bad = Error (`Msg "want NAME:TFAST_MS:TSLOW_MS, 0 < TFAST <= TSLOW") in
      match String.split_on_char ':' text with
      | [ name; tfast; tslow ] -> (
        let ms s = Dputil.Time.ms (int_of_string s) in
        try Ok (Dptrace.Scenario.spec ~name ~tfast:(ms tfast) ~tslow:(ms tslow))
        with Failure _ | Invalid_argument _ -> bad)
      | _ -> bad
    in
    Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt s.Dptrace.Scenario.name)
  in
  let specs =
    Arg.(
      value & opt_all spec []
      & info [ "spec" ] ~docv:"NAME:TFAST_MS:TSLOW_MS"
          ~doc:"Scenario thresholds (repeatable).")
  in
  Cmd.v
    (Cmd.info "import-etw" ~doc:"Convert an xperf-style dump to a corpus")
    Term.(const import_etw $ input $ out_path out $ specs)

(* --- convert --- *)

let convert input out j mode faults obs =
  with_obs obs @@ fun () ->
  with_faults faults @@ fun () ->
  with_cli_pool j @@ fun pool ->
  let { Dptrace.Corpus_dir.l_corpus = corpus; l_format; l_bytes; _ } =
    load_corpus ~pool ~mode input
  in
  let out_format, out_bytes =
    with_progress obs ~label:"streams"
      ~total:(List.length corpus.Dptrace.Corpus.streams)
      "codec_v2.streams_written" (fun () ->
        Dptrace.Corpus_dir.save ~pool out corpus)
  in
  let name = Dptrace.Corpus_dir.format_name in
  Format.printf "%a@.%s (%s, %d bytes) -> %s (%s, %d bytes)@."
    Dptrace.Corpus.pp_summary corpus input (name l_format) l_bytes out
    (name out_format) out_bytes;
  0

let convert_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"IN" ~doc:"Input corpus (any format, auto-detected).")
  in
  let out =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"OUT"
          ~doc:
            "Output path; the extension selects the format (.dpf framed \
             v2, anything else text v1).")
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:"Re-encode a corpus (e.g. upgrade a v1 file to framed v2)")
    Term.(
      const convert $ input $ out_path out $ domains_arg $ mode_arg $ fault_arg
      $ obs_opts_term)

(* --- diff --- *)

let diff before after scenario threshold min_support json mode =
  let run path =
    with_setup ~j:1 ~mode ~obs:no_obs (Some path) @@ fun s ->
    with_scenario ~components:Dpcore.Component.drivers s source scenario
    @@ fun (_, coverage) r ->
    if not json then print_coverage coverage;
    r
  in
  let rb = run before in
  let ra = run after in
  let entries =
    Dpcore.Diff.compare_patterns ~threshold ~min_support
      ~before:rb.Dpcore.Pipeline.mining.Dpcore.Mining.patterns
      ~after:ra.Dpcore.Pipeline.mining.Dpcore.Mining.patterns ()
  in
  if json then
    print_string
      (Dputil.Jsonw.to_string
         (Dpcore.Diff.json_document ~scenario ~threshold ~min_support entries))
  else begin
    Printf.printf "%s\n" (Dpcore.Diff.summary entries);
    List.iter
      (fun e ->
        match e.Dpcore.Diff.change with
        | Dpcore.Diff.Stable -> ()
        | _ -> Format.printf "%a@." Dpcore.Diff.pp_entry e)
      entries
  end;
  0

let min_support_arg =
  let doc =
    "Instance-count floor for a pattern verdict: appeared/regressed \
     (and disappeared) entries covering fewer instances classify as \
     stable, so one-off patterns cannot raise noise."
  in
  Arg.(value & opt int 1 & info [ "min-support" ] ~docv:"N" ~doc)

let diff_cmd =
  let before =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"BEFORE" ~doc:"Old corpus.")
  in
  let after =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"AFTER" ~doc:"New corpus.")
  in
  let scenario =
    Arg.(required & pos 2 (some string) None & info [] ~docv:"SCENARIO" ~doc:"Scenario.")
  in
  let threshold =
    Arg.(
      value & opt float 1.5
      & info [ "threshold" ] ~docv:"R" ~doc:"Avg-cost regression factor.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the diff as JSON (the schema the monitor's alert log \
             embeds) instead of text.")
  in
  Cmd.v
    (Cmd.info "diff" ~doc:"Compare mined patterns across two corpora")
    Term.(
      const diff $ before $ after $ scenario $ threshold $ min_support_arg
      $ json $ mode_arg)

(* --- baseline --- *)

let baseline corpus mode =
  let corpus = read_corpus ~mode corpus in
  let cg = Dpbaseline.Callgraph.profile corpus in
  Format.printf "call-graph profile: total CPU %a, driver share %s@."
    Dputil.Time.pp
    (Dpbaseline.Callgraph.total_cpu cg)
    (Dpcore.Report.pct
       (Dpbaseline.Callgraph.fraction_matching cg (fun s ->
            Dpcore.Component.matches_signature Dpcore.Component.drivers s)));
  List.iter
    (fun row -> Format.printf "  %a@." Dpbaseline.Callgraph.pp_row row)
    (Dpbaseline.Callgraph.top cg ~n:8);
  let lp = Dpbaseline.Lock_profiler.analyze corpus in
  Format.printf "@.lock contention sites (total blocked %a):@." Dputil.Time.pp
    (Dpbaseline.Lock_profiler.total_wait lp);
  List.iter
    (fun site -> Format.printf "  %a@." Dpbaseline.Lock_profiler.pp_site site)
    (Dpbaseline.Lock_profiler.top lp ~n:8);
  Format.printf "@.StackMine-style costly stack patterns:@.";
  List.iter
    (fun p -> Format.printf "  %a@." Dpbaseline.Stackmine.pp_pattern p)
    (Dpbaseline.Stackmine.top (Dpbaseline.Stackmine.mine corpus) ~n:8);
  0

let baseline_cmd =
  Cmd.v
    (Cmd.info "baseline" ~doc:"Run the Section 6 baseline analyses")
    Term.(const baseline $ corpus_arg $ mode_arg)

(* --- witness --- *)

let witness path scenario rank limit mode =
  with_setup ~j:1 ~mode ~obs:no_obs path @@ fun s ->
  with_scenario ~components:Dpcore.Component.drivers s keyed scenario
  @@ fun (kept, coverage) r ->
  print_coverage coverage;
  let patterns = r.Dpcore.Pipeline.mining.Dpcore.Mining.patterns in
  match List.nth_opt patterns (rank - 1) with
  | None ->
    Printf.eprintf "only %d patterns mined for %s\n" (List.length patterns) scenario;
    1
  | Some pattern ->
    Format.printf "pattern #%d:@.%a@.@." rank Dpcore.Mining.pp_pattern pattern;
    let ws =
      Dpcore.Explorer.witnesses ~limit Dpcore.Component.drivers
        (with_events s kept (holds scenario))
        ~scenario ~pattern ()
    in
    if ws = [] then print_endline "no witness instance found";
    List.iter (fun w -> print_string (Dpcore.Explorer.render w)) ws;
    (match ws with
    | w :: _ ->
      print_newline ();
      print_string
        (Dptrace.Timeline.render_instance w.Dpcore.Explorer.stream
           w.Dpcore.Explorer.instance)
    | [] -> ());
    0

let witness_cmd =
  let scenario =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO" ~doc:"Scenario name.")
  in
  let rank =
    Arg.(
      value & opt positive_int 1
      & info [ "rank" ] ~docv:"N" ~doc:"Which ranked pattern to trace back (1-based).")
  in
  let limit =
    Arg.(value & opt int 3 & info [ "limit" ] ~docv:"N" ~doc:"Witnesses to print.")
  in
  Cmd.v
    (Cmd.info "witness"
       ~doc:"Trace a mined pattern back to concrete scenario instances")
    Term.(const witness $ corpus_arg $ scenario $ rank $ limit $ mode_arg)

(* --- explain: provenance-tracked drill-down --- *)

let explain_component ~timeline events (prov : Dpcore.Provenance.impact) name =
  match List.assoc_opt name prov.Dpcore.Provenance.by_module with
  | None ->
    Printf.eprintf "no provenance recorded for module %s (known: %s)\n" name
      (String.concat ", " (List.map fst prov.Dpcore.Provenance.by_module));
    1
  | Some topk ->
    let records = Dpcore.Provenance.Topk.to_list topk in
    let named (st : Dptrace.Stream.t) (wr : Dpcore.Provenance.wait_record) =
      wr.Dpcore.Provenance.wr_ref.Dpcore.Provenance.stream_id = st.Dptrace.Stream.id
    in
    let corpus = events (fun st -> List.exists (named st) records) in
    Format.printf
      "module %s: %d costliest distinct wait events behind its \
       D_wait/D_waitdist@."
      name (List.length records);
    List.iteri
      (fun i wr ->
        Format.printf "@.#%d  %a@." (i + 1) Dpcore.Provenance.pp_wait_record wr;
        match Dpcore.Explorer.resolve_ref corpus wr.Dpcore.Provenance.wr_ref with
        | Some (st, inst) ->
          print_string
            (Dpcore.Explorer.render_event_window st
               ~event_id:wr.Dpcore.Provenance.wr_event);
          if timeline then
            print_string (Dptrace.Timeline.render_instance st inst)
        | None -> ())
      records;
    0

let explain_pattern ~timeline components events r scenario rank limit =
  let patterns = r.Dpcore.Pipeline.mining.Dpcore.Mining.patterns in
  match List.nth_opt patterns (rank - 1) with
  | None ->
    Printf.eprintf "only %d patterns mined for %s\n" (List.length patterns)
      scenario;
    1
  | Some pattern ->
    Format.printf "scenario %s, contrast pattern #%d of %d:@.%a@." scenario
      rank (List.length patterns) Dpcore.Mining.pp_pattern pattern;
    (* 1. The aggregated propagation paths this tuple came from. *)
    let paths =
      List.filter
        (fun path ->
          Dpcore.Tuple.equal (Dpcore.Tuple.of_segment path)
            pattern.Dpcore.Mining.tuple)
        (Dpcore.Awg.full_paths r.Dpcore.Pipeline.slow_awg)
    in
    Format.printf "@.aggregated propagation path(s) in the slow-class AWG:@.";
    List.iteri
      (fun i path ->
        Format.printf "path #%d:@." (i + 1);
        List.iteri
          (fun depth (node : Dpcore.Awg.node) ->
            Format.printf "%s%a  C=%a N=%d max=%a@."
              (String.make (2 * (depth + 1)) ' ')
              Dpcore.Awg.status_pp node.Dpcore.Awg.status Dputil.Time.pp
              node.Dpcore.Awg.cost node.Dpcore.Awg.count Dputil.Time.pp
              node.Dpcore.Awg.max_cost)
          path)
      paths;
    (* 2. The scenario instances the aggregation recorded as support. *)
    let entries = Dpcore.Provenance.Wset.entries pattern.Dpcore.Mining.witnesses in
    Format.printf "@.slow-class witness instances (provenance, cost-ranked):@.";
    List.iter
      (fun (iref, cost, count) ->
        Format.printf "  %a  contributed=%a over %d event(s)@."
          Dpcore.Provenance.pp_ref iref Dputil.Time.pp cost count)
      entries;
    let fast = Dpcore.Provenance.Wset.entries pattern.Dpcore.Mining.fast_witnesses in
    if fast <> [] then
      Format.printf
        "fast-class counterparts: %d instance(s), costliest %a@."
        (List.length fast)
        Dputil.Time.pp
        (match fast with (_, c, _) :: _ -> c | [] -> 0);
    (* 3. Concrete matched chains with raw event windows. *)
    let ws =
      Dpcore.Explorer.witnesses ~limit components (events (holds scenario))
        ~scenario ~pattern ()
    in
    if ws = [] then print_endline "\nno concrete witness chain found"
    else
      List.iter
        (fun w ->
          print_newline ();
          print_string (Dpcore.Explorer.render w);
          print_string (Dpcore.Explorer.render_chain_events w);
          if timeline then
            print_string
              (Dptrace.Timeline.render_instance w.Dpcore.Explorer.stream
                 w.Dpcore.Explorer.instance))
        ws;
    0

let explain path scenario rank component limit timeline j mode obs =
  with_obs obs @@ fun () ->
  Dpcore.Provenance.enable ();
  let components = Dpcore.Component.drivers in
  with_setup ~j ~mode ~obs path @@ fun s ->
  match (component, scenario) with
  | Some name, _ ->
    fold_results ~scenarios:[] ~cache:None ~components s (keyed s)
    @@ fun (kept, coverage) r ->
    print_coverage coverage;
    explain_component ~timeline (with_events s kept) r.Dpcore.Pipeline.impact_prov
      name
  | None, Some scenario ->
    with_scenario ~components s keyed scenario @@ fun (kept, coverage) r ->
    print_coverage coverage;
    explain_pattern ~timeline components (with_events s kept) r scenario rank limit
  | None, None ->
    prerr_endline
      "explain: give a SCENARIO (pattern drill-down) or --component MODULE";
    1

let explain_cmd =
  let scenario =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO"
          ~doc:"Scenario whose ranked contrast pattern to explain.")
  in
  let rank =
    Arg.(
      value & opt positive_int 1
      & info [ "rank"; "pattern" ] ~docv:"N"
          ~doc:"Which ranked pattern to drill into (1-based, default 1).")
  in
  let component =
    Arg.(
      value
      & opt (some string) None
      & info [ "component"; "module" ] ~docv:"MODULE"
          ~doc:
            "Explain a component module (e.g. storahci.sys) instead: the \
             top-K costliest distinct wait events behind its impact \
             figures, each with its raw trace window.")
  in
  let limit =
    Arg.(
      value & opt int 2
      & info [ "limit" ] ~docv:"N" ~doc:"Concrete witness chains to print.")
  in
  let timeline =
    Arg.(
      value & flag
      & info [ "timeline" ]
          ~doc:
            "Also draw each witness instance's window as the Figure 1 \
             ASCII thread timeline.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Drill an analysis result down to the raw trace events behind it \
          (pattern -> AWG path -> witness instances -> event windows)")
    Term.(
      const explain $ corpus_arg $ scenario $ rank $ component $ limit
      $ timeline $ domains_arg $ mode_arg $ obs_opts_term)

(* --- stats --- *)

let stats corpus mode faults obs =
  (* Counters first, via the telemetry registry ([Corpus_stats.publish]):
     the same numbers any instrumented run exports with --metrics-out. *)
  with_obs ~metrics:true obs @@ fun () ->
  with_faults faults @@ fun () ->
  let corpus = read_corpus ~mode corpus in
  let s = Dptrace.Corpus_stats.compute corpus in
  Dptrace.Corpus_stats.publish s;
  print_string (Dpobs.Metrics.render ~prefix:"corpus." ());
  print_newline ();
  print_string (Dptrace.Corpus_stats.render s);
  0

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"Descriptive statistics of a corpus")
    Term.(const stats $ corpus_arg $ mode_arg $ fault_arg $ obs_opts_term)

(* --- export-trace / flame: visual observability --- *)

let export_trace path scenario slow fast rank out pats j mode obs =
  with_obs obs @@ fun () ->
  let components = components_of pats in
  with_setup ~j ~mode ~obs path @@ fun s ->
  let exemplars =
    match rank with
    | None ->
      let kept, coverage =
        Dpcore.Pipeline.screen
          (keyed s
             ~step:(fun _ f -> Dptrace.Codec_v2.frame_skeleton f)
             ~consume:Option.some)
      in
      print_coverage coverage;
      if Dptrace.Corpus.find_spec kept scenario = None then no_spec scenario;
      Dpviz.Trace_export.exemplars_of_classes ~slow ~fast
        (Dpcore.Classify.classify (with_events s kept (holds scenario)) scenario)
    | Some rank -> (
      (* Provenance-resolved exemplars: the instances that realise the
         ranked contrast pattern, their matched chains as markers. *)
      Dpcore.Provenance.enable ();
      with_scenario ~components s keyed scenario @@ fun (kept, coverage) r ->
      print_coverage coverage;
      let patterns = r.Dpcore.Pipeline.mining.Dpcore.Mining.patterns in
      match List.nth_opt patterns (rank - 1) with
      | None ->
        Printf.eprintf "only %d patterns mined for %s\n"
          (List.length patterns) scenario;
        []
      | Some pattern ->
        Dpviz.Trace_export.exemplars_of_witnesses
          (Dpcore.Explorer.witnesses ~limit:slow components
             (with_events s kept (holds scenario))
             ~scenario ~pattern ()))
  in
  if exemplars = [] then begin
    Printf.eprintf "nothing to export for scenario %s\n" scenario;
    1
  end
  else begin
    Dputil.Fs.write_file out output_string
      (Dpviz.Trace_export.export ~components exemplars);
    Printf.printf
      "wrote %s (%d exemplar instance(s); open in https://ui.perfetto.dev \
       or chrome://tracing)\n"
      out (List.length exemplars);
    0
  end

let export_trace_cmd =
  let scenario =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO" ~doc:"Scenario whose instances to export.")
  in
  let slow =
    Arg.(
      value & opt int 3
      & info [ "slow" ] ~docv:"N"
          ~doc:
            "Slowest instances to export (with $(b,--rank): witness \
             instances of the pattern).")
  in
  let fast =
    Arg.(
      value & opt int 3
      & info [ "fast" ] ~docv:"N" ~doc:"Fastest instances to export.")
  in
  let rank =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "rank"; "pattern" ] ~docv:"N"
          ~doc:
            "Export the witness instances of the N-th ranked contrast \
             pattern instead of the duration exemplars, with the matched \
             chain flagged by markers.")
  in
  let out =
    Arg.(
      value & opt string "trace.json"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Output file (Chrome trace-event JSON).")
  in
  Cmd.v
    (Cmd.info "export-trace"
       ~doc:
         "Export scenario instances as a Perfetto-loadable trace (one \
          track per thread, wait-graph edges as flow arrows, \
          concurrent-waiters counter, instance and pattern markers)")
    Term.(
      const export_trace $ corpus_arg $ scenario $ slow $ fast $ rank $ out_path out
      $ components_arg $ domains_arg $ mode_arg $ obs_opts_term)

let flame path scenario out_dir slow fast top pats j mode obs =
  with_obs obs @@ fun () ->
  let components = components_of pats in
  with_setup ~j ~mode ~obs path @@ fun s ->
  with_scenario ~components s keyed scenario @@ fun (kept, coverage) r ->
  print_coverage coverage;
  let corpus = with_events s kept (holds scenario) in
  let r = { r with Dpcore.Pipeline.classification = Dpcore.Classify.classify corpus scenario } in
  let b = Dpviz.Bundle.write ~components ~slow ~fast ~dir:out_dir r in
  List.iter (Printf.printf "wrote %s\n") b.Dpviz.Bundle.files;
  let nf, _, ns = Dpcore.Classify.counts r.Dpcore.Pipeline.classification in
  Printf.printf
    "\nslow-vs-fast differential (%d slow vs %d fast instance(s)), \
     per-instance AWG cost growth:\n"
    ns nf;
  if b.Dpviz.Bundle.diff = [] then
    print_endline "  (no positive slow-minus-fast path)"
  else
    List.iteri
      (fun i (path, delta) ->
        if i < top then
          Printf.printf "  #%d  +%dus  %s\n" (i + 1) delta
            (String.concat ";" path))
      b.Dpviz.Bundle.diff;
  0

let flame_cmd =
  let scenario =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO" ~doc:"Scenario to profile.")
  in
  let out_dir =
    Arg.(
      value & opt string "views"
      & info [ "out-dir"; "o" ] ~docv:"DIR"
          ~doc:"Directory for the emitted artifacts (created if missing).")
  in
  let slow =
    Arg.(
      value & opt int 3
      & info [ "slow" ] ~docv:"N"
          ~doc:"Slow exemplars in the bundled Perfetto trace.")
  in
  let fast =
    Arg.(
      value & opt int 3
      & info [ "fast" ] ~docv:"N"
          ~doc:"Fast exemplars in the bundled Perfetto trace.")
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N"
          ~doc:"Differential paths to print (the files keep all).")
  in
  Cmd.v
    (Cmd.info "flame"
       ~doc:
         "Emit folded-stacks and speedscope flame views per contrast \
          class, plus the slow-vs-fast differential that attributes \
          IA_wait growth to its signature paths")
    Term.(
      const flame $ corpus_arg $ scenario $ out_path ~dir:true out_dir $ slow $ fast $ top
      $ components_arg $ domains_arg $ mode_arg $ obs_opts_term)

(* --- timeline --- *)

let timeline corpus stream_id instance_index width mode =
  with_setup ~j:1 ~mode ~obs:no_obs corpus @@ fun s ->
  let corpus =
    source s ~consume:Fun.id ~step:(fun _ f ->
        if (Dptrace.Codec_v2.frame_skeleton f).Dptrace.Stream.id <> stream_id then None
        else Some (Dptrace.Codec_v2.frame_stream f))
  in
  match
    List.find_opt
      (fun (st : Dptrace.Stream.t) -> st.Dptrace.Stream.id = stream_id)
      corpus.Dptrace.Corpus.streams
  with
  | None ->
    Printf.eprintf "no stream with id %d\n" stream_id;
    1
  | Some st -> (
    match instance_index with
    | None ->
      print_string (Dptrace.Timeline.render ~width st);
      0
    | Some i -> (
      match List.nth_opt st.Dptrace.Stream.instances i with
      | Some inst ->
        Format.printf "%a@." Dptrace.Scenario.pp_instance inst;
        print_string (Dptrace.Timeline.render_instance ~width st inst);
        0
      | None ->
        Printf.eprintf "stream %d has %d instances\n" stream_id
          (List.length st.Dptrace.Stream.instances);
        1))

let timeline_cmd =
  let stream_id =
    Arg.(
      required
      & pos 0 (some int) None
      & info [] ~docv:"STREAM" ~doc:"Stream id.")
  in
  let instance_index =
    Arg.(
      value
      & opt (some non_negative_int) None
      & info [ "instance" ] ~docv:"I" ~doc:"Zoom to the I-th instance (0-based).")
  in
  let width =
    Arg.(
      value & opt positive_int 72
      & info [ "width" ] ~docv:"COLS" ~doc:"Timeline columns.")
  in
  Cmd.v
    (Cmd.info "timeline" ~doc:"ASCII thread timeline of a trace stream")
    Term.(
      const timeline $ corpus_arg $ stream_id $ instance_index $ width
      $ mode_arg)

(* --- analyze: the one-shot full report --- *)

let analyze out json top_patterns_n cache run =
  run @@ fun s ->
  let components = Dpcore.Component.drivers in
  let write output x =
    match out with
    | Some path ->
      Dputil.Fs.write_file path output x;
      Printf.printf "wrote %s\n" path
    | None -> output stdout x
  in
  if json then begin
    Dpcore.Provenance.enable ();
    fold_results ~cache ~components s (source s)
    @@ fun (_, cov)
           { Dpcore.Pipeline.impact; impact_prov; modules; scenarios = named; _ } ->
    write Dputil.Jsonw.output
      (Dpcore.Report.Json.document ~coverage:cov ~impact ~impact_prov ~modules
         ~scenarios:named ());
    0
  end
  else begin
  (* Corpus statistics, witnesses and the baselines read events, so the
     text report's fold keeps each analysed stream whole. *)
  fold_results ~cache ~components s
    (fun ~step ~consume ->
      source s
        ~step:(fun specs ->
          let step = step specs in
          fun f ->
            let st = Dptrace.Codec_v2.frame_stream f in
            (st, step (Dptrace.Codec_v2.resident st)))
        ~consume:(fun (st, x) -> Option.map (fun _ -> st) (consume x)))
  @@ fun (corpus, cov) results ->
  let buf = Buffer.create 65536 in
  let line fmt = Format.kasprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let block text =
    Buffer.add_string buf "```\n";
    Buffer.add_string buf text;
    if text <> "" && text.[String.length text - 1] <> '\n' then
      Buffer.add_char buf '\n';
    Buffer.add_string buf "```\n\n"
  in
  line "# driveperf analysis report";
  line "";
  line "Corpus: %s"
    (match s.path with Some p -> p | None -> "(generated, default config)");
  line "";
  line "## Corpus";
  line "";
  block (Dptrace.Corpus_stats.render (Dptrace.Corpus_stats.compute corpus));
  if cov.Dpcore.Pipeline.cov_quarantined <> [] then begin
    line "### Coverage";
    line "";
    block (Dputil.Table.render (Dpcore.Report.stream_coverage cov))
  end;
  line "## Impact analysis (device drivers)";
  line "";
  block
    (Dputil.Table.render
       (Dpcore.Report.impact_summary results.Dpcore.Pipeline.impact));
  block
    (Dputil.Table.render
       (Dpcore.Report.module_breakdown results.Dpcore.Pipeline.modules));
  block
    (Dputil.Table.render
       (Dpcore.Report.scenario_impacts results.Dpcore.Pipeline.per_scenario));
  line "### Robustness";
  line "";
  block
    (Format.asprintf "%a" Dpcore.Robustness.pp
       (Dpcore.Robustness.bootstrap results.Dpcore.Pipeline.streams));
  line "## Causality analysis";
  (* Report every scenario with a spec and both classes non-empty. *)
  List.iter
    (fun (name, (r : Dpcore.Pipeline.scenario_result)) ->
        let f, m, sl = Dpcore.Classify.counts r.Dpcore.Pipeline.classification in
        if f > 0 && sl > 0 then begin
          line "";
          line "### %s" name;
          line "";
          line "- instances: %d (fast %d / middle %d / slow %d)" (f + m + sl) f m sl;
          line "- %s" (Dpcore.Report.awg_summary r.Dpcore.Pipeline.slow_awg);
          line "- ITC %s, TTC %s"
            (Dpcore.Report.pct r.Dpcore.Pipeline.coverages.Dpcore.Evaluation.itc)
            (Dpcore.Report.pct r.Dpcore.Pipeline.coverages.Dpcore.Evaluation.ttc);
          line "";
          let patterns = r.Dpcore.Pipeline.mining.Dpcore.Mining.patterns in
          block (Dpcore.Report.top_patterns patterns ~n:top_patterns_n);
          match patterns with
          | top :: _ -> (
            match
              Dpcore.Explorer.witnesses ~limit:1 components corpus ~scenario:name
                ~pattern:top ()
            with
            | w :: _ ->
              line "Top-pattern witness:";
              line "";
              block
                (Dpcore.Explorer.render w
                ^ "\n"
                ^ Dptrace.Timeline.render_instance w.Dpcore.Explorer.stream
                    w.Dpcore.Explorer.instance)
            | [] -> ())
          | [] -> ()
        end)
    results.Dpcore.Pipeline.scenarios;
  line "## What conventional tools would report";
  line "";
  let cg = Dpbaseline.Callgraph.profile corpus in
  line "- CPU profiling: drivers are %s of total CPU (%s) — the wait-side \
        impact above is invisible to it."
    (Dpcore.Report.pct
       (Dpbaseline.Callgraph.fraction_matching cg (fun s ->
            Dpcore.Component.matches_signature components s)))
    (Dputil.Time.to_string (Dpbaseline.Callgraph.total_cpu cg));
  let lp = Dpbaseline.Lock_profiler.analyze corpus in
  line "- Lock contention: %d isolated sites totalling %s of blocked time, \
        with no links between them."
    (List.length (Dpbaseline.Lock_profiler.sites lp))
    (Dputil.Time.to_string (Dpbaseline.Lock_profiler.total_wait lp));
  write Buffer.output_buffer buf;
  0
  end

let analyze_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the report here (stdout if absent).")
  in
  let top =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"N" ~doc:"Patterns listed per scenario.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Produce the full analyst report (impact + causality + witnesses)")
    Term.(
      const analyze $ out_path_opt out $ json_arg $ top $ cache_term $ setup_term)

(* --- cache: snapshot-cache directory maintenance --- *)

let cache_action action dir keep =
  let render fi =
    Printf.printf "%-40s  fp %s  %d entries  %d corrupt  %d bytes\n"
      (Filename.basename fi.Dpcore.Snapshot.fi_path)
      fi.Dpcore.Snapshot.fi_fingerprint fi.Dpcore.Snapshot.fi_entries
      fi.Dpcore.Snapshot.fi_corrupt fi.Dpcore.Snapshot.fi_bytes
  in
  match action with
  | `Stats ->
    let infos = List.map Dpcore.Snapshot.inspect (Dpcore.Snapshot.list_files dir) in
    List.iter render infos;
    let files = List.length infos in
    let entries =
      List.fold_left (fun a fi -> a + fi.Dpcore.Snapshot.fi_entries) 0 infos
    in
    let bytes =
      List.fold_left (fun a fi -> a + fi.Dpcore.Snapshot.fi_bytes) 0 infos
    in
    Printf.printf "%d file(s), %d entr%s, %d bytes\n" files entries
      (if entries = 1 then "y" else "ies")
      bytes;
    0
  | `Verify ->
    let infos = List.map Dpcore.Snapshot.inspect (Dpcore.Snapshot.list_files dir) in
    List.iter render infos;
    let corrupt =
      List.fold_left (fun a fi -> a + fi.Dpcore.Snapshot.fi_corrupt) 0 infos
    in
    if corrupt = 0 then begin
      Printf.printf "ok: every entry passes its checksum and reads whole\n";
      0
    end
    else begin
      Printf.printf "%d corrupt entr%s (they will reload as cache misses)\n"
        corrupt
        (if corrupt = 1 then "y" else "ies");
      1
    end
  | `Gc ->
    let removed, reclaimed = Dpcore.Snapshot.gc ~keep dir in
    Printf.printf "removed %d file(s), reclaimed %d bytes (kept %d newest)\n"
      removed reclaimed keep;
    0

let cache_cmd =
  let action =
    let actions =
      [ ("stats", `Stats); ("verify", `Verify); ("gc", `Gc) ]
    in
    Arg.(
      required
      & pos 0 (some (enum actions)) None
      & info [] ~docv:"ACTION"
          ~doc:
            "$(b,stats) lists cache files with entry counts and sizes; \
             $(b,verify) checks every entry's checksum and reads it \
             whole (exit 1 on damage); $(b,gc) deletes all but the newest \
             files.")
  in
  let dir =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"DIR" ~doc:"Cache directory (as passed to --cache).")
  in
  let keep =
    Arg.(
      value & opt int 4
      & info [ "keep" ] ~docv:"N"
          ~doc:"Cache files (configurations) to keep on $(b,gc).")
  in
  Cmd.v
    (Cmd.info "cache" ~doc:"Inspect and maintain --cache directories")
    Term.(const cache_action $ action $ dir $ keep)

(* --- monitor --- *)

let monitor dir replay listen interval max_ticks window top_patterns
    replicates seed min_support threshold lag_ms cache alert_log metrics_out
    view_dir pats j mode faults =
  with_faults faults @@ fun () ->
  let components = components_of pats in
  let rules =
    [
      Dpmon.Rules.Ia_drift { metric = `Wait };
      Dpmon.Rules.Pattern_appeared { min_support };
      Dpmon.Rules.Pattern_regressed { min_support; threshold };
      Dpmon.Rules.Ingest_lag { max_ms = lag_ms };
      Dpmon.Rules.Parse_failure;
    ]
  in
  let config =
    {
      Dpmon.Monitor.components;
      rules;
      window;
      k = Dpcore.Mining.default_k;
      top_patterns;
      replicates;
      seed;
      mode;
      cache_dir = cache;
      alert_log;
      metrics_out;
      view_dir;
    }
  in
  match replay with
  | Some manifest -> (
    match Dpmon.Monitor.replay config ~manifest with
    | s ->
      Printf.printf
        "replay: %d tick(s) over %d file(s): %d alert(s), %d parse \
         failure(s)\n"
        s.Dpmon.Monitor.r_ticks s.Dpmon.Monitor.r_files
        s.Dpmon.Monitor.r_alerts s.Dpmon.Monitor.r_parse_failures;
      0
    | exception Failure msg ->
      Dpobs.Log.error "%s" msg;
      1)
  | None -> (
    match
      with_cli_pool j @@ fun pool ->
      Dpmon.Monitor.watch ~pool ?listen ~interval_s:interval ?max_ticks
        config ~dir
    with
    | () -> 0
    | exception Failure msg ->
      Dpobs.Log.error "%s" msg;
      1)

let monitor_cmd =
  let dir =
    Arg.(
      value & opt string "."
      & info [ "dir"; "d" ] ~docv:"DIR"
          ~doc:
            "Corpus directory to tail: every new or changed .dpt/.dpf \
             file is ingested on the next tick.")
  in
  let replay =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"MANIFEST"
          ~doc:
            "Deterministic replay: apply the manifest's clock/add/tick \
             directives under a virtual clock instead of watching \
             $(b,--dir). The same manifest always produces byte-identical \
             alert logs and metric expositions.")
  in
  let listen =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Serve the OpenMetrics exposition on http://ADDR/metrics \
             between ticks (PORT or HOST:PORT; port 0 picks one).")
  in
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Seconds between directory scans in watch mode.")
  in
  let max_ticks =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-ticks" ] ~docv:"N"
          ~doc:"Stop watch mode after N ticks (default: run until killed).")
  in
  let window =
    Arg.(
      value & opt int 8
      & info [ "window" ] ~docv:"N"
          ~doc:
            "Rolling window: the N most recently arrived corpus files \
             form the analysed corpus and the baseline.")
  in
  let top_patterns =
    Arg.(
      value & opt int 10
      & info [ "top-patterns" ] ~docv:"N"
          ~doc:
            "Baseline depth: diff only the N top-ranked mined patterns \
             per scenario (0 = all).")
  in
  let replicates =
    Arg.(
      value & opt positive_int 200
      & info [ "replicates" ] ~docv:"N"
          ~doc:"Bootstrap replicates for the drift confidence interval.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "bootstrap-seed" ] ~docv:"SEED"
          ~doc:"Bootstrap resampling seed.")
  in
  let min_support =
    let doc =
      "Pattern support floor for the appeared/regressed alert rules."
    in
    Arg.(
      value
      & opt int Dpmon.Rules.default_min_support
      & info [ "min-support" ] ~docv:"N" ~doc)
  in
  let threshold =
    Arg.(
      value & opt float 1.5
      & info [ "threshold" ] ~docv:"R"
          ~doc:"Avg-cost growth factor for the regression alert rule.")
  in
  let lag_ms =
    Arg.(
      value & opt int 60_000
      & info [ "lag-limit" ] ~docv:"MS"
          ~doc:"Ingest-lag alert threshold, milliseconds.")
  in
  let alert_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "alert-log" ] ~docv:"FILE"
          ~doc:
            "Append alerts as JSON Lines (deterministic field order; \
             pattern alerts embed the $(b,diff --json) entry schema).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Rewrite FILE after every tick with the full OpenMetrics \
             text exposition (same body $(b,--listen) serves).")
  in
  let view_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "view-dir" ] ~docv:"DIR"
          ~doc:
            "Export a view bundle (Perfetto trace of slow/fast \
             exemplars + differential flame views) per alerted scenario \
             under DIR/tick-N-SCENARIO/; alerts then carry the bundle \
             path in their $(b,view) field.")
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:"Continuously watch a corpus directory and alert on drift")
    Term.(
      const monitor $ dir $ replay $ listen $ interval $ max_ticks $ window
      $ top_patterns $ replicates $ seed $ min_support $ threshold $ lag_ms
      $ cache_term $ out_path_opt alert_log $ out_path_opt metrics_out
      $ out_path_opt ~dir:true view_dir $ components_arg
      $ domains_arg $ mode_arg $ fault_arg)

(* --- faults: describe / replay an injection plan --- *)

let faults_run plan site calls =
  match Dpfault.parse plan with
  | Error msg ->
    Dpobs.Log.error "faults: %s" msg;
    2
  | Ok plan ->
    print_string (Dpfault.describe plan);
    let replay_site s =
      Printf.printf "\nreplay %s (seed %d):\n" (Dpfault.site_name s)
        plan.Dpfault.p_seed;
      for i = 0 to calls - 1 do
        Printf.printf "  call %4d: %s\n" i
          (match Dpfault.draw plan s i with
          | None -> "ok"
          | Some k -> Dpfault.kind_name k)
      done
    in
    if calls > 0 then begin
      match site with
      | Some name -> (
        match Dpfault.site_of_name name with
        | Some s -> replay_site s
        | None ->
          Dpobs.Log.error "faults: unknown site %S" name;
          exit 2)
      | None ->
        (* No site singled out: replay every site the plan rules over. *)
        List.iter (fun (s, _) -> replay_site s) plan.Dpfault.p_rules
    end;
    0

let faults_cmd =
  let plan =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PLAN"
          ~doc:
            "SEED:SPEC — a preset (io-flaky, torn-writes, slow-disk) or \
             comma-separated site=kind@prob[!attempts] clauses.")
  in
  let site =
    Arg.(
      value
      & opt (some string) None
      & info [ "site" ] ~docv:"SITE"
          ~doc:
            "Restrict $(b,--calls) replay to this site (e.g. \
             corpus.read); default replays every ruled site.")
  in
  let calls =
    Arg.(
      value & opt int 0
      & info [ "calls" ] ~docv:"N"
          ~doc:
            "Also print the deterministic outcome of the first N calls \
             per replayed site — the exact schedule any run under this \
             plan experiences.")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Describe or replay a deterministic fault-injection plan")
    Term.(const faults_run $ plan $ site $ calls)

let main_cmd =
  let doc = "trace-based performance comprehension for device drivers" in
  let info = Cmd.info "driveperf" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      generate_cmd;
      impact_cmd;
      causality_cmd;
      report_cmd;
      case_cmd;
      validate_cmd;
      dot_cmd;
      anonymize_cmd;
      import_etw_cmd;
      convert_cmd;
      diff_cmd;
      baseline_cmd;
      stats_cmd;
      witness_cmd;
      explain_cmd;
      analyze_cmd;
      timeline_cmd;
      export_trace_cmd;
      flame_cmd;
      cache_cmd;
      monitor_cmd;
      faults_cmd;
    ]

(* Arm DRIVEPERF_LOG before command dispatch so the level also applies to
   commands without observability flags (e.g. validate). *)
let () =
  Dpobs.Log.init_from_env ();
  exit
    (match Cmd.eval' ~catch:false main_cmd with
    | code -> code
    | exception Sys_error msg ->
      (* A path the system refuses, an output path under a regular file
         say, is one error line, as a missing corpus file is. *)
      Dpobs.Log.error "%s" msg;
      1
    | exception e ->
      Printf.eprintf "driveperf: internal error, uncaught exception:\n%s\n"
        (Printexc.to_string e);
      Cmd.Exit.internal_error)
