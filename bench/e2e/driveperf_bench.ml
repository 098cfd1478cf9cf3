(* driveperf_bench: the end-to-end benchmark of the driveperf CLI.

   End-to-end metrics time real driveperf invocations, one child at a
   time, workloads round-robin within each rep. The traced run then
   replays the same work in this process through each layer's public
   entry points (see Replay) for the per-layer metrics. Every output is
   checked; see README.md for the workloads, the metrics and the
   comparison protocol. *)

module Jsonw = Dputil.Jsonw

type workload = Report_seq | Report_par | Report_delta | Monitor_replay

let workloads = [ Report_seq; Report_par; Report_delta; Monitor_replay ]

let workload_name = function
  | Report_seq -> "report_seq"
  | Report_par -> "report_par"
  | Report_delta -> "report_delta"
  | Monitor_replay -> "monitor_replay"

let end_to_end = [ "wall_s"; "cpu_s"; "peak_heap_mb"; "setup_s" ]
let overlaps a b = List.exists (fun x -> List.mem x b) a

(* Inputs, relative to the work directory. *)
let corpus = "setup0/A.dpf"
let subset = "B.dpf"
let cache = "setup0/C"
let monitor_dir = "setup0/mon"
let manifest = monitor_dir ^ "/replay.manifest"

(* Five calm files, then the CPU-starved one: the fourth tick raises
   the drift alert, the fifth has nothing new. *)
let monitor_plan =
  Replay.
    [
      Clock 1000; Add "calm1.dpf"; Add "calm2.dpf"; Tick; Advance 5000;
      Add "calm3.dpf"; Tick; Advance 5000; Add "calm4.dpf"; Add "calm5.dpf";
      Tick; Advance 5000; Add "slow.dpf"; Tick; Advance 1000; Tick;
    ]

(* --- run state --- *)

type ctx = {
  exe : string;
  seed : int;
  scale : float;
  expected : (string * string) list;
      (** Committed output digests for this seed and scale. *)
  refs : (string, string) Hashtbl.t;  (** First digest seen per output. *)
  mutable attempted : int;
  mutable failed : int;
  mutable invocations : int;
  results : (string * string option, string * float list ref) Hashtbl.t;
  mutable order : (string * string option) list;
}

let record ctx ?workload name unit_ v =
  let key = (name, Option.map workload_name workload) in
  match Hashtbl.find_opt ctx.results key with
  | Some (_, samples) -> samples := !samples @ [ v ]
  | None ->
    Hashtbl.replace ctx.results key (unit_, ref [ v ]);
    ctx.order <- key :: ctx.order

let summary ctx =
  List.rev_map
    (fun key ->
      let unit_, samples = Hashtbl.find ctx.results key in
      (key, unit_, !samples))
    ctx.order

(* An output passes when its digest equals the committed one for this
   seed and scale or, without one, the first digest this run saw under
   the same key. *)
let outputs_ok ctx outputs =
  List.map
    (fun (key, digest) ->
      let want =
        match List.assoc_opt key ctx.expected with
        | Some d -> Some d
        | None -> Hashtbl.find_opt ctx.refs key
      in
      match want with
      | None ->
        Hashtbl.replace ctx.refs key digest;
        true
      | Some d when d = digest -> true
      | Some d ->
        Printf.eprintf "check failed: %s has digest %s, expected %s\n%!" key
          digest d;
        false)
    outputs
  |> List.for_all Fun.id

let operation ctx ok =
  ctx.attempted <- ctx.attempted + 1;
  if not ok then ctx.failed <- ctx.failed + 1

let check ctx outputs = operation ctx (outputs_ok ctx outputs)

let invoke ctx ?(outputs = fun _ -> []) args =
  ctx.invocations <- ctx.invocations + 1;
  let out = Printf.sprintf "out/%03d.%s" ctx.invocations (List.hd args) in
  let r = Child.run ~exe:ctx.exe ~out args in
  let ok = r.Child.status = 0 && outputs_ok ctx (outputs r) in
  operation ctx ok;
  if ok then List.iter Sys.remove [ r.Child.stdout; r.Child.stderr ]
  else
    Printf.eprintf "failed: driveperf %s (exit %d, output in %s)\n%!"
      (String.concat " " args) r.Child.status r.Child.stdout;
  r

let stdout_digest key (r : Child.t) = [ (key, Files.digest r.Child.stdout) ]

let run_workload ctx w =
  let report args =
    invoke ctx ~outputs:(stdout_digest "report")
      ([ "report"; "--json" ] @ args @ [ "-c"; corpus ])
  in
  match w with
  | Report_seq -> report [ "-j"; "1" ]
  | Report_par -> report [ "-j"; "2" ]
  | Report_delta ->
    (* Each invocation gets a fresh copy of the warmed cache, made
       outside its timing. *)
    Files.copy_dir cache "delta_cache";
    report [ "-j"; "2"; "--cache"; "delta_cache" ]
  | Monitor_replay ->
    invoke ctx
      ~outputs:(fun _ ->
        [ ("alerts", Files.digest "alerts.jsonl");
          ("metrics", Files.digest "metrics.om") ])
      [ "monitor"; "--replay"; manifest; "--alert-log"; "alerts.jsonl";
        "--metrics-out"; "metrics.om"; "-j"; "1" ]

let counter (r : Child.t) name = Option.value ~default:nan (Child.counter r name)

let record_runtime ctx w r =
  let c = counter r in
  record ctx ~workload:w "runtime.alloc_mwords" "Mwords" (c "allocated_words" /. 1e6);
  record ctx ~workload:w "runtime.promoted_mwords" "Mwords" (c "promoted_words" /. 1e6);
  record ctx ~workload:w "runtime.minor_collections" "count" (c "minor_collections");
  record ctx ~workload:w "runtime.major_collections" "count" (c "major_collections")

let record_timed ctx w (r : Child.t) =
  record ctx ~workload:w "wall_s" "s" r.Child.wall_s;
  record ctx ~workload:w "cpu_s" "s" r.Child.cpu_s;
  record ctx ~workload:w "peak_heap_mb" "MB"
    (counter r "top_heap_words" *. 8.0 /. 1048576.0)

(* --- set-up --- *)

let fmt_scale = Printf.sprintf "%g"

let generate ctx path args =
  invoke ctx
    ~outputs:(fun _ -> [ ("setup " ^ Filename.basename path, Files.digest path) ])
    ([ "generate"; "--out"; path ] @ args)

let monitor_files ctx =
  let scale = fmt_scale (ctx.scale /. 5.0) in
  let seed i = string_of_int (ctx.seed + i) in
  List.init 5 (fun i ->
      ( Printf.sprintf "calm%d.dpf" (i + 1),
        [ "--seed"; seed (i + 1); "--scale"; scale; "--no-cross-traffic" ] ))
  @ [ ("slow.dpf", [ "--seed"; seed 6; "--scale"; scale; "--cores"; "1" ]) ]

(* B: A without every 100th stream. The generator groups streams by
   scenario, so dropping a tail would leave every named scenario's
   mining cached; interleaving touches them all. *)
let write_subset () =
  match Dptrace.Corpus_dir.load corpus with
  | Error msg -> failwith msg
  | Ok l ->
    let c = l.Dptrace.Corpus_dir.l_corpus in
    let streams = List.filteri (fun i _ -> i mod 100 <> 99) c.Dptrace.Corpus.streams in
    Dptrace.Codec_v2.save subset
      (Dptrace.Corpus.create ~streams ~specs:c.Dptrace.Corpus.specs);
    Gc.full_major ()

(* Prepare every input the selected workloads and the traced run need.
   A timed run prepares each selected workload's inputs three times,
   in setup0..setup2, and records the median as setup_s; the three
   results must be byte-identical. Later steps read setup0. *)
let setup ctx ~selected ~timed ~trace =
  let wants ws = trace || overlaps ws selected in
  let prepare ws f =
    let n = if timed && overlaps ws selected then 3 else 1 in
    let walls =
      List.init n (fun i ->
          let dir = Printf.sprintf "setup%d" i in
          Files.mkdir_p dir;
          f dir)
    in
    if timed then
      List.iter
        (fun w ->
          if List.mem w selected then
            record ctx ~workload:w "setup_s" "s" (Verdict.median walls))
        ws
  in
  if wants [ Report_seq; Report_par; Report_delta ] then
    prepare [ Report_seq; Report_par ] (fun dir ->
        (generate ctx (dir ^ "/A.dpf")
           [ "--seed"; string_of_int ctx.seed; "--scale"; fmt_scale ctx.scale ])
          .Child.wall_s);
  if wants [ Report_delta ] then begin
    write_subset ();
    prepare [ Report_delta ] (fun dir ->
        (invoke ctx ~outputs:(stdout_digest "setup report B")
           [ "report"; "--json"; "-j"; "2"; "--cache"; dir ^ "/C"; "-c"; subset ])
          .Child.wall_s)
  end;
  if wants [ Monitor_replay ] then
    prepare [ Monitor_replay ] (fun dir ->
        let dir = dir ^ "/mon" in
        Files.mkdir_p dir;
        Files.write_file (dir ^ "/replay.manifest") (Replay.manifest_text monitor_plan);
        List.fold_left
          (fun acc (name, args) ->
            acc +. (generate ctx (Filename.concat dir name) args).Child.wall_s)
          0.0 (monitor_files ctx))

(* --- one run --- *)

let run ctx ~selected ~timed ~trace ~reps ~seconds =
  setup ctx ~selected ~timed ~trace;
  (* One discarded warm-up per workload. report_seq's goes first
     whenever report output is checked: it fixes the reference every
     other report output, and the traced replay, must equal. *)
  let reports = [ Report_seq; Report_par; Report_delta ] in
  List.iter
    (fun w ->
      if
        List.mem w selected
        || (w = Report_seq && (trace || overlaps reports selected))
        || (w = Monitor_replay && trace)
      then record_runtime ctx w (run_workload ctx w))
    workloads;
  if timed then begin
    let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) seconds in
    let rec loop round =
      let stop =
        (match reps with Some r -> round >= r | None -> false)
        || match deadline with
           | Some d -> round > 0 && Unix.gettimeofday () >= d
           | None -> false
      in
      if not stop then begin
        List.iter
          (fun w ->
            let r = run_workload ctx w in
            record_timed ctx w r;
            record_runtime ctx w r)
          selected;
        loop (round + 1)
      end
    in
    loop 0
  end;
  if trace then begin
    let inputs =
      { Replay.corpus; cache; manifest_dir = monitor_dir; plan = monitor_plan }
    in
    for rep = 0 to 2 do
      List.iter
        (fun (name, unit_, v) -> record ctx name unit_ v)
        (Replay.repetition ~check:(check ctx) ~rep inputs)
    done
  end

(* --- reporting --- *)

let nproc = Domain.recommended_domain_count ()

(* Without two cores the pooled numbers say nothing about the pool. *)
let unresolved name workload =
  nproc < 2
  && (workload = Some "report_par" || String.starts_with ~prefix:"pool." name)

let git_commit () =
  let read p = try Some (String.trim (Child.read_file p)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let ref_ = String.sub head 5 (String.length head - 5) in
    match read (".git/" ^ ref_) with
    | Some c -> c
    | None ->
      Option.bind (read ".git/packed-refs") (fun packed ->
          List.find_map
            (fun line ->
              match String.split_on_char ' ' line with
              | [ c; r ] when r = ref_ -> Some c
              | _ -> None)
            (String.split_on_char '\n' packed))
      |> Option.value ~default:"unknown")
  | Some commit -> commit
  | None -> "unknown"

let result_json ctx env =
  let num f = Jsonw.Float f in
  Jsonw.Obj
    [
      ("env", env);
      ("correct", Jsonw.Bool (ctx.failed = 0));
      ("attempted", Jsonw.Int ctx.attempted);
      ("failed", Jsonw.Int ctx.failed);
      ( "metrics",
        Jsonw.Arr
          (List.map
             (fun ((name, workload), unit_, samples) ->
               let q1, q3 = Verdict.quartiles samples in
               Jsonw.Obj
                 [
                   ("name", Jsonw.Str name);
                   ("workload", Option.fold ~none:Jsonw.Null ~some:Jsonw.str workload);
                   ("unit", Jsonw.Str unit_);
                   ("n", Jsonw.Int (List.length samples));
                   ("median", num (Verdict.median samples));
                   ("q1", num q1);
                   ("q3", num q3);
                   ("unresolved", Jsonw.Bool (unresolved name workload));
                   ("samples", Jsonw.Arr (List.map num samples));
                 ])
             (summary ctx)) );
    ]

(* The last stdout line: medians of the end-to-end metrics of a timed
   run and of the per-layer metrics of a traced one. With one workload
   the names are bare; otherwise workload metrics are prefixed. *)
let result_line ctx ~selected ~timed ~trace =
  let single = List.length selected = 1 in
  let names = List.map workload_name selected in
  let metrics =
    List.filter_map
      (fun ((name, workload), unit_, samples) ->
        let e2e = List.mem name end_to_end in
        let shown =
          ((e2e && timed) || ((not e2e) && trace))
          && match workload with Some w -> List.mem w names | None -> true
        in
        if not shown then None
        else
          let key =
            match workload with
            | Some w when not single -> w ^ "." ^ name
            | _ -> name
          in
          Some
            (key, Jsonw.Obj [ ("value", Jsonw.Float (Verdict.median samples)); ("unit", Jsonw.Str unit_) ]))
      (summary ctx)
  in
  Jsonw.to_string ~minify:true
    (Jsonw.Obj
       [
         ("correct", Jsonw.Bool (ctx.failed = 0));
         ("attempted", Jsonw.Int ctx.attempted);
         ("failed", Jsonw.Int ctx.failed);
         ("metrics", Jsonw.Obj metrics);
       ])

let print_table ctx =
  Printf.eprintf "%-30s %-15s %3s %12s %12s %12s  %s\n" "metric" "workload" "n"
    "median" "q1" "q3" "unit";
  List.iter
    (fun ((name, workload), unit_, samples) ->
      let q1, q3 = Verdict.quartiles samples in
      Printf.eprintf "%-30s %-15s %3d %12.5g %12.5g %12.5g  %s%s\n" name
        (Option.value ~default:"-" workload)
        (List.length samples) (Verdict.median samples) q1 q3 unit_
        (if unresolved name workload then " (unresolved: nproc < 2)" else ""))
    (summary ctx);
  Printf.eprintf "%d operation(s), %d failed\n%!" ctx.attempted ctx.failed

(* Every metric BENCHMARK.json names must have been emitted with its
   unit: the end-to-end ones for every workload. *)
let missing_metrics ctx (spec : Verdict.spec) =
  let rows = summary ctx in
  let problem (m : Verdict.metric) workload =
    match
      List.find_opt
        (fun ((n, w), _, _) -> n = m.Verdict.name && (workload = None || w = workload))
        rows
    with
    | Some (_, u, _) when u = m.Verdict.unit_ -> None
    | Some (_, u, _) ->
      Some (Printf.sprintf "%s: unit %s, BENCHMARK.json says %s" m.Verdict.name u m.Verdict.unit_)
    | None ->
      Some
        (Printf.sprintf "%s%s: not emitted" m.Verdict.name
           (Option.fold ~none:"" ~some:(( ^ ) " on ") workload))
  in
  (if spec.Verdict.workloads <> List.map workload_name workloads then
     [ "BENCHMARK.json lists other workloads than the bench runs" ]
   else [])
  @ List.concat_map
      (fun m -> List.filter_map (fun w -> problem m (Some w)) spec.Verdict.workloads)
      spec.Verdict.end_to_end
  @ List.filter_map (fun m -> problem m None) spec.Verdict.per_layer

(* --- command line --- *)

let expected_digests path ~seed ~scale =
  if not (Sys.file_exists path) then []
  else
    String.split_on_char '\n' (Child.read_file path)
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ s; sc; key; md5 ]
             when int_of_string_opt s = Some seed && float_of_string_opt sc = Some scale
             ->
             Some (key, md5)
           | _ -> None)

(* Refuse to empty a directory the bench did not create. *)
let enter_work dir =
  let marker = Filename.concat dir ".driveperf_bench" in
  if Sys.file_exists dir && Sys.readdir dir <> [||] && not (Sys.file_exists marker)
  then failwith (dir ^ " is not empty and is not a bench work directory");
  Files.rm_rf dir;
  Files.mkdir_p dir;
  Files.write_file marker "";
  Unix.chdir dir;
  Files.mkdir_p "out"

let usage =
  "driveperf_bench --driveperf EXE [--workload NAME]... [--seed N] [--reps N] \
   [--seconds S] [--trace 0|1] [--work DIR] [--out FILE]\n\
   driveperf_bench --compare BASE NEW [--benchmark FILE] [--out FILE]\n\
   driveperf_bench --smoke --driveperf EXE [--benchmark FILE]"

let () =
  let exe = ref "" and names = ref [] and seed = ref 42 and reps = ref None in
  let seconds = ref None and trace = ref None in
  let work = ref "_e2e_work" and out = ref None and smoke = ref false in
  let digests = ref "bench/e2e/expected_digests" in
  let benchmark = ref "BENCHMARK.json" and compare = ref None in
  let base = ref "" in
  let spec =
    [
      ("--driveperf", Arg.Set_string exe, "EXE driveperf executable under test");
      ( "--workload",
        Arg.String (fun w -> names := !names @ [ w ]),
        "NAME run only this workload (repeatable; default: all, round-robin)" );
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--reps", Arg.Int (fun n -> reps := Some n), "N timed rounds (default 10)");
      ( "--seconds",
        Arg.Float (fun s -> seconds := Some s),
        "S time rounds for S seconds instead" );
      ( "--trace",
        Arg.Int (fun t -> trace := Some t),
        "0|1 only the timed rounds (0) or only the traced run (1); default both" );
      ("--work", Arg.Set_string work, "DIR work directory (default _e2e_work)");
      ("--out", Arg.String (fun p -> out := Some p), "FILE write the full result JSON");
      ("--digests", Arg.Set_string digests, "FILE committed output digests");
      ("--benchmark", Arg.Set_string benchmark, "FILE metric registry (BENCHMARK.json)");
      ( "--compare",
        Arg.Tuple
          [ Arg.Set_string base; Arg.String (fun n -> compare := Some (!base, n)) ],
        "BASE NEW compare result files (comma-separated lists allowed)" );
      ("--smoke", Arg.Set smoke, " scale 0.05, one round, traced; check every metric");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p in
  match !compare with
  | Some (base, fresh) ->
    let rows = Verdict.compare (Verdict.load_spec !benchmark) ~base ~fresh in
    Option.iter
      (fun path ->
        let docs side = Jsonw.Arr (List.map Jsonr.of_file (String.split_on_char ',' side)) in
        Files.write_file path
          (Jsonw.to_string
             (Jsonw.Obj [ ("base", docs base); ("new", docs fresh); ("rows", Jsonw.Arr rows) ])))
      !out
  | None ->
    if !exe = "" then (prerr_endline usage; exit 2);
    (* The report corpus scale; the smoke test runs at a hundredth of it. *)
    let scale = if !smoke then 0.05 else 5.0 in
    if !smoke then (reps := Some 1; seconds := None; trace := None);
    if !reps = None && !seconds = None then reps := Some 10;
    let selected =
      match !names with
      | [] -> workloads
      | ns ->
        List.map
          (fun n ->
            match List.find_opt (fun w -> workload_name w = n) workloads with
            | Some w -> w
            | None -> raise (Arg.Bad ("unknown workload " ^ n)))
          ns
    in
    let timed, traced =
      match !trace with
      | None -> (true, true)
      | Some 0 -> (true, false)
      | Some 1 -> (false, true)
      | Some _ -> raise (Arg.Bad "--trace takes 0 or 1")
    in
    let commit = git_commit () in
    let registry = absolute !benchmark and out = Option.map absolute !out in
    let ctx =
      {
        exe = absolute !exe;
        seed = !seed;
        scale;
        expected = expected_digests (absolute !digests) ~seed:!seed ~scale;
        refs = Hashtbl.create 16;
        attempted = 0;
        failed = 0;
        invocations = 0;
        results = Hashtbl.create 128;
        order = [];
      }
    in
    enter_work !work;
    run ctx ~selected ~timed ~trace:traced ~reps:!reps ~seconds:!seconds;
    let env =
      Jsonw.Obj
        [
          ("nproc", Jsonw.Int nproc);
          ("ocaml", Jsonw.Str Sys.ocaml_version);
          ("commit", Jsonw.Str commit);
          ("seed", Jsonw.Int ctx.seed);
          ("scale", Jsonw.Float ctx.scale);
          ("reps", Option.fold ~none:Jsonw.Null ~some:Jsonw.int !reps);
          ("seconds", Option.fold ~none:Jsonw.Null ~some:Jsonw.float !seconds);
          ("workloads", Jsonw.Arr (List.map (fun w -> Jsonw.Str (workload_name w)) selected));
        ]
    in
    Option.iter (fun p -> Files.write_file p (Jsonw.to_string (result_json ctx env))) out;
    if !smoke then begin
      let problems = missing_metrics ctx (Verdict.load_spec registry) in
      List.iter prerr_endline problems;
      if problems <> [] || ctx.failed > 0 then (print_table ctx; exit 1);
      Printf.printf "smoke ok: %d metric series, %d operations\n"
        (List.length ctx.order) ctx.attempted
    end
    else begin
      print_table ctx;
      print_endline (result_line ctx ~selected ~timed ~trace:traced)
    end
