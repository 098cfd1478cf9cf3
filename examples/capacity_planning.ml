(* A what-if study the framework enables beyond the paper: how much of a
   scenario's latency is driver propagation versus CPU pressure?

   The paper's corpus regime treats CPU as plentiful (driver CPU is
   ≈1.6%), which our engine mirrors by default. But an analyst receiving
   slow traces from low-core machines needs to separate the two causes
   before blaming drivers. This study runs the same seeded workload at
   several core counts and shows that:

   - scenario latency degrades as cores shrink (the run-queue model),
   - yet the driver-attributed metrics (IA_run, the mined patterns)
     barely move — the propagation diagnosis is robust to CPU pressure,
   - and the run-queue waits surface separately (kernel!CpuQueue frames),
     so nothing misattributes CPU starvation to drivers.

   Run with: dune exec examples/capacity_planning.exe *)

let scenario = "AppAccessControl"

let study cores =
  let cfg =
    { Dpworkload.Corpus_gen.default_config with scale = 0.25; cores }
  in
  let corpus = Dpworkload.Corpus_gen.generate cfg in
  let durations =
    Dptrace.Corpus.instances_of corpus scenario
    |> List.map (fun (_, i) ->
           Dputil.Time.to_ms_float (Dptrace.Scenario.duration i))
    |> Array.of_list
  in
  let impact, _ = Dpcore.Pipeline.run_impact_prov Dpcore.Component.drivers corpus in
  let r = Dpcore.Pipeline.run_scenario Dpcore.Component.drivers corpus scenario in
  (durations, impact, r)

let () =
  let t =
    Dputil.Table.create
      ~title:(scenario ^ " under CPU pressure (same workload, fewer cores)")
      [
        ("cores", Dputil.Table.Left);
        ("p50 (ms)", Dputil.Table.Right);
        ("p90 (ms)", Dputil.Table.Right);
        ("slow-class size", Dputil.Table.Right);
        ("IA_run (drivers)", Dputil.Table.Right);
        ("#patterns", Dputil.Table.Right);
      ]
  in
  let results =
    List.map (fun cores -> (cores, study cores)) [ None; Some 4; Some 2 ]
  in
  List.iter
    (fun (cores, (durations, impact, r)) ->
      let _, _, slow = Dpcore.Classify.counts r.Dpcore.Pipeline.classification in
      Dputil.Table.add_row t
        [
          (match cores with None -> "unbounded" | Some n -> string_of_int n);
          Printf.sprintf "%.0f" (Dputil.Stats.percentile durations 50.0);
          Printf.sprintf "%.0f" (Dputil.Stats.percentile durations 90.0);
          string_of_int slow;
          Dpcore.Report.pct (Dpcore.Impact.ia_run impact);
          string_of_int
            (List.length r.Dpcore.Pipeline.mining.Dpcore.Mining.patterns);
        ])
    results;
  Dputil.Table.print t;

  (* The diagnosis itself must be stable: the top pattern's signatures at
     2 cores should be drawn from the same drivers as at unbounded CPU. *)
  let top_modules (_, _, r) =
    match r.Dpcore.Pipeline.mining.Dpcore.Mining.patterns with
    | top :: _ ->
      Dpcore.Tuple.all_signatures top.Dpcore.Mining.tuple
      |> List.filter_map (fun s ->
             let m = Dptrace.Signature.module_part s in
             if Dpcore.Component.matches_signature Dpcore.Component.drivers s
             then Some m
             else None)
      |> List.sort_uniq compare
    | [] -> []
  in
  let unbounded = top_modules (List.assoc None results) in
  let squeezed = top_modules (List.assoc (Some 2) results) in
  Printf.printf "\ntop-pattern driver modules, unbounded CPU: %s\n"
    (String.concat ", " unbounded);
  Printf.printf "top-pattern driver modules, 2 cores:       %s\n"
    (String.concat ", " squeezed);
  let overlap = List.filter (fun m -> List.mem m squeezed) unbounded in
  assert (overlap <> []);
  print_endline
    "OK: the causality diagnosis is stable under CPU pressure; the extra\n\
     latency shows up as kernel!CpuQueue waits, not as driver patterns."
