(* The full Section 5 study at a reduced scale.

   Generates a seeded corpus, runs the impact analysis over all device
   drivers and the causality analysis on each of the eight named
   scenarios (one Pipeline.run_report pass), and prints every table of
   the paper's evaluation.

   Run with: dune exec examples/corpus_study.exe -- [scale] *)

let () =
  let scale =
    if Array.length Sys.argv > 1 then float_of_string Sys.argv.(1) else 0.3
  in
  let corpus =
    Dpworkload.Corpus_gen.generate (Dpworkload.Corpus_gen.scaled scale)
  in
  Format.printf "%a@.@." Dptrace.Corpus.pp_summary corpus;

  let components = Dpcore.Component.drivers in
  let scenarios =
    List.map
      (fun (tpl : Dpworkload.Scenarios.template) ->
        tpl.Dpworkload.Scenarios.spec.Dptrace.Scenario.name)
      Dpworkload.Scenarios.named
  in
  let report = Dpcore.Pipeline.run_report ~scenarios components corpus in
  Dputil.Table.print (Dpcore.Report.impact_summary report.Dpcore.Pipeline.impact);
  print_newline ();

  let named = report.Dpcore.Pipeline.scenarios in
  Dputil.Table.print
    (Dpcore.Report.scenario_classes
       (List.map (fun (n, r) -> (n, r.Dpcore.Pipeline.classification)) named));
  print_newline ();
  Dputil.Table.print (Dpcore.Report.coverages named);
  print_newline ();
  Dputil.Table.print (Dpcore.Report.ranking named);
  print_newline ();
  Dputil.Table.print
    (Dpcore.Report.driver_types named
       ~type_names:
         (List.map Dpworkload.Taxonomy.type_name Dpworkload.Taxonomy.all_types)
       ~type_of:Dpworkload.Taxonomy.type_name_of_signature);

  (* One detailed drill-down, analyst-style. *)
  let name, r = List.nth named 4 (* BrowserTabCreate *) in
  Format.printf "@.Drill-down: %s@.%s@." name
    (Dpcore.Report.awg_summary r.Dpcore.Pipeline.slow_awg);
  print_string
    (Dpcore.Report.top_patterns r.Dpcore.Pipeline.mining.Dpcore.Mining.patterns
       ~n:3)
