(* Quickstart: the whole pipeline on a hand-built workload.

   We simulate a tiny system — one app scenario whose slow executions are
   caused by lock contention over a filter driver — then run both analysis
   steps and print what they find.

   Run with: dune exec examples/quickstart.exe *)

module P = Dpsim.Program
module Engine = Dpsim.Engine
module Time = Dputil.Time

let sig_ = Dptrace.Signature.of_string

(* One trace stream: an "OpenDocument" instance that contends a driver
   lock with a background indexer. [contended] controls whether the
   indexer runs concurrently (slow class) or not (fast class). *)
let make_stream ~id ~contended =
  let engine = Engine.create ~stream_id:id () in
  let filter_lock = Engine.new_lock engine ~name:"FilterTable" in
  let disk = Engine.new_device engine ~name:"Disk" ~signature:(sig_ "DiskService") in
  (* The background indexer holds the filter-driver lock across a long
     disk read. *)
  let indexer_start = if contended then Time.ms 1 else Time.sec 10 in
  let (_ : int) =
    Engine.spawn engine ~start_at:indexer_start ~name:"Indexer"
      ~base_stack:[ sig_ "Indexer!ScanDocuments" ]
      [
        P.call (sig_ "flt.sys!FilterLookup")
          [
            P.locked filter_lock
              [ P.compute (Time.ms 2); P.hw disk (Time.ms 120) ];
          ];
      ]
  in
  (* The scenario instance: opens a document through the same filter. *)
  let (_ : int) =
    Engine.spawn engine ~scenario:"OpenDocument" ~start_at:(Time.ms 5)
      ~name:"App.Open"
      ~base_stack:[ sig_ "App!OpenDocument" ]
      [
        P.compute (Time.ms 8);
        P.call (sig_ "flt.sys!FilterLookup")
          [ P.locked filter_lock [ P.compute (Time.ms 3) ] ];
        P.compute (Time.ms 12);
      ]
  in
  Engine.run engine

let () =
  (* A small corpus: 6 contended (slow) and 6 uncontended (fast) runs. *)
  let streams =
    List.init 12 (fun id -> make_stream ~id ~contended:(id mod 2 = 0))
  in
  let specs =
    [ Dptrace.Scenario.spec ~name:"OpenDocument" ~tfast:(Time.ms 50)
        ~tslow:(Time.ms 100) ]
  in
  let corpus = Dptrace.Corpus.create ~streams ~specs in
  Format.printf "%a@.@." Dptrace.Corpus.pp_summary corpus;

  (* Step 1 — impact analysis over all driver components. *)
  let components = Dpcore.Component.drivers in
  let impact, _ = Dpcore.Pipeline.run_impact_prov components corpus in
  Dputil.Table.print (Dpcore.Report.impact_summary impact);
  print_newline ();

  (* Step 2 — causality analysis for the scenario. *)
  let r = Dpcore.Pipeline.run_scenario components corpus "OpenDocument" in
  let f, m, s = Dpcore.Classify.counts r.Dpcore.Pipeline.classification in
  Format.printf "OpenDocument classes: fast=%d middle=%d slow=%d@." f m s;
  Format.printf "%s@.@." (Dpcore.Report.awg_summary r.Dpcore.Pipeline.slow_awg);
  print_endline "Contrast patterns (ranked):";
  print_string
    (Dpcore.Report.top_patterns r.Dpcore.Pipeline.mining.Dpcore.Mining.patterns
       ~n:5);

  (* The discovered pattern should blame the filter lookup whose lock was
     held across the indexer's disk read. *)
  match r.Dpcore.Pipeline.mining.Dpcore.Mining.patterns with
  | [] -> failwith "quickstart: expected at least one contrast pattern"
  | top :: _ ->
    let names =
      List.map Dptrace.Signature.name
        (Dpcore.Tuple.all_signatures top.Dpcore.Mining.tuple)
    in
    assert (List.mem "flt.sys!FilterLookup" names);
    print_endline "\nOK: mining blamed flt.sys!FilterLookup, as injected."
