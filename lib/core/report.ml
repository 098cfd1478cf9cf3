module Table = Dputil.Table

let pct f = Printf.sprintf "%.1f%%" (100.0 *. f)

let impact_summary (r : Impact.result) =
  let t =
    Table.create ~title:"Impact analysis (components: device drivers)"
      [ ("Metric", Table.Left); ("Value", Table.Right) ]
  in
  Table.add_row t [ "Scenario instances"; string_of_int r.Impact.instances ];
  Table.add_row t [ "D_scn (total scenario time)"; Dputil.Time.to_string r.Impact.d_scn ];
  Table.add_row t [ "D_wait"; Dputil.Time.to_string r.Impact.d_wait ];
  Table.add_row t [ "D_run"; Dputil.Time.to_string r.Impact.d_run ];
  Table.add_row t [ "D_waitdist"; Dputil.Time.to_string r.Impact.d_waitdist ];
  Table.add_separator t;
  Table.add_row t [ "IA_wait = D_wait / D_scn"; pct (Impact.ia_wait r) ];
  Table.add_row t [ "IA_run = D_run / D_scn"; pct (Impact.ia_run r) ];
  Table.add_row t [ "IA_opt = (D_wait - D_waitdist) / D_scn"; pct (Impact.ia_opt r) ];
  Table.add_row t
    [
      "D_wait / D_waitdist";
      Printf.sprintf "%.2f" (Impact.propagation_ratio r);
    ];
  t

let module_breakdown ?(top = 12) rows =
  let t =
    Table.create ~title:"Per-module driver impact"
      [
        ("Module", Table.Left);
        ("D_wait", Table.Right);
        ("D_waitdist", Table.Right);
        ("ratio", Table.Right);
        ("D_run", Table.Right);
        ("#waits", Table.Right);
        ("max wait", Table.Right);
      ]
  in
  List.iteri
    (fun i (r : Impact.module_row) ->
      if i < top then
        Table.add_row t
          [
            r.Impact.module_name;
            Dputil.Time.to_string r.Impact.m_wait;
            Dputil.Time.to_string r.Impact.m_waitdist;
            Printf.sprintf "%.2f" (Impact.module_propagation_ratio r);
            Dputil.Time.to_string r.Impact.m_run;
            string_of_int r.Impact.m_counted_waits;
            Dputil.Time.to_string r.Impact.m_max_wait;
          ])
    rows;
  t

let scenario_impacts entries =
  let t =
    Table.create ~title:"Per-scenario driver impact"
      [
        ("Scenario", Table.Left);
        ("#Inst", Table.Right);
        ("D_scn", Table.Right);
        ("IA_wait", Table.Right);
        ("IA_run", Table.Right);
        ("IA_opt", Table.Right);
        ("ratio", Table.Right);
      ]
  in
  List.iter
    (fun (name, (r : Impact.result)) ->
      Table.add_row t
        [
          name;
          string_of_int r.Impact.instances;
          Dputil.Time.to_string r.Impact.d_scn;
          pct (Impact.ia_wait r);
          pct (Impact.ia_run r);
          pct (Impact.ia_opt r);
          Printf.sprintf "%.2f" (Impact.propagation_ratio r);
        ])
    entries;
  t

let scenario_classes entries =
  let t =
    Table.create ~title:"Table 1: selected scenarios and contrast classes"
      [
        ("Scenario", Table.Left);
        ("#Instances", Table.Right);
        ("in {I}fast", Table.Right);
        ("in {I}slow", Table.Right);
      ]
  in
  let tot = ref 0 and totf = ref 0 and tots = ref 0 in
  List.iter
    (fun (name, c) ->
      let f, m, s = Classify.counts c in
      tot := !tot + f + m + s;
      totf := !totf + f;
      tots := !tots + s;
      Table.add_row t
        [ name; string_of_int (f + m + s); string_of_int f; string_of_int s ])
    entries;
  Table.add_separator t;
  Table.add_row t
    [ "Total"; string_of_int !tot; string_of_int !totf; string_of_int !tots ];
  t

let coverages entries =
  let t =
    Table.create ~title:"Table 2: impactful-time and total-time coverages"
      [
        ("Scenario", Table.Left);
        ("Driver Cost", Table.Right);
        ("ITC", Table.Right);
        ("TTC", Table.Right);
      ]
  in
  let n = List.length entries in
  let sum_dc = ref 0.0 and sum_itc = ref 0.0 and sum_ttc = ref 0.0 in
  List.iter
    (fun (name, (r : Pipeline.scenario_result)) ->
      let dc = Pipeline.driver_cost_fraction r in
      let itc = r.Pipeline.coverages.Evaluation.itc in
      let ttc = r.Pipeline.coverages.Evaluation.ttc in
      sum_dc := !sum_dc +. dc;
      sum_itc := !sum_itc +. itc;
      sum_ttc := !sum_ttc +. ttc;
      Table.add_row t [ name; pct dc; pct itc; pct ttc ])
    entries;
  if n > 0 then begin
    let avg v = v /. float_of_int n in
    Table.add_separator t;
    Table.add_row t
      [ "Average"; pct (avg !sum_dc); pct (avg !sum_itc); pct (avg !sum_ttc) ]
  end;
  t

(* The fault-screening coverage block: printed only when something was
   actually quarantined, so fault-free output stays byte-identical. *)
let stream_coverage (cov : Pipeline.coverage) =
  let t =
    Table.create
      ~title:
        (Printf.sprintf "Coverage: %d/%d stream(s) analyzed, %d quarantined"
           cov.Pipeline.cov_analyzed cov.Pipeline.cov_total
           (List.length cov.Pipeline.cov_quarantined))
      [ ("Stream", Table.Right); ("Reason", Table.Left) ]
  in
  List.iter
    (fun (sid, reason) -> Table.add_row t [ string_of_int sid; reason ])
    cov.Pipeline.cov_quarantined;
  t

let ranking entries =
  let t =
    Table.create ~title:"Table 3: execution-time coverage by ranking"
      [
        ("Scenario", Table.Left);
        ("#Patterns", Table.Right);
        ("top 10%", Table.Right);
        ("top 20%", Table.Right);
        ("top 30%", Table.Right);
      ]
  in
  let n = List.length entries in
  let sums = Array.make 4 0.0 in
  List.iter
    (fun (name, (r : Pipeline.scenario_result)) ->
      let patterns = r.Pipeline.mining.Mining.patterns in
      let cov f = Evaluation.ranking_coverage patterns ~top_fraction:f in
      let c10 = cov 0.10 and c20 = cov 0.20 and c30 = cov 0.30 in
      sums.(0) <- sums.(0) +. float_of_int (List.length patterns);
      sums.(1) <- sums.(1) +. c10;
      sums.(2) <- sums.(2) +. c20;
      sums.(3) <- sums.(3) +. c30;
      Table.add_row t
        [
          name;
          string_of_int (List.length patterns);
          pct c10;
          pct c20;
          pct c30;
        ])
    entries;
  if n > 0 then begin
    let avg i = sums.(i) /. float_of_int n in
    Table.add_separator t;
    Table.add_row t
      [
        "Average";
        string_of_int (int_of_float (avg 0));
        pct (avg 1);
        pct (avg 2);
        pct (avg 3);
      ]
  end;
  t

let driver_types entries ~type_names ~type_of =
  let t =
    Table.create ~title:"Table 4: driver types in top-10 patterns"
      (("Scenario", Table.Left)
      :: List.map (fun n -> (n, Table.Right)) type_names)
  in
  List.iter
    (fun (name, (r : Pipeline.scenario_result)) ->
      let counts =
        Evaluation.driver_type_counts r.Pipeline.mining.Mining.patterns
          ~top_n:10 ~type_of
      in
      let cell ty =
        match List.assoc_opt ty counts with
        | Some n -> string_of_int n
        | None -> "-"
      in
      Table.add_row t (name :: List.map cell type_names))
    entries;
  t

let top_patterns patterns ~n =
  let buf = Buffer.create 1024 in
  List.iteri
    (fun i (p : Mining.pattern) ->
      if i < n then
        Buffer.add_string buf
          (Format.asprintf "#%d  %a@." (i + 1) Mining.pp_pattern p))
    patterns;
  Buffer.contents buf

let top_propagation_paths awg ~n =
  let paths = Awg.full_paths awg in
  let leaf_cost path = (List.nth path (List.length path - 1)).Awg.cost in
  let ranked =
    List.sort (fun a b -> compare (leaf_cost b) (leaf_cost a)) paths
  in
  let buf = Buffer.create 1024 in
  List.iteri
    (fun i path ->
      if i < n then begin
        Buffer.add_string buf (Printf.sprintf "path #%d:\n" (i + 1));
        List.iteri
          (fun depth (node : Awg.node) ->
            Buffer.add_string buf
              (Format.asprintf "%s%a  C=%a N=%d\n"
                 (String.make (2 * (depth + 1)) ' ')
                 Awg.status_pp node.Awg.status Dputil.Time.pp node.Awg.cost
                 node.Awg.count))
          path
      end)
    ranked;
  Buffer.contents buf

let awg_summary awg =
  let red = Awg.reduction awg in
  Format.asprintf
    "AWG: %d nodes, total cost %a, leaf cost %a; reduction pruned %d \
     direct-hardware roots holding %a of %a root cost (%.1f%% non-optimisable)"
    (Awg.node_count awg) Dputil.Time.pp (Awg.total_cost awg) Dputil.Time.pp
    (Awg.total_leaf_cost awg) red.Awg.pruned_roots Dputil.Time.pp
    red.Awg.pruned_cost Dputil.Time.pp red.Awg.total_root_cost
    (100.0 *. Awg.non_optimizable_fraction awg)

(* --- machine-readable twins ------------------------------------------- *)

module Json = struct
  module J = Dputil.Jsonw

  let of_ref (r : Provenance.instance_ref) =
    J.Obj
      [
        ("stream", J.int r.Provenance.stream_id);
        ("scenario", J.str r.Provenance.scenario);
        ("tid", J.int r.Provenance.tid);
        ("t0", J.time r.Provenance.t0);
        ("t1", J.time r.Provenance.t1);
      ]

  let of_wait_record (w : Provenance.wait_record) =
    J.Obj
      [
        ("signature", J.str (Dptrace.Signature.name w.Provenance.wr_signature));
        ("event", J.int w.Provenance.wr_event);
        ("ts", J.time w.Provenance.wr_ts);
        ("te", J.time w.Provenance.wr_te);
        ("cost", J.time w.Provenance.wr_cost);
        ("multiplicity", J.int w.Provenance.wr_multiplicity);
        ("instance", of_ref w.Provenance.wr_ref);
      ]

  let of_topk k = J.Arr (List.map of_wait_record (Provenance.Topk.to_list k))

  let of_wset ws =
    J.Arr
      (List.map
         (fun (r, cost, count) ->
           J.Obj
             [
               ("stream", J.int r.Provenance.stream_id);
               ("scenario", J.str r.Provenance.scenario);
               ("tid", J.int r.Provenance.tid);
               ("t0", J.time r.Provenance.t0);
               ("t1", J.time r.Provenance.t1);
               ("cost", J.time cost);
               ("occurrences", J.int count);
             ])
         (Provenance.Wset.entries ws))

  let of_impact ?prov (r : Impact.result) =
    let base =
      [
        ("instances", J.int r.Impact.instances);
        ("d_scn", J.time r.Impact.d_scn);
        ("d_wait", J.time r.Impact.d_wait);
        ("d_run", J.time r.Impact.d_run);
        ("d_waitdist", J.time r.Impact.d_waitdist);
        ("counted_waits", J.int r.Impact.counted_waits);
        ("counted_runs", J.int r.Impact.counted_runs);
        ("ia_wait", J.float (Impact.ia_wait r));
        ("ia_run", J.float (Impact.ia_run r));
        ("ia_opt", J.float (Impact.ia_opt r));
        ("propagation_ratio", J.float (Impact.propagation_ratio r));
      ]
    in
    match prov with
    | None -> J.Obj base
    | Some (p : Provenance.impact) ->
      J.Obj
        (base
        @ [
            ( "provenance",
              J.Obj
                [
                  ("top_waits", of_topk p.Provenance.top_waits);
                  ("top_runs", of_topk p.Provenance.top_runs);
                ] );
          ])

  let of_module_rows ?(prov = Provenance.empty_impact) rows =
    J.Arr
      (List.map
         (fun (r : Impact.module_row) ->
           let top =
             match
               List.assoc_opt r.Impact.module_name prov.Provenance.by_module
             with
             | Some k -> of_topk k
             | None -> J.Arr []
           in
           J.Obj
             [
               ("module", J.str r.Impact.module_name);
               ("wait", J.time r.Impact.m_wait);
               ("waitdist", J.time r.Impact.m_waitdist);
               ("run", J.time r.Impact.m_run);
               ("counted_waits", J.int r.Impact.m_counted_waits);
               ("max_wait", J.time r.Impact.m_max_wait);
               ( "propagation_ratio",
                 J.float (Impact.module_propagation_ratio r) );
               ("provenance", top);
             ])
         rows)

  let of_tuple (t : Tuple.t) =
    let names part =
      J.Arr
        (List.map
           (fun s -> J.str (Dptrace.Signature.name s))
           (Array.to_list part))
    in
    J.Obj
      [
        ("waits", names t.Tuple.waits);
        ("unwaits", names t.Tuple.unwaits);
        ("runnings", names t.Tuple.runnings);
      ]

  let of_pattern ~rank (p : Mining.pattern) =
    J.Obj
      [
        ("rank", J.int rank);
        ("tuple", of_tuple p.Mining.tuple);
        ("cost", J.time p.Mining.cost);
        ("count", J.int p.Mining.count);
        ("avg_cost_us", J.float (Mining.avg_cost p));
        ("max_single", J.time p.Mining.max_single);
        ("witnesses", of_wset p.Mining.witnesses);
        ("fast_witnesses", of_wset p.Mining.fast_witnesses);
      ]

  let of_scenario name (r : Pipeline.scenario_result) =
    let f, m, s = Classify.counts r.Pipeline.classification in
    let red = Awg.reduction r.Pipeline.slow_awg in
    let patterns = r.Pipeline.mining.Mining.patterns in
    J.Obj
      [
        ("name", J.str name);
        ( "classes",
          J.Obj [ ("fast", J.int f); ("middle", J.int m); ("slow", J.int s) ] );
        ( "impact",
          of_impact ~prov:r.Pipeline.slow_impact_prov r.Pipeline.slow_impact );
        ( "coverages",
          J.Obj
            [
              ("driver_cost", J.float (Pipeline.driver_cost_fraction r));
              ("itc", J.float r.Pipeline.coverages.Evaluation.itc);
              ("ttc", J.float r.Pipeline.coverages.Evaluation.ttc);
            ] );
        ( "ranking_coverage",
          J.Obj
            (List.map
               (fun f ->
                 ( Printf.sprintf "top%d" (int_of_float (100.0 *. f)),
                   J.float
                     (Evaluation.ranking_coverage patterns ~top_fraction:f) ))
               [ 0.10; 0.20; 0.30 ]) );
        ( "awg",
          J.Obj
            [
              ("nodes", J.int (Awg.node_count r.Pipeline.slow_awg));
              ("total_cost", J.time (Awg.total_cost r.Pipeline.slow_awg));
              ("leaf_cost", J.time (Awg.total_leaf_cost r.Pipeline.slow_awg));
              ("pruned_roots", J.int red.Awg.pruned_roots);
              ("pruned_cost", J.time red.Awg.pruned_cost);
              ( "non_optimizable",
                J.float (Awg.non_optimizable_fraction r.Pipeline.slow_awg) );
            ] );
        ( "patterns",
          J.Arr
            (List.mapi (fun i p -> J.Defer (fun () -> of_pattern ~rank:(i + 1) p)) patterns) );
      ]

  let of_coverage (cov : Pipeline.coverage) =
    J.Obj
      [
        ("streams_total", J.int cov.Pipeline.cov_total);
        ("streams_analyzed", J.int cov.Pipeline.cov_analyzed);
        ( "streams_quarantined",
          J.Arr
            (List.map
               (fun (sid, reason) ->
                 J.Obj [ ("stream", J.int sid); ("reason", J.str reason) ])
               cov.Pipeline.cov_quarantined) );
      ]

  let document ?coverage ~impact ~impact_prov ~modules ~scenarios () =
    (* The coverage block appears only when a stream was quarantined:
       a fault-free (or fully retried) run emits the pre-fault-layer
       document byte for byte. *)
    let coverage =
      match coverage with
      | Some cov when cov.Pipeline.cov_quarantined <> [] ->
        [ ("coverage", of_coverage cov) ]
      | _ -> []
    in
    J.Obj
      ([
         ("tool", J.str "driveperf");
         ("format", J.int 1);
         ("provenance_enabled", J.Bool (Provenance.enabled ()));
       ]
      @ coverage
      @ [
          ("impact", of_impact ~prov:impact_prov impact);
          ("modules", of_module_rows ~prov:impact_prov modules);
          (* Each scenario, and each of its patterns, is built when the
             printer reaches it: the document is never held whole. *)
          ( "scenarios",
            J.Arr (List.map (fun (n, r) -> J.Defer (fun () -> of_scenario n r)) scenarios) );
        ])
end
