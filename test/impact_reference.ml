(* The two-walk impact measurement, kept as the test oracle for
   Dpcore.Impact's single traversal.

   These are the pre-fusion algorithms: [analyze_graphs_into] tests
   relevance with [Component.stack_relevant] (any matching frame) and
   names the signature with [Component.event_signature_or_top], while
   [by_module] walks every graph a second time and attributes by
   [Component.event_signature] (the topmost matching frame). Neither
   shares the engine's per-module cells or its single distinct-wait
   table, so the fused ≡ reference properties in test_impact compare two
   independent implementations. *)

module Event = Dptrace.Event
module Wait_graph = Dpwaitgraph.Wait_graph
module Component = Dpcore.Component
module Provenance = Dpcore.Provenance
open Dpcore.Impact

let analyze_graphs_into ?collector components graphs =
  (* (stream id, event id) → cost, across all instances: the distinct-wait
     set whose total is d_waitdist. *)
  let distinct : (int * int, Dputil.Time.t) Hashtbl.t = Hashtbl.create 1024 in
  let acc = ref empty in
  let measure_graph (g : Wait_graph.t) =
    let stream_id = g.Wait_graph.stream.Dptrace.Stream.id in
    let d_scn = Dptrace.Scenario.duration g.Wait_graph.instance in
    let iref =
      lazy (Provenance.ref_of g.Wait_graph.stream g.Wait_graph.instance)
    in
    (* Top-level component waits: BFS that counts a matching wait and does
       not descend into it. Per-graph visited set keeps the DAG linear. *)
    let visited : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    let d_wait = ref 0 and counted_waits = ref 0 in
    let rec bfs (n : Wait_graph.node) =
      let e = n.Wait_graph.event in
      if not (Hashtbl.mem visited e.Event.id) then begin
        Hashtbl.replace visited e.Event.id ();
        if Event.is_wait e && Component.stack_relevant components e.Event.stack
        then begin
          d_wait := !d_wait + e.Event.cost;
          incr counted_waits;
          Hashtbl.replace distinct (stream_id, e.Event.id) e.Event.cost;
          match collector with
          | Some c ->
            let signature = Component.event_signature_or_top components e in
            Provenance.Collector.record_wait c
              ~module_name:(Dptrace.Signature.module_part signature)
              ~stream_id ~instance:(Lazy.force iref) ~event:e ~signature
          | None -> ()
        end
        else List.iter bfs n.Wait_graph.children
      end
    in
    List.iter bfs g.Wait_graph.roots;
    (* Component running time over all distinct nodes of the graph. *)
    let d_run = ref 0 and counted_runs = ref 0 in
    Wait_graph.iter_nodes g (fun n ->
        let e = n.Wait_graph.event in
        if Event.is_running e && Component.stack_relevant components e.Event.stack
        then begin
          d_run := !d_run + e.Event.cost;
          incr counted_runs;
          match collector with
          | Some c ->
            let signature = Component.event_signature_or_top components e in
            Provenance.Collector.record_run c ~stream_id
              ~instance:(Lazy.force iref) ~event:e ~signature
          | None -> ()
        end);
    acc :=
      {
        d_scn = !acc.d_scn + d_scn;
        d_wait = !acc.d_wait + !d_wait;
        d_run = !acc.d_run + !d_run;
        d_waitdist = !acc.d_waitdist;
        instances = !acc.instances + 1;
        counted_waits = !acc.counted_waits + !counted_waits;
        counted_runs = !acc.counted_runs + !counted_runs;
      }
  in
  List.iter measure_graph graphs;
  let d_waitdist = Hashtbl.fold (fun _ cost total -> total + cost) distinct 0 in
  { !acc with d_waitdist }

let analyze_graphs components graphs = analyze_graphs_into components graphs

(* The per-scenario impact table as the pipeline once composed it: each
   scenario's instances' graphs built and measured on their own, then
   sorted by wait mass descending, then by name. *)
let per_scenario components corpus =
  Dptrace.Corpus.scenario_names corpus
  |> List.map (fun name ->
         let graphs =
           Dpcore.Pipeline.build_graphs corpus (Dptrace.Corpus.instances_of corpus name)
         in
         (name, analyze_graphs components graphs))
  |> List.sort (fun (na, a) (nb, b) ->
         match compare b.d_wait a.d_wait with 0 -> compare na nb | c -> c)

let analyze_graphs_prov components graphs =
  if not (Provenance.enabled ()) then
    (analyze_graphs_into components graphs, Provenance.empty_impact)
  else begin
    let collector = Provenance.Collector.create () in
    let r = analyze_graphs_into ~collector components graphs in
    (r, Provenance.Collector.impact collector)
  end

type module_cell = {
  mutable c_wait : Dputil.Time.t;
  mutable c_run : Dputil.Time.t;
  mutable c_counted : int;
  mutable c_max : Dputil.Time.t;
  distinct : (int * int, Dputil.Time.t) Hashtbl.t;
}

let by_module components graphs =
  let cells : (string, module_cell) Hashtbl.t = Hashtbl.create 32 in
  let cell name =
    match Hashtbl.find_opt cells name with
    | Some c -> c
    | None ->
      let c =
        { c_wait = 0; c_run = 0; c_counted = 0; c_max = 0; distinct = Hashtbl.create 64 }
      in
      Hashtbl.replace cells name c;
      c
  in
  let module_of (e : Event.t) =
    Option.map
      (fun s -> Dptrace.Signature.module_part s)
      (Component.event_signature components e)
  in
  List.iter
    (fun (g : Wait_graph.t) ->
      let stream_id = g.Wait_graph.stream.Dptrace.Stream.id in
      let visited : (int, unit) Hashtbl.t = Hashtbl.create 64 in
      let rec bfs (n : Wait_graph.node) =
        let e = n.Wait_graph.event in
        if not (Hashtbl.mem visited e.Event.id) then begin
          Hashtbl.replace visited e.Event.id ();
          if Event.is_wait e && Component.stack_relevant components e.Event.stack
          then begin
            match module_of e with
            | Some name ->
              let c = cell name in
              c.c_wait <- c.c_wait + e.Event.cost;
              c.c_counted <- c.c_counted + 1;
              if e.Event.cost > c.c_max then c.c_max <- e.Event.cost;
              Hashtbl.replace c.distinct (stream_id, e.Event.id) e.Event.cost
            | None -> ()
          end
          else List.iter bfs n.Wait_graph.children
        end
      in
      List.iter bfs g.Wait_graph.roots;
      Wait_graph.iter_nodes g (fun n ->
          let e = n.Wait_graph.event in
          if Event.is_running e then
            match module_of e with
            | Some name ->
              let c = cell name in
              c.c_run <- c.c_run + e.Event.cost
            | None -> ()))
    graphs;
  Hashtbl.fold
    (fun module_name c acc ->
      {
        module_name;
        m_wait = c.c_wait;
        m_waitdist = Hashtbl.fold (fun _ cost t -> t + cost) c.distinct 0;
        m_run = c.c_run;
        m_counted_waits = c.c_counted;
        m_max_wait = c.c_max;
      }
      :: acc)
    cells []
  |> List.sort (fun a b ->
         match compare b.m_wait a.m_wait with
         | 0 -> compare a.module_name b.module_name
         | c -> c)
