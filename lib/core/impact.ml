module Event = Dptrace.Event
module Wait_graph = Dpwaitgraph.Wait_graph

type result = {
  d_scn : Dputil.Time.t;
  d_wait : Dputil.Time.t;
  d_run : Dputil.Time.t;
  d_waitdist : Dputil.Time.t;
  instances : int;
  counted_waits : int;
  counted_runs : int;
}

let empty =
  {
    d_scn = 0;
    d_wait = 0;
    d_run = 0;
    d_waitdist = 0;
    instances = 0;
    counted_waits = 0;
    counted_runs = 0;
  }

type module_row = {
  module_name : string;
  m_wait : Dputil.Time.t;
  m_waitdist : Dputil.Time.t;
  m_run : Dputil.Time.t;
  m_counted_waits : int;
  m_max_wait : Dputil.Time.t;
}

let merge a b =
  {
    d_scn = a.d_scn + b.d_scn;
    d_wait = a.d_wait + b.d_wait;
    d_run = a.d_run + b.d_run;
    d_waitdist = a.d_waitdist + b.d_waitdist;
    instances = a.instances + b.instances;
    counted_waits = a.counted_waits + b.counted_waits;
    counted_runs = a.counted_runs + b.counted_runs;
  }

let sort_rows rows =
  List.sort
    (fun a b ->
      match compare b.m_wait a.m_wait with
      | 0 -> compare a.module_name b.module_name
      | c -> c)
    rows

type module_cell = {
  mutable c_wait : Dputil.Time.t;
  mutable c_waitdist : Dputil.Time.t;
  mutable c_run : Dputil.Time.t;
  mutable c_counted : int;
  mutable c_max : Dputil.Time.t;
}

(* A spec'd scenario's slow class, measured in the same traversal as
   everything else: its own sums, distinct-wait set and provenance
   collector, fed in graph order, so it equals measuring the class's
   graphs alone. *)
type slow_class = {
  in_class : Dptrace.Scenario.instance -> bool;
  mutable s_sum : result;
  s_distinct : (int * int, Dputil.Time.t) Hashtbl.t;
  s_collector : Provenance.Collector.t option;
}

(* One scenario's sums over its graphs, its distinct wait time, and its
   slow class when asked for. *)
type scenario_acc = {
  mutable sum : result;
  mutable dist : Dputil.Time.t;
  slow : slow_class option;
}

(* The one traversal: per graph, a BFS for the top-level component waits
   and an [iter_nodes] pass for component running time, accumulating the
   impact result, the per-module cells, the graph's scenario's sums, its
   slow class's and (given a collector) the provenance together. A wait
   or running event counts iff its topmost matching signature exists —
   the same test as [Component.stack_relevant] for these kinds — and
   that signature's module is its cell. *)
let fused ?collector ?(slow = fun _ -> None) components graphs =
  let cells : (string, module_cell) Hashtbl.t = Hashtbl.create 32 in
  let cell name =
    match Hashtbl.find_opt cells name with
    | Some c -> c
    | None ->
      let c = { c_wait = 0; c_waitdist = 0; c_run = 0; c_counted = 0; c_max = 0 } in
      Hashtbl.replace cells name c;
      c
  in
  (* Per scenario name, newest first (a call sees a handful). *)
  let scenarios = ref [] in
  let scenario name =
    match List.assoc_opt name !scenarios with
    | Some s -> s
    | None ->
      let slow =
        Option.map
          (fun in_class ->
            {
              in_class;
              s_sum = empty;
              s_distinct = Hashtbl.create 16;
              s_collector =
                Option.map (fun _ -> Provenance.Collector.create ()) collector;
            })
          (slow name)
      in
      let s = { sum = empty; dist = 0; slow } in
      scenarios := (name, s) :: !scenarios;
      s
  in
  (* (stream id, event id) → (cell, cost, the scenarios reaching it),
     across all instances: the distinct-wait set whose total is
     d_waitdist. An event's module is a function of the event, so each
     cell's share is its m_waitdist; a wait that instances of two
     scenarios reach is distinct in each. Sized for the common call, one
     stream's part or one scenario's class within a stream; it grows for
     larger inputs. *)
  let distinct = Hashtbl.create 64 in
  let measure_graph (g : Wait_graph.t) =
    let stream_id = g.Wait_graph.stream.Dptrace.Stream.id in
    let sc = scenario g.Wait_graph.instance.Dptrace.Scenario.scenario in
    let cls =
      match sc.slow with
      | Some c when c.in_class g.Wait_graph.instance -> Some c
      | Some _ | None -> None
    in
    let iref =
      lazy (Provenance.ref_of g.Wait_graph.stream g.Wait_graph.instance)
    in
    (* BFS that counts a matching wait and does not descend into it. The
       graph's marks keep the DAG linear. *)
    let d_wait = ref 0 and counted_waits = ref 0 in
    Wait_graph.with_marks g (fun marks ->
        let rec bfs (n : Wait_graph.node) =
          let e = n.Wait_graph.event in
          if Wait_graph.first_visit marks e then
            match
              if Event.is_wait e then Component.event_signature components e
              else None
            with
            | Some signature ->
              let module_name = Dptrace.Signature.module_part signature in
              let c = cell module_name in
              d_wait := !d_wait + e.Event.cost;
              incr counted_waits;
              c.c_wait <- c.c_wait + e.Event.cost;
              c.c_counted <- c.c_counted + 1;
              if e.Event.cost > c.c_max then c.c_max <- e.Event.cost;
              let key = (stream_id, e.Event.id) in
              (match Hashtbl.find_opt distinct key with
              | None -> Hashtbl.add distinct key (c, e.Event.cost, [ sc ])
              | Some (_, _, scs) when List.memq sc scs -> ()
              | Some (_, _, scs) ->
                Hashtbl.replace distinct key (c, e.Event.cost, sc :: scs));
              let record col =
                Provenance.Collector.record_wait col ~module_name ~stream_id
                  ~instance:(Lazy.force iref) ~event:e ~signature
              in
              Option.iter record collector;
              Option.iter
                (fun s ->
                  if not (Hashtbl.mem s.s_distinct key) then
                    Hashtbl.add s.s_distinct key e.Event.cost;
                  Option.iter record s.s_collector)
                cls
            | None -> List.iter bfs n.Wait_graph.children
        in
        List.iter bfs g.Wait_graph.roots);
    (* Component running time over all distinct nodes of the graph. *)
    let d_run = ref 0 and counted_runs = ref 0 in
    Wait_graph.iter_nodes g (fun n ->
        let e = n.Wait_graph.event in
        if Event.is_running e then
          match Component.event_signature components e with
          | Some signature ->
            let c = cell (Dptrace.Signature.module_part signature) in
            d_run := !d_run + e.Event.cost;
            incr counted_runs;
            c.c_run <- c.c_run + e.Event.cost;
            let record col =
              Provenance.Collector.record_run col ~stream_id
                ~instance:(Lazy.force iref) ~event:e ~signature
            in
            Option.iter record collector;
            Option.iter (fun s -> Option.iter record s.s_collector) cls
          | None -> ());
    let add (acc : result) =
      {
        acc with
        d_scn = acc.d_scn + Dptrace.Scenario.duration g.Wait_graph.instance;
        d_wait = acc.d_wait + !d_wait;
        d_run = acc.d_run + !d_run;
        instances = acc.instances + 1;
        counted_waits = acc.counted_waits + !counted_waits;
        counted_runs = acc.counted_runs + !counted_runs;
      }
    in
    sc.sum <- add sc.sum;
    Option.iter (fun s -> s.s_sum <- add s.s_sum) cls
  in
  List.iter measure_graph graphs;
  let d_waitdist =
    Hashtbl.fold
      (fun _ (c, cost, scs) total ->
        c.c_waitdist <- c.c_waitdist + cost;
        List.iter (fun s -> s.dist <- s.dist + cost) scs;
        total + cost)
      distinct 0
  in
  let in_order = List.rev !scenarios in
  let per_scenario =
    List.map (fun (name, s) -> (name, { s.sum with d_waitdist = s.dist })) in_order
  in
  let slow_classes =
    List.filter_map
      (fun (name, s) ->
        Option.map
          (fun c ->
            let d_waitdist = Hashtbl.fold (fun _ cost t -> t + cost) c.s_distinct 0 in
            ( name,
              ( { c.s_sum with d_waitdist },
                match c.s_collector with
                | Some col -> Provenance.Collector.impact col
                | None -> Provenance.empty_impact ) ))
          s.slow)
      in_order
  in
  (* The scenarios' sums partition the whole's; their distinct waits do
     not. *)
  let acc = List.fold_left (fun a (_, s) -> merge a s.sum) empty in_order in
  let rows =
    Hashtbl.fold
      (fun module_name c acc ->
        {
          module_name;
          m_wait = c.c_wait;
          m_waitdist = c.c_waitdist;
          m_run = c.c_run;
          m_counted_waits = c.c_counted;
          m_max_wait = c.c_max;
        }
        :: acc)
      cells []
  in
  ({ acc with d_waitdist }, sort_rows rows, per_scenario, slow_classes)

let measure ?slow components graphs =
  let collector =
    if Provenance.enabled () then Some (Provenance.Collector.create ()) else None
  in
  let r, rows, per_scenario, slow_classes = fused ?collector ?slow components graphs in
  let prov =
    match collector with
    | Some col -> Provenance.Collector.impact col
    | None -> Provenance.empty_impact
  in
  (r, prov, rows, per_scenario, slow_classes)

let analyze_graphs_prov components graphs =
  let r, prov, _, _, _ = measure components graphs in
  (r, prov)

let by_module components graphs =
  let _, rows, _, _ = fused components graphs in
  rows

let fdiv a b = Dputil.Stats.ratio (float_of_int a) (float_of_int b)

let ia_run r = fdiv r.d_run r.d_scn
let ia_wait r = fdiv r.d_wait r.d_scn
let ia_opt r = fdiv (r.d_wait - r.d_waitdist) r.d_scn
let propagation_ratio r = fdiv r.d_wait r.d_waitdist

(* Combine per-module rows measured over disjoint streams: the distinct
   tables behind [m_waitdist] key on (stream, event), so plain sums (and
   max of maxes) are exact, and re-sorting restores [by_module]'s order. *)
let merge_modules a b =
  let tbl : (string, module_row) Hashtbl.t = Hashtbl.create 32 in
  let feed r =
    match Hashtbl.find_opt tbl r.module_name with
    | Some p ->
      Hashtbl.replace tbl r.module_name
        {
          p with
          m_wait = p.m_wait + r.m_wait;
          m_waitdist = p.m_waitdist + r.m_waitdist;
          m_run = p.m_run + r.m_run;
          m_counted_waits = p.m_counted_waits + r.m_counted_waits;
          m_max_wait = max p.m_max_wait r.m_max_wait;
        }
    | None -> Hashtbl.replace tbl r.module_name r
  in
  List.iter feed a;
  List.iter feed b;
  sort_rows (Hashtbl.fold (fun _ r acc -> r :: acc) tbl [])

let module_propagation_ratio r =
  fdiv r.m_wait r.m_waitdist

let pp fmt r =
  Format.fprintf fmt
    "impact: %d instances, D_scn=%a, D_wait=%a (IA_wait=%.1f%%), D_run=%a \
     (IA_run=%.1f%%), D_waitdist=%a (IA_opt=%.1f%%, ratio=%.2f)"
    r.instances Dputil.Time.pp r.d_scn Dputil.Time.pp r.d_wait
    (100.0 *. ia_wait r) Dputil.Time.pp r.d_run
    (100.0 *. ia_run r)
    Dputil.Time.pp r.d_waitdist
    (100.0 *. ia_opt r)
    (propagation_ratio r)
