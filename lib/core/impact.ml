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

(* The one traversal: per graph, a BFS for the top-level component waits
   and an [iter_nodes] pass for component running time, accumulating the
   impact result, the per-module cells, the graph's scenario's sums and
   (given a collector) the provenance together. A wait or running event
   counts iff its topmost matching signature exists — the same test as
   [Component.stack_relevant] for these kinds — and that signature's
   module is its cell. *)
let fused ?collector components graphs =
  let cells : (string, module_cell) Hashtbl.t = Hashtbl.create 32 in
  let cell name =
    match Hashtbl.find_opt cells name with
    | Some c -> c
    | None ->
      let c = { c_wait = 0; c_waitdist = 0; c_run = 0; c_counted = 0; c_max = 0 } in
      Hashtbl.replace cells name c;
      c
  in
  (* Per scenario name, newest first (a call sees a handful): the sums
     over its graphs and its distinct wait time. *)
  let scenarios = ref [] in
  let scenario name =
    match List.assoc_opt name !scenarios with
    | Some s -> s
    | None ->
      let s = (ref empty, ref 0) in
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
    let iref =
      lazy (Provenance.ref_of g.Wait_graph.stream g.Wait_graph.instance)
    in
    (* BFS that counts a matching wait and does not descend into it.
       Per-graph visited set keeps the DAG linear. *)
    let visited : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    let d_wait = ref 0 and counted_waits = ref 0 in
    let rec bfs (n : Wait_graph.node) =
      let e = n.Wait_graph.event in
      if not (Hashtbl.mem visited e.Event.id) then begin
        Hashtbl.replace visited e.Event.id ();
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
          Option.iter
            (fun col ->
              Provenance.Collector.record_wait col ~module_name ~stream_id
                ~instance:(Lazy.force iref) ~event:e ~signature)
            collector
        | None -> List.iter bfs n.Wait_graph.children
      end
    in
    List.iter bfs g.Wait_graph.roots;
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
            Option.iter
              (fun col ->
                Provenance.Collector.record_run col ~stream_id
                  ~instance:(Lazy.force iref) ~event:e ~signature)
              collector
          | None -> ());
    let acc = fst sc in
    acc :=
      {
        !acc with
        d_scn = !acc.d_scn + Dptrace.Scenario.duration g.Wait_graph.instance;
        d_wait = !acc.d_wait + !d_wait;
        d_run = !acc.d_run + !d_run;
        instances = !acc.instances + 1;
        counted_waits = !acc.counted_waits + !counted_waits;
        counted_runs = !acc.counted_runs + !counted_runs;
      }
  in
  List.iter measure_graph graphs;
  let d_waitdist =
    Hashtbl.fold
      (fun _ (c, cost, scs) total ->
        c.c_waitdist <- c.c_waitdist + cost;
        List.iter (fun (_, dist) -> dist := !dist + cost) scs;
        total + cost)
      distinct 0
  in
  let per_scenario =
    List.rev_map
      (fun (name, (acc, dist)) -> (name, { !acc with d_waitdist = !dist }))
      !scenarios
  in
  (* The scenarios' sums partition the whole's; their distinct waits do
     not. *)
  let acc = List.fold_left (fun a (_, (acc, _)) -> merge a !acc) empty !scenarios in
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
  ({ acc with d_waitdist }, sort_rows rows, per_scenario)

let measure components graphs =
  if not (Provenance.enabled ()) then
    let r, rows, per_scenario = fused components graphs in
    (r, Provenance.empty_impact, rows, per_scenario)
  else begin
    let collector = Provenance.Collector.create () in
    let r, rows, per_scenario = fused ~collector components graphs in
    (r, Provenance.Collector.impact collector, rows, per_scenario)
  end

let analyze_graphs_prov components graphs =
  let r, prov, _, _ = measure components graphs in
  (r, prov)

let by_module components graphs =
  let _, rows, _ = fused components graphs in
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
