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
  c_idx : int;  (* in creation order *)
  mutable c_wait : Dputil.Time.t;
  mutable c_waitdist : Dputil.Time.t;
  mutable c_run : Dputil.Time.t;
  mutable c_counted : int;
  mutable c_max : Dputil.Time.t;
}

(* A spec'd scenario's slow class, measured in the same traversal as
   everything else: its own sums, distinct waits and reservoirs, fed in
   graph order, so it equals measuring the class's graphs alone. *)
type slow_class = {
  in_class : Dptrace.Scenario.instance -> bool;
  target : int;  (* its reservoirs' buffers *)
  mutable s_sum : result;
  mutable s_dist : Dputil.Time.t;
}

(* One scenario's sums over its graphs, its distinct wait time, and its
   slow class when asked for. *)
type scenario_acc = {
  mutable sum : result;
  mutable dist : Dputil.Time.t;
  slow : slow_class option;
}

(* One domain's scratch for [fused]. First, by event id (ids are dense
   per stream), the distinct events of the stream being measured. It is
   never cleared: an event's fields hold only when its [stamp] is the
   stream's generation, and its [k_] fields only when its [g_stamp] is
   the generation of the scenario being measured in it. Then the best-k
   buffers of the reservoirs being collected: buffer [b] holds up to
   [default_k] entries of [width] ints (cost, stream id, event id,
   multiplicity, first graph) from [b * default_k * width]. *)
type tally = {
  mutable gen : int;
  mutable stamp : int array;
  mutable mult : int array;  (* graphs that counted it *)
  mutable first : int array;  (* the first of them, a graph index *)
  mutable cell : int array;  (* a wait's module cell *)
  mutable g_stamp : int array;
  mutable k_mult : int array;  (* the scenario's slow-class graphs that counted it *)
  mutable k_first : int array;
  mutable best : int array;
  mutable b_n : int array;  (* each buffer's entries *)
}

let width = 5

let tally_key =
  Domain.DLS.new_key (fun () ->
      { gen = 0; stamp = [||]; mult = [||]; first = [||]; cell = [||]; g_stamp = [||];
        k_mult = [||]; k_first = [||]; best = [||]; b_n = [||] })

let next_gen t =
  t.gen <- t.gen + 1;
  t.gen

(* Grown to the largest stream met, and the provenance fields only when
   provenance is on. *)
let grow_events t ~prov events =
  if Array.length t.stamp < events then begin
    t.stamp <- Array.make events 0;
    t.g_stamp <- Array.make events 0;
    t.k_mult <- Array.make events 0
  end;
  if prov && Array.length t.mult < events then begin
    t.mult <- Array.make events 0;
    t.first <- Array.make events 0;
    t.cell <- Array.make events 0;
    t.k_first <- Array.make events 0
  end

(* Buffers are filled across a call's streams, so growing keeps them. *)
let grow_buffers t buffers =
  if Array.length t.b_n < buffers then begin
    let n = max buffers (2 * Array.length t.b_n) in
    let best = Array.make (n * Provenance.default_k * width) 0 and b_n = Array.make n 0 in
    Array.blit t.best 0 best 0 (Array.length t.best);
    Array.blit t.b_n 0 b_n 0 (Array.length t.b_n);
    t.best <- best;
    t.b_n <- b_n
  end

(* Whether entry [j] of the buffer at [o] comes after (cost, sid, eid)
   in the reservoir order: cost descending, then stream id, then event
   id. *)
let after t o j ~cost ~sid ~eid =
  let p = o + (j * width) in
  let c = t.best.(p) in
  c < cost
  || c = cost
     && (let s = t.best.(p + 1) in
         s > sid || (s = sid && t.best.(p + 2) > eid))

let offer t b ~cost ~sid ~eid ~mult ~gi =
  let k = Provenance.default_k in
  let o = b * k * width and n = t.b_n.(b) in
  if n < k || after t o (k - 1) ~cost ~sid ~eid then begin
    let j = ref (min n (k - 1)) in
    while !j > 0 && after t o (!j - 1) ~cost ~sid ~eid do
      Array.blit t.best (o + ((!j - 1) * width)) t.best (o + (!j * width)) width;
      decr j
    done;
    let p = o + (!j * width) in
    t.best.(p) <- cost;
    t.best.(p + 1) <- sid;
    t.best.(p + 2) <- eid;
    t.best.(p + 3) <- mult;
    t.best.(p + 4) <- gi;
    if n < k then t.b_n.(b) <- n + 1
  end

(* Offer the stream's events that [target] counted ([stamps.(e) =
   stamp], [mult.(e) > 0]) to its buffers: a wait to the waits' (kind 0)
   and its module's (2 + cell), a run to the runs' (1). A kind's buffer
   for a target is [kind * targets + target]. *)
let offer_stream t (graphs : Wait_graph.t array) ~targets ~target ~events ~stamps ~stamp ~mult
    ~first =
  for eid = 0 to events - 1 do
    if stamps.(eid) = stamp && mult.(eid) > 0 then begin
      let gi = first.(eid) in
      let st = graphs.(gi).Wait_graph.stream in
      let cost = st.Dptrace.Stream.events.(eid).Event.cost and sid = st.Dptrace.Stream.id in
      if Event.is_wait st.Dptrace.Stream.events.(eid) then begin
        offer t target ~cost ~sid ~eid ~mult:mult.(eid) ~gi;
        offer t (((2 + t.cell.(eid)) * targets) + target) ~cost ~sid ~eid ~mult:mult.(eid) ~gi
      end
      else offer t (targets + target) ~cost ~sid ~eid ~mult:mult.(eid) ~gi
    end
  done

(* [target]'s reservoirs, from its buffers. Records are made for the
   buffers' entries only, each once (a module's wait is the waits'
   record when it made that cut too), their refs once per graph. *)
let reservoirs components (graphs : Wait_graph.t array) t ~targets ~target names =
  let k = Provenance.default_k in
  let at b i = (b * k * width) + (i * width) in
  if t.b_n.(target) + t.b_n.(targets + target) = 0 then Provenance.empty_impact
  else begin
    let made = ref [] in
    let ref_of gi =
      match List.assq_opt gi !made with
      | Some r -> r
      | None ->
        let g = graphs.(gi) in
        let r = Provenance.ref_of g.Wait_graph.stream g.Wait_graph.instance in
        made := (gi, r) :: !made;
        r
    in
    let record p =
      let gi = t.best.(p + 4) and eid = t.best.(p + 2) in
      let e = graphs.(gi).Wait_graph.stream.Dptrace.Stream.events.(eid) in
      {
        Provenance.wr_ref = ref_of gi;
        wr_event = eid;
        wr_signature = Option.get (Component.event_signature components e);
        wr_ts = e.Event.ts;
        wr_te = Event.end_ts e;
        wr_cost = e.Event.cost;
        wr_multiplicity = t.best.(p + 3);
      }
    in
    let waits = Array.init t.b_n.(target) (fun i -> record (at target i)) in
    let records b =
      List.init t.b_n.(b) (fun i ->
          let p = at b i in
          let j = ref 0 in
          while
            !j < Array.length waits
            && (t.best.(at target !j + 1) <> t.best.(p + 1)
               || t.best.(at target !j + 2) <> t.best.(p + 2))
          do
            incr j
          done;
          if !j < Array.length waits then waits.(!j) else record p)
    in
    let topk b =
      Provenance.Topk.of_list Provenance.empty_impact.Provenance.top_waits (records b)
    in
    let by_module = ref [] in
    for c = 0 to Array.length names - 1 do
      let b = ((2 + c) * targets) + target in
      if t.b_n.(b) > 0 then by_module := (names.(c), topk b) :: !by_module
    done;
    {
      Provenance.top_waits = topk target;
      top_runs = topk (targets + target);
      by_module = List.sort (fun (a, _) (b, _) -> String.compare a b) !by_module;
    }
  end

(* The one traversal: per graph, a BFS for the top-level component waits
   and an [iter_nodes] pass for component running time, accumulating the
   impact result, the per-module cells, the graph's scenario's sums, its
   slow class's and (with [prov]) the provenance together. A wait or
   running event counts iff its topmost matching signature exists — the
   same test as "any frame matches" for these kinds — and that
   signature's module is its cell. The graphs are measured a stream id at
   a time, and within it a scenario at a time, in first-appearance
   order, each scenario's in graph order: everything measured is a sum,
   a max, a count or a first graph index, and distinct events never
   cross streams, so only the per-scenario distinct sets see the
   grouping. Each stream's counted events are offered to the reservoirs
   when it is done, and records are made at the end. *)
let fused ?(prov = false) ?(slow = fun _ -> None) components graphs =
  let graphs = Array.of_list graphs in
  let cells : (string, module_cell) Hashtbl.t = Hashtbl.create 32 in
  let cell name =
    match Hashtbl.find_opt cells name with
    | Some c -> c
    | None ->
      let c =
        { c_idx = Hashtbl.length cells; c_wait = 0; c_waitdist = 0; c_run = 0;
          c_counted = 0; c_max = 0 }
      in
      Hashtbl.replace cells name c;
      c
  in
  (* Per scenario name, newest first (a call sees a handful). *)
  let scenarios = ref [] and classes = ref 0 in
  let scenario name =
    match List.assoc_opt name !scenarios with
    | Some s -> s
    | None ->
      let slow =
        Option.map
          (fun in_class ->
            incr classes;
            { in_class; target = !classes; s_sum = empty; s_dist = 0 })
          (slow name)
      in
      let s = { sum = empty; dist = 0; slow } in
      scenarios := (name, s) :: !scenarios;
      s
  in
  let of_graph =
    Array.map (fun (g : Wait_graph.t) -> scenario g.Wait_graph.instance.Dptrace.Scenario.scenario) graphs
  in
  let in_order = List.rev !scenarios in
  let targets = 1 + !classes in
  let t = Domain.DLS.get tally_key in
  if prov then begin
    grow_buffers t (2 * targets);
    Array.fill t.b_n 0 (Array.length t.b_n) 0
  end;
  let d_waitdist = ref 0 in
  let measure_graph ~sgen ~ggen gi =
    let g = graphs.(gi) and sc = of_graph.(gi) in
    let cls =
      match sc.slow with
      | Some c when c.in_class g.Wait_graph.instance -> sc.slow
      | Some _ | None -> None
    in
    (* BFS that counts a matching wait and does not descend into it. The
       graph's marks keep the DAG linear. A wait's first count in the
       stream, in its scenario and in its class adds it to the distinct
       sums. *)
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
              let cost = e.Event.cost and s = e.Event.id in
              let c = cell (Dptrace.Signature.module_part signature) in
              d_wait := !d_wait + cost;
              incr counted_waits;
              c.c_wait <- c.c_wait + cost;
              c.c_counted <- c.c_counted + 1;
              if cost > c.c_max then c.c_max <- cost;
              if t.stamp.(s) <> sgen then begin
                t.stamp.(s) <- sgen;
                d_waitdist := !d_waitdist + cost;
                c.c_waitdist <- c.c_waitdist + cost;
                if prov then begin
                  t.mult.(s) <- 0;
                  t.first.(s) <- gi;
                  t.cell.(s) <- c.c_idx
                end
              end;
              if prov then begin
                t.mult.(s) <- t.mult.(s) + 1;
                if gi < t.first.(s) then t.first.(s) <- gi
              end;
              if t.g_stamp.(s) <> ggen then begin
                t.g_stamp.(s) <- ggen;
                t.k_mult.(s) <- 0;
                sc.dist <- sc.dist + cost
              end;
              (match cls with
              | Some cls ->
                if t.k_mult.(s) = 0 then begin
                  if prov then t.k_first.(s) <- gi;
                  cls.s_dist <- cls.s_dist + cost
                end;
                t.k_mult.(s) <- t.k_mult.(s) + 1
              | None -> ())
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
            if prov then begin
              let s = e.Event.id in
              if t.stamp.(s) <> sgen then begin
                t.stamp.(s) <- sgen;
                t.mult.(s) <- 0;
                t.first.(s) <- gi
              end;
              t.mult.(s) <- t.mult.(s) + 1;
              if gi < t.first.(s) then t.first.(s) <- gi;
              if cls <> None then begin
                if t.g_stamp.(s) <> ggen then begin
                  t.g_stamp.(s) <- ggen;
                  t.k_mult.(s) <- 0
                end;
                if t.k_mult.(s) = 0 then t.k_first.(s) <- gi;
                t.k_mult.(s) <- t.k_mult.(s) + 1
              end
            end
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
    Option.iter (fun c -> c.s_sum <- add c.s_sum) cls
  in
  (* The graph indices by stream id, each id's in graph order. *)
  let sid gi = graphs.(gi).Wait_graph.stream.Dptrace.Stream.id in
  let by_id = Array.init (Array.length graphs) Fun.id in
  if not (Array.for_all (fun gi -> sid gi = sid 0) by_id) then
    Array.stable_sort (fun a b -> Int.compare (sid a) (sid b)) by_id;
  let offer_counted ~target ~events ~stamps ~stamp ~mult ~first =
    grow_buffers t ((2 + Hashtbl.length cells) * targets);
    offer_stream t graphs ~targets ~target ~events ~stamps ~stamp ~mult ~first
  in
  let i = ref 0 in
  while !i < Array.length by_id do
    let j = ref !i and events = ref 0 in
    while !j < Array.length by_id && sid by_id.(!j) = sid by_id.(!i) do
      events := max !events (Dptrace.Stream.event_count graphs.(by_id.(!j)).Wait_graph.stream);
      incr j
    done;
    grow_events t ~prov !events;
    let sgen = next_gen t in
    List.iter
      (fun (_, sc) ->
        let ggen = next_gen t and measured = ref false in
        for x = !i to !j - 1 do
          if of_graph.(by_id.(x)) == sc then begin
            measured := true;
            measure_graph ~sgen ~ggen by_id.(x)
          end
        done;
        match sc.slow with
        | Some c when prov && !measured ->
          offer_counted ~target:c.target ~events:!events ~stamps:t.g_stamp ~stamp:ggen
            ~mult:t.k_mult ~first:t.k_first
        | Some _ | None -> ())
      in_order;
    if prov then
      offer_counted ~target:0 ~events:!events ~stamps:t.stamp ~stamp:sgen ~mult:t.mult
        ~first:t.first;
    i := !j
  done;
  let names = Array.make (Hashtbl.length cells) "" in
  if prov then Hashtbl.iter (fun name c -> names.(c.c_idx) <- name) cells;
  let reservoirs target =
    if prov then reservoirs components graphs t ~targets ~target names
    else Provenance.empty_impact
  in
  let per_scenario =
    List.map (fun (name, s) -> (name, { s.sum with d_waitdist = s.dist })) in_order
  in
  let slow_classes =
    List.filter_map
      (fun (name, s) ->
        Option.map
          (fun c -> (name, ({ c.s_sum with d_waitdist = c.s_dist }, reservoirs c.target)))
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
  ({ acc with d_waitdist = !d_waitdist }, reservoirs 0, sort_rows rows, per_scenario, slow_classes)

let measure ?slow components graphs =
  fused ~prov:(Provenance.enabled ()) ?slow components graphs

let analyze_graphs_prov components graphs =
  let r, prov, _, _, _ = measure components graphs in
  (r, prov)

let by_module components graphs =
  let _, _, rows, _, _ = fused components graphs in
  rows

let fdiv a b = Dputil.Stats.ratio (float_of_int a) (float_of_int b)

let ia_run r = fdiv r.d_run r.d_scn
let ia_wait r = fdiv r.d_wait r.d_scn
let ia_opt r = fdiv (r.d_wait - r.d_waitdist) r.d_scn
let propagation_ratio r = fdiv r.d_wait r.d_waitdist

(* Per-module rows measured over disjoint streams, combined: the
   distinct tables behind [m_waitdist] key on (stream, event), so plain
   sums (and max of maxes) are exact, and sorting once at the end
   restores [by_module]'s order. *)
type module_table = (string, module_row) Hashtbl.t

let module_table () : module_table = Hashtbl.create 64

let add_modules (tbl : module_table) rows =
  List.iter
    (fun r ->
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
      | None -> Hashtbl.replace tbl r.module_name r)
    rows

let module_rows (tbl : module_table) = sort_rows (Hashtbl.fold (fun _ r acc -> r :: acc) tbl [])

let module_propagation_ratio r =
  fdiv r.m_wait r.m_waitdist
