(* Result provenance. See provenance.mli for the contract. The switch is
   one atomic bool; every collection site in impact/awg/mining loads it
   once and branches, so disabled runs do no provenance work at all. *)

let flag = Atomic.make false
let enabled () = Atomic.get flag
let enable () = Atomic.set flag true
let disable () = Atomic.set flag false

let default_k = 8

type instance_ref = {
  stream_id : int;
  scenario : string;
  tid : int;
  t0 : Dputil.Time.t;
  t1 : Dputil.Time.t;
}

let ref_of (st : Dptrace.Stream.t) (i : Dptrace.Scenario.instance) =
  {
    stream_id = st.Dptrace.Stream.id;
    scenario = i.Dptrace.Scenario.scenario;
    tid = i.Dptrace.Scenario.tid;
    t0 = i.Dptrace.Scenario.t0;
    t1 = i.Dptrace.Scenario.t1;
  }

let compare_ref a b =
  match compare a.stream_id b.stream_id with
  | 0 -> (
    match compare a.t0 b.t0 with
    | 0 -> (
      match compare a.tid b.tid with
      | 0 -> compare a.scenario b.scenario
      | c -> c)
    | c -> c)
  | c -> c

let pp_ref fmt r =
  Format.fprintf fmt "%s stream %d tid=%d [%a, %a]" r.scenario r.stream_id
    r.tid Dputil.Time.pp r.t0 Dputil.Time.pp r.t1

let write_ref buf r =
  Dptrace.Wire.wv buf r.stream_id;
  Dptrace.Wire.wstr buf r.scenario;
  Dptrace.Wire.wv buf r.tid;
  Dptrace.Wire.wv buf r.t0;
  Dptrace.Wire.wv buf r.t1

let read_ref cur =
  let stream_id = Dptrace.Wire.rv cur in
  let scenario = Dptrace.Wire.rstr cur in
  let tid = Dptrace.Wire.rv cur in
  let t0 = Dptrace.Wire.rv cur in
  let t1 = Dptrace.Wire.rv cur in
  { stream_id; scenario; tid; t0; t1 }

let skip_ref cur =
  ignore (Dptrace.Wire.rv cur : int);
  Dptrace.Wire.skip_str cur;
  for _ = 1 to 3 do
    ignore (Dptrace.Wire.rv cur : int)
  done

module Topk = struct
  (* Sorted list, best first, never longer than [cap]. Caps are small
     (default_k), so linear inserts beat any heap at this size — and the
     representation is canonical, which makes merged reservoirs
     association-independent. *)
  type 'a t = { cap : int; compare : 'a -> 'a -> int; items : 'a list }

  let create ~cap ~compare =
    if cap < 1 then invalid_arg "Provenance.Topk.create: cap must be >= 1";
    { cap; compare; items = [] }

  let truncate cap items =
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: rest -> x :: take (n - 1) rest
    in
    take cap items

  let add t x =
    let rec insert = function
      | [] -> [ x ]
      | y :: rest -> if t.compare x y <= 0 then x :: y :: rest else y :: insert rest
    in
    { t with items = truncate t.cap (insert t.items) }

  let add_list t xs = List.fold_left add t xs

  let merge a b =
    { a with items = truncate a.cap (List.merge a.compare a.items b.items) }

  let to_list t = t.items
end

module Wset = struct
  (* Capped cost-descending association list: tiny (<= cap entries), so
     plain lists keep it allocation-light and deterministic. *)
  type entry = { e_ref : instance_ref; e_cost : Dputil.Time.t; e_count : int }
  type t = entry list

  let empty = []

  let order a b =
    match compare b.e_cost a.e_cost with
    | 0 -> compare_ref a.e_ref b.e_ref
    | c -> c

  let sum a b = { a with e_cost = a.e_cost + b.e_cost; e_count = a.e_count + b.e_count }

  (* Equal refs summed through an association list (each side holds at
     most [cap] entries); the entry fed first, [a]'s, keeps its ref. *)
  let union ?(cap = default_k) a b =
    let feed acc e =
      let same x = compare_ref x.e_ref e.e_ref = 0 in
      if List.exists same acc then List.map (fun x -> if same x then sum x e else x) acc
      else e :: acc
    in
    let summed = List.fold_left feed (List.fold_left feed [] a) b in
    List.filteri (fun i _ -> i < cap) (List.sort order summed)

  let entries t = List.map (fun e -> (e.e_ref, e.e_cost, e.e_count)) t

  let write buf t =
    Dptrace.Wire.wv buf (List.length t);
    List.iter
      (fun e -> write_ref buf e.e_ref; Dptrace.Wire.wv buf e.e_cost; Dptrace.Wire.wv buf e.e_count)
      t

  let none =
    { e_ref = { stream_id = 0; scenario = ""; tid = 0; t0 = 0; t1 = 0 }; e_cost = 0; e_count = 0 }

  (* Scenario names as [compare] orders strings, each a span of [s]. *)
  let rec compare_span s o1 l1 o2 l2 =
    if l1 = 0 || l2 = 0 then Int.compare l1 l2
    else
      match Char.compare s.[o1] s.[o2] with
      | 0 -> compare_span s (o1 + 1) (l1 - 1) (o2 + 1) (l2 - 1)
      | c -> c

  (* The one reader of [write]'s form: each entry must be strictly after
     the one before it under [order], compared on the wire fields, so it
     needs no sort, and checks the same with [build] or without. *)
  let read_entries ~build ~cap cur =
    let module W = Dptrace.Wire in
    let n = W.rcount cur in
    if n > cap then W.corrupt "witnesses: %d entries, above the cap of %d" n cap;
    let es = Array.make (if build then n else 0) none in
    let pc = ref 0 and ps = ref 0 and pt0 = ref 0 and ptid = ref 0 in
    let po = ref 0 and pl = ref 0 in
    for i = 0 to n - 1 do
      let stream_id = W.rv cur in
      let l = W.rv cur in
      W.need cur l;
      let o = cur.W.pos in
      cur.W.pos <- o + l;
      let tid = W.rv cur in
      let t0 = W.rv cur in
      let t1 = W.rv cur in
      let cost = W.rv cur in
      let count = W.rv cur in
      let after =
        if cost <> !pc then cost < !pc
        else if stream_id <> !ps then stream_id > !ps
        else if t0 <> !pt0 then t0 > !pt0
        else if tid <> !ptid then tid > !ptid
        else compare_span cur.W.data o l !po !pl > 0
      in
      if i > 0 && not after then W.corrupt "witnesses: entries not strictly increasing";
      pc := cost; ps := stream_id; pt0 := t0; ptid := tid; po := o; pl := l;
      if build then
        es.(i) <- { e_ref = { stream_id; scenario = String.sub cur.W.data o l; tid; t0; t1 };
                    e_cost = cost; e_count = count }
    done;
    es

  let of_entries l =
    let b = Buffer.create 256 in
    write b (List.map (fun (e_ref, e_cost, e_count) -> { e_ref; e_cost; e_count }) l);
    Array.to_list
      (read_entries ~build:true ~cap:default_k (Dptrace.Wire.cursor (Buffer.contents b)))
end

module Wacc = struct
  (* Exact (uncapped) accumulation, capped once at the end, so partials
     merge in any order to the sequential fold. Cells while a node is
     built, then one sealed chunk — canonical entries and their
     stream-id range — and a merge conses chunks. DESIGN.md §9 shows
     why selecting over groups of overlapping ranges is exact. *)
  type cell = { c_ref : instance_ref; mutable c_cost : Dputil.Time.t; mutable c_count : int }
  type chunk = { lo : int; hi : int; es : Wset.entry array }
  type t = { mutable cells : cell list; mutable chunks : chunk list }

  let create () = { cells = []; chunks = [] }

  let add t r ~cost =
    match t.cells with
    | c :: _ when c.c_ref == r ->
      c.c_cost <- c.c_cost + cost;
      c.c_count <- c.c_count + 1
    | cells -> t.cells <- { c_ref = r; c_cost = cost; c_count = 1 } :: cells

  let id (e : Wset.entry) = e.e_ref.stream_id

  (* Entries newest first, in a fresh array: summed per ref (the
     first-arrived kept) and sorted by [Wset.order], with their range. *)
  let chunk_of_newest es =
    Array.stable_sort (fun a b -> compare_ref a.Wset.e_ref b.Wset.e_ref) es;
    let n = ref 0 in
    Array.iter
      (fun e ->
        if !n > 0 && compare_ref es.(!n - 1).Wset.e_ref e.Wset.e_ref = 0 then
          es.(!n - 1) <- Wset.sum e es.(!n - 1)
        else (es.(!n) <- e; incr n))
      es;
    let es = if !n = Array.length es then es else Array.sub es 0 !n in
    let lo = id es.(0) and hi = id es.(!n - 1) in
    Array.sort Wset.order es;
    { lo; hi; es }

  let seal t =
    let entry c = { Wset.e_ref = c.c_ref; e_cost = c.c_cost; e_count = c.c_count } in
    if t.cells <> [] then begin
      t.chunks <- chunk_of_newest (Array.map entry (Array.of_list t.cells)) :: t.chunks;
      t.cells <- []
    end

  let merge_into ~into src = seal src; into.chunks <- src.chunks @ into.chunks

  (* The exact accumulation: one canonical array per group of chunks
     whose stream ranges overlap, the chunks stably sorted by [lo]. A
     larger group is summed with its chunks back in order, newest first. *)
  let groups t =
    seal t;
    let close group acc =
      match group with
      | [] -> acc
      | [ (_, c) ] -> c.es :: acc
      | _ ->
        let newest = List.sort (fun (i, _) (j, _) -> Int.compare j i) group in
        (chunk_of_newest (Array.concat (List.map (fun (_, c) -> c.es) newest))).es
        :: acc
    in
    let rec go hi group acc = function
      | ((_, c) as x) :: rest when c.lo <= hi -> go (max hi c.hi) (x :: group) acc rest
      | ((_, c) as x) :: rest -> go c.hi [ x ] (close group acc) rest
      | [] -> close group acc
    in
    go min_int [] []
      (List.stable_sort
         (fun (_, a) (_, b) -> Int.compare a.lo b.lo)
         (List.mapi (fun i c -> (i, c)) (List.rev t.chunks)))

  let all t = List.sort Wset.order (List.concat_map Array.to_list (groups t))

  let entries t = Wset.entries (all t)

  (* A sorted buffer of the best [cap]; a group stops at its first loser. *)
  let to_wset ?(cap = default_k) t =
    let best = Array.make cap Wset.none and n = ref 0 in
    let rec offer es i =
      if i < min cap (Array.length es) && (!n < cap || Wset.order es.(i) best.(cap - 1) < 0)
      then begin
        let j = ref (min !n (cap - 1)) in
        while !j > 0 && Wset.order es.(i) best.(!j - 1) < 0 do decr j done;
        Array.blit best !j best (!j + 1) (min !n (cap - 1) - !j);
        best.(!j) <- es.(i);
        n := min cap (!n + 1);
        offer es (i + 1)
      end
    in
    List.iter (fun es -> offer es 0) (groups t);
    List.init !n (Array.get best)

  let write buf t = Wset.write buf (all t)

  let read cur =
    match Wset.read_entries ~build:true ~cap:max_int cur with
    | [||] -> None
    | es ->
      let lo = Array.fold_left (fun m e -> min m (id e)) max_int es
      and hi = Array.fold_left (fun m e -> max m (id e)) 0 es in
      Some { cells = []; chunks = [ { lo; hi; es } ] }

  let skip cur = ignore (Wset.read_entries ~build:false ~cap:max_int cur : Wset.entry array)
end

type wait_record = {
  wr_ref : instance_ref;
  wr_event : int;
  wr_signature : Dptrace.Signature.t;
  wr_ts : Dputil.Time.t;
  wr_te : Dputil.Time.t;
  wr_cost : Dputil.Time.t;
  wr_multiplicity : int;
}

let compare_wait_record a b =
  match compare b.wr_cost a.wr_cost with
  | 0 -> (
    match compare a.wr_ref.stream_id b.wr_ref.stream_id with
    | 0 -> compare a.wr_event b.wr_event
    | c -> c)
  | c -> c

let pp_wait_record fmt w =
  Format.fprintf fmt
    "%s  C=%a x%d  [%a, %a]  event #%d of %a"
    (Dptrace.Signature.name w.wr_signature)
    Dputil.Time.pp w.wr_cost w.wr_multiplicity Dputil.Time.pp w.wr_ts
    Dputil.Time.pp w.wr_te w.wr_event pp_ref w.wr_ref

type impact = {
  top_waits : wait_record Topk.t;
  top_runs : wait_record Topk.t;
  by_module : (string * wait_record Topk.t) list;
}

let empty_topk ?(cap = default_k) () =
  Topk.create ~cap ~compare:compare_wait_record

let empty_impact =
  { top_waits = empty_topk (); top_runs = empty_topk (); by_module = [] }

let merge_by_module a b =
  (* Both sides are name-sorted; merge like a sorted-assoc union. *)
  let rec go a b =
    match (a, b) with
    | [], rest | rest, [] -> rest
    | (na, ta) :: resta, (nb, tb) :: restb ->
      let c = compare na nb in
      if c = 0 then (na, Topk.merge ta tb) :: go resta restb
      else if c < 0 then (na, ta) :: go resta b
      else (nb, tb) :: go a restb
  in
  go a b

let merge_impact a b =
  {
    top_waits = Topk.merge a.top_waits b.top_waits;
    top_runs = Topk.merge a.top_runs b.top_runs;
    by_module = merge_by_module a.by_module b.by_module;
  }

module Collector = struct
  (* Full (stream, event) -> record tables while the pass runs — the
     same cardinality as the analysis' own distinct-wait table, and
     sized like it — reduced to top-K reservoirs once at [impact]. *)
  type t = {
    cap : int;
    waits : (int * int, wait_record) Hashtbl.t;
    runs : (int * int, wait_record) Hashtbl.t;
    modules : (int * int, string) Hashtbl.t;  (* wait key -> module name *)
  }

  let create ?(cap = default_k) () =
    {
      cap;
      waits = Hashtbl.create 16;
      runs = Hashtbl.create 16;
      modules = Hashtbl.create 16;
    }

  let record tbl ~stream_id ~instance ~(event : Dptrace.Event.t) ~signature =
    let key = (stream_id, event.Dptrace.Event.id) in
    match Hashtbl.find_opt tbl key with
    | Some r ->
      Hashtbl.replace tbl key { r with wr_multiplicity = r.wr_multiplicity + 1 }
    | None ->
      Hashtbl.replace tbl key
        {
          wr_ref = instance;
          wr_event = event.Dptrace.Event.id;
          wr_signature = signature;
          wr_ts = event.Dptrace.Event.ts;
          wr_te = Dptrace.Event.end_ts event;
          wr_cost = event.Dptrace.Event.cost;
          wr_multiplicity = 1;
        }

  let record_wait t ~module_name ~stream_id ~instance ~event ~signature =
    let key = (stream_id, event.Dptrace.Event.id) in
    if not (Hashtbl.mem t.modules key) then
      Hashtbl.replace t.modules key module_name;
    record t.waits ~stream_id ~instance ~event ~signature

  let record_run t ~stream_id ~instance ~event ~signature =
    record t.runs ~stream_id ~instance ~event ~signature

  let impact t =
    let top_of tbl =
      Hashtbl.fold (fun _ r acc -> Topk.add acc r) tbl
        (empty_topk ~cap:t.cap ())
    in
    let mods : (string, wait_record Topk.t) Hashtbl.t = Hashtbl.create 16 in
    Hashtbl.iter
      (fun key r ->
        match Hashtbl.find_opt t.modules key with
        | None -> ()
        | Some name ->
          let cur =
            match Hashtbl.find_opt mods name with
            | Some k -> k
            | None -> empty_topk ~cap:t.cap ()
          in
          Hashtbl.replace mods name (Topk.add cur r))
      t.waits;
    {
      top_waits = top_of t.waits;
      top_runs = top_of t.runs;
      by_module =
        Hashtbl.fold (fun name k acc -> (name, k) :: acc) mods []
        |> List.sort (fun (a, _) (b, _) -> compare a b);
    }
end
