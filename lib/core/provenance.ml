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

  let rec truncate n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: truncate (n - 1) rest

  let renorm cap entries = truncate cap (List.sort order entries)

  let add ?(cap = default_k) t r ~cost =
    let found = ref false in
    let merged =
      List.map
        (fun e ->
          if (not !found) && compare_ref e.e_ref r = 0 then begin
            found := true;
            { e with e_cost = e.e_cost + cost; e_count = e.e_count + 1 }
          end
          else e)
        t
    in
    let merged =
      if !found then merged
      else { e_ref = r; e_cost = cost; e_count = 1 } :: merged
    in
    renorm cap merged

  let union ?(cap = default_k) a b =
    let tbl = Hashtbl.create 16 in
    let feed e =
      let key = (e.e_ref.stream_id, e.e_ref.t0, e.e_ref.tid, e.e_ref.scenario) in
      match Hashtbl.find_opt tbl key with
      | Some prev ->
        Hashtbl.replace tbl key
          { prev with e_cost = prev.e_cost + e.e_cost; e_count = prev.e_count + e.e_count }
      | None -> Hashtbl.replace tbl key e
    in
    List.iter feed a;
    List.iter feed b;
    renorm cap (Hashtbl.fold (fun _ e acc -> e :: acc) tbl [])

  let entries t = List.map (fun e -> (e.e_ref, e.e_cost, e.e_count)) t

  (* Exact inverse of [entries]: trusts the caller's order and cap, so a
     serialised set round-trips to the identical representation. *)
  let of_entries l =
    List.map (fun (e_ref, e_cost, e_count) -> { e_ref; e_cost; e_count }) l
  let total_cost t = List.fold_left (fun acc e -> acc + e.e_cost) 0 t
  let is_empty t = t = []
end

module Wacc = struct
  (* Exact (uncapped) witness accumulation. A capped [Wset.add] sequence
     is path-dependent: once a ref is evicted, re-adding it restarts its
     sums, so per-stream partials unioned later could disagree with the
     sequential fold. Accumulating exactly and truncating once at the end
     makes the whole computation commutative and associative — the
     property the snapshot cache's merge correctness rests on. Node
     counts bound the table size by the node's distinct supporting
     instances, and extraction renormalises to a canonical capped
     [Wset.t]. *)
  type t = (int * Dputil.Time.t * int * string, Wset.entry) Hashtbl.t

  let create () : t = Hashtbl.create 8

  let key (r : instance_ref) = (r.stream_id, r.t0, r.tid, r.scenario)

  let add_entry (t : t) (r, cost, count) =
    let k = key r in
    match Hashtbl.find_opt t k with
    | Some e ->
      Hashtbl.replace t k
        {
          e with
          Wset.e_cost = e.Wset.e_cost + cost;
          Wset.e_count = e.Wset.e_count + count;
        }
    | None -> Hashtbl.replace t k { Wset.e_ref = r; e_cost = cost; e_count = count }

  let add t r ~cost = add_entry t (r, cost, 1)

  let merge_into ~into (src : t) =
    Hashtbl.iter
      (fun _ (e : Wset.entry) ->
        add_entry into (e.Wset.e_ref, e.Wset.e_cost, e.Wset.e_count))
      src

  let entries (t : t) =
    Hashtbl.fold (fun _ e acc -> e :: acc) t []
    |> List.sort Wset.order
    |> List.map (fun (e : Wset.entry) -> (e.Wset.e_ref, e.Wset.e_cost, e.Wset.e_count))

  let to_wset ?(cap = default_k) (t : t) =
    Wset.renorm cap (Hashtbl.fold (fun _ e acc -> e :: acc) t [])

  let is_empty (t : t) = Hashtbl.length t = 0
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
