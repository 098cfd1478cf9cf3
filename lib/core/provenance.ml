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

(* --- an entry's tables ---

   A snapshot entry names each string once, in one table of its distinct
   strings (signature, module and scenario names) in first-use order,
   and each scenario instance once, in a table of its stream's
   instances in stream order. A ref is then an instance index and a
   name a name index. *)

module Tables = struct
  module W = Dptrace.Wire

  type writer = {
    ids : (string, int) Hashtbl.t;
    mutable names : string list;  (* newest first *)
    insts : (instance_ref, int) Hashtbl.t;  (* each ref's first instance *)
    instances : Dptrace.Scenario.instance list;
  }

  let index w s =
    match Hashtbl.find_opt w.ids s with
    | Some i -> i
    | None ->
      let i = Hashtbl.length w.ids in
      Hashtbl.add w.ids s i;
      w.names <- s :: w.names;
      i

  (* The instances' scenario names are the first used: the instance
     table comes right after the strings. *)
  let writer (st : Dptrace.Stream.t) =
    let w =
      { ids = Hashtbl.create 32; names = []; insts = Hashtbl.create 8;
        instances = st.Dptrace.Stream.instances }
    in
    List.iteri
      (fun i (inst : Dptrace.Scenario.instance) ->
        let r = ref_of st inst in
        if not (Hashtbl.mem w.insts r) then Hashtbl.add w.insts r i;
        ignore (index w inst.Dptrace.Scenario.scenario : int))
      w.instances;
    w

  let wname w buf s = W.wv buf (index w s)

  let wref w buf r =
    match Hashtbl.find_opt w.insts r with
    | Some i -> W.wv buf i
    | None -> invalid_arg (Format.asprintf "Provenance.Tables.wref: %a is not the stream's" pp_ref r)

  let write w buf =
    W.wv buf (Hashtbl.length w.ids);
    List.iter (W.wstr buf) (List.rev w.names);
    W.wv buf (List.length w.instances);
    List.iter
      (fun (i : Dptrace.Scenario.instance) ->
        wname w buf i.Dptrace.Scenario.scenario;
        W.wv buf i.Dptrace.Scenario.tid;
        W.wv buf i.Dptrace.Scenario.t0;
        W.wv buf i.Dptrace.Scenario.t1)
      w.instances

  type reader = {
    data : string;
    build : bool;
    spans : int array;  (* per name: its offset and length in [data] *)
    count : int;  (* names in the table *)
    mutable fresh : int;  (* the index a name's first use must take; [count] when unchecked *)
    sigs : int array;  (* with [build]: each name's signature once resolved, else -1 *)
    id : int;  (* the stream id refs are made under *)
    mutable insts : int array;  (* per instance: name index, tid, t0, t1 *)
    mutable refs : instance_ref array;  (* each instance's ref, made at the first use of one *)
  }

  let building r = r.build

  let rname r cur =
    let i = W.rv cur in
    if i >= r.count then W.corrupt "entry tables: name %d past the table of %d" i r.count;
    if i > r.fresh then W.corrupt "entry tables: name %d first used before name %d" i r.fresh;
    if i = r.fresh then r.fresh <- i + 1;
    i

  let rinst r cur =
    let i = W.rv cur in
    let n = Array.length r.insts / 4 in
    if i >= n then W.corrupt "entry tables: instance %d past the table of %d" i n;
    i

  let name r i = String.sub r.data r.spans.(2 * i) r.spans.((2 * i) + 1)

  let signature r i =
    match r.sigs.(i) with
    | -1 ->
      let s = Dptrace.Signature.of_span r.data ~pos:r.spans.(2 * i) ~len:r.spans.((2 * i) + 1) in
      r.sigs.(i) <- Dptrace.Signature.to_int s;
      s
    | s -> Dptrace.Signature.of_int_unsafe s

  let ref_at r i =
    if Array.length r.refs = 0 then
      r.refs <-
        Array.init (Array.length r.insts / 4) (fun j ->
            let x = r.insts and k = 4 * j in
            { stream_id = r.id; scenario = name r x.(k); tid = x.(k + 1); t0 = x.(k + 2);
              t1 = x.(k + 3) });
    r.refs.(i)

  let rec compare_bytes d oa ob n =
    if n = 0 then 0
    else
      match Char.compare (String.unsafe_get d oa) (String.unsafe_get d ob) with
      | 0 -> compare_bytes d (oa + 1) (ob + 1) (n - 1)
      | c -> c

  (* Names by length, then by bytes. *)
  let compare_names r a b =
    let la = r.spans.((2 * a) + 1) and lb = r.spans.((2 * b) + 1) in
    if la <> lb then Int.compare la lb else compare_bytes r.data r.spans.(2 * a) r.spans.(2 * b) la

  (* Instances as [compare_ref] orders refs of one stream: by t0, tid,
     then scenario name as [compare] orders strings. *)
  let compare_insts r a b =
    let x = r.insts and a = 4 * a and b = 4 * b in
    match Int.compare x.(a + 2) x.(b + 2) with
    | 0 -> (
      match Int.compare x.(a + 1) x.(b + 1) with
      | 0 ->
        let sa = x.(a) and sb = x.(b) in
        let la = r.spans.((2 * sa) + 1) and lb = r.spans.((2 * sb) + 1) in
        (match compare_bytes r.data r.spans.(2 * sa) r.spans.(2 * sb) (min la lb) with
        | 0 -> Int.compare la lb
        | c -> c)
      | c -> c)
    | c -> c

  let read ~build ~ordered ~id cur =
    let count = W.rcount cur in
    let spans = Array.make (2 * count) 0 in
    for i = 0 to count - 1 do
      let len = W.rv cur in
      W.need cur len;
      spans.(2 * i) <- cur.W.pos;
      spans.((2 * i) + 1) <- len;
      cur.W.pos <- cur.W.pos + len
    done;
    let r =
      { data = cur.W.data; build; spans; count; fresh = (if ordered then 0 else count);
        sigs = (if build then Array.make count (-1) else [||]); id; insts = [||]; refs = [||] }
    in
    let n = W.rcount cur in
    let insts = Array.make (4 * n) 0 in
    for i = 0 to n - 1 do
      let s = rname r cur in
      let tid = W.rv cur in
      let t0 = W.rv cur in
      let t1 = W.rv cur in
      if t1 < t0 then W.corrupt "instance %s has t1 < t0" (name r s);
      insts.(4 * i) <- s;
      insts.((4 * i) + 1) <- tid;
      insts.((4 * i) + 2) <- t0;
      insts.((4 * i) + 3) <- t1
    done;
    r.insts <- insts;
    r

  let instances r =
    List.init (Array.length r.insts / 4) (fun i ->
        { Dptrace.Scenario.scenario = name r r.insts.(4 * i); tid = r.insts.((4 * i) + 1);
          t0 = r.insts.((4 * i) + 2); t1 = r.insts.((4 * i) + 3) })

  let finish r =
    if r.fresh < r.count then W.corrupt "entry tables: name %d never used" r.fresh
end

module Topk = struct
  (* Sorted list, best first, never longer than [cap]. Caps are small
     (default_k), so lists beat any heap at this size — and the
     representation is canonical, which makes merged reservoirs
     association-independent. *)
  type 'a t = { cap : int; compare : 'a -> 'a -> int; items : 'a list }

  let create ~cap ~compare =
    if cap < 1 then invalid_arg "Provenance.Topk.create: cap must be >= 1";
    { cap; compare; items = [] }

  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []

  let rec strictly_sorted compare = function
    | a :: (b :: _ as rest) -> compare a b < 0 && strictly_sorted compare rest
    | [ _ ] | [] -> true

  (* Adding each in turn puts an element before its equals: the stable
     sort of the reversed list. A strictly sorted list, what every caller
     gives, is taken as it is. *)
  let of_list t xs =
    let sorted =
      if strictly_sorted t.compare xs then xs else List.stable_sort t.compare (List.rev xs)
    in
    { t with items = take t.cap sorted }

  (* [List.merge] stopped at the cap (both sides share it). A side that
     would keep every place is shared: [a] for an empty [b], or when it
     is full and its last is no worse than [b]'s first; [b] for an empty
     [a]. *)
  let merge a b =
    let rec go n xs ys =
      if n = 0 then []
      else
        match (xs, ys) with
        | [], l | l, [] -> take n l
        | x :: xs', y :: ys' ->
          if a.compare x y <= 0 then x :: go (n - 1) xs' ys else y :: go (n - 1) xs ys'
    in
    match (a.items, b.items) with
    | _, [] -> a
    | xs, y :: _
      when List.compare_length_with xs a.cap = 0 && a.compare (List.nth xs (a.cap - 1)) y <= 0 ->
      a
    | [], _ -> b
    | xs, ys -> { a with items = go a.cap xs ys }

  let to_list t = t.items
end

let same_ref a b =
  a == b
  || a.stream_id = b.stream_id && a.t0 = b.t0 && a.tid = b.tid
     && String.equal a.scenario b.scenario

let none_ref = { stream_id = 0; scenario = ""; tid = 0; t0 = 0; t1 = 0 }

module Wset = struct
  (* Capped cost-descending array, at most [cap] entries with distinct
     refs: tiny, so insertion sorts and linear scans keep it
     allocation-light and deterministic. *)
  type entry = { e_ref : instance_ref; e_cost : Dputil.Time.t; e_count : int }
  type t = entry array

  let empty = [||]
  let is_empty t = Array.length t = 0

  let order a b =
    match Int.compare b.e_cost a.e_cost with
    | 0 -> compare_ref a.e_ref b.e_ref
    | c -> c

  let sum a b = { a with e_cost = a.e_cost + b.e_cost; e_count = a.e_count + b.e_count }

  let none = { e_ref = none_ref; e_cost = 0; e_count = 0 }

  (* A stable sort of [es] under [cmp]: insertion, with no allocation,
     for the few entries a node or a union holds; [Array.stable_sort]
     above that. *)
  let stable_sort cmp es =
    if Array.length es > 16 then Array.stable_sort cmp es
    else
      for i = 1 to Array.length es - 1 do
        let x = es.(i) in
        let j = ref i in
        while !j > 0 && cmp es.(!j - 1) x > 0 do
          es.(!j) <- es.(!j - 1);
          decr j
        done;
        es.(!j) <- x
      done

  (* The buffer a union folds into, one per domain: refs with summed
     costs and counts. *)
  type acc = {
    mutable refs : instance_ref array;
    mutable costs : int array;
    mutable counts : int array;
    mutable n : int;
  }

  let acc_key =
    Domain.DLS.new_key (fun () -> { refs = [||]; costs = [||]; counts = [||]; n = 0 })

  (* Each entry summed into an equal ref already fed (which keeps its
     ref) or appended. *)
  let feed acc (w : t) =
    for k = 0 to Array.length w - 1 do
      let e = w.(k) in
      let i = ref 0 in
      while !i < acc.n && not (same_ref acc.refs.(!i) e.e_ref) do incr i done;
      if !i < acc.n then begin
        acc.costs.(!i) <- acc.costs.(!i) + e.e_cost;
        acc.counts.(!i) <- acc.counts.(!i) + e.e_count
      end
      else begin
        if acc.n = Array.length acc.refs then begin
          let grow a fill =
            let b = Array.make (max 16 (2 * acc.n)) fill in
            Array.blit a 0 b 0 acc.n;
            b
          in
          acc.refs <- grow acc.refs none_ref;
          acc.costs <- grow acc.costs 0;
          acc.counts <- grow acc.counts 0
        end;
        acc.refs.(acc.n) <- e.e_ref;
        acc.costs.(acc.n) <- e.e_cost;
        acc.counts.(acc.n) <- e.e_count;
        acc.n <- acc.n + 1
      end
    done

  (* Sorted by [order] (the refs are distinct), then cut to [cap]. *)
  let cut acc cap =
    for i = 1 to acc.n - 1 do
      let r = acc.refs.(i) and c = acc.costs.(i) and k = acc.counts.(i) in
      let j = ref i in
      while
        !j > 0
        && (let c' = acc.costs.(!j - 1) in
            c' < c || (c' = c && compare_ref acc.refs.(!j - 1) r > 0))
      do
        acc.refs.(!j) <- acc.refs.(!j - 1);
        acc.costs.(!j) <- acc.costs.(!j - 1);
        acc.counts.(!j) <- acc.counts.(!j - 1);
        decr j
      done;
      acc.refs.(!j) <- r;
      acc.costs.(!j) <- c;
      acc.counts.(!j) <- k
    done;
    acc.n <- min acc.n cap

  let matches acc (w : t) =
    let same = ref (Array.length w = acc.n) and i = ref 0 in
    while !same && !i < acc.n do
      let e = w.(!i) in
      same :=
        e.e_ref == acc.refs.(!i) && e.e_cost = acc.costs.(!i) && e.e_count = acc.counts.(!i);
      incr i
    done;
    !same

  let entries_of acc =
    Array.init acc.n (fun i ->
        { e_ref = acc.refs.(i); e_cost = acc.costs.(i); e_count = acc.counts.(i) })

  (* [List.fold_left union first rest] in one buffer: the first set fed,
     then each next one fed, with equal refs summed (the first fed keeps
     its ref), and the buffer sorted and cut to [cap]. Entries are made
     only for a result that is not the first or the last set. *)
  let union_all ?(cap = default_k) = function
    | [] -> empty
    | [ w ] -> w
    | first :: rest ->
      let acc = Domain.DLS.get acc_key in
      acc.n <- 0;
      feed acc first;
      let last = List.fold_left (fun _ w -> feed acc w; cut acc cap; w) first rest in
      if matches acc last then last else if matches acc first then first else entries_of acc

  let union ?cap a b = union_all ?cap [ a; b ]

  let entries t = Array.fold_right (fun e l -> (e.e_ref, e.e_cost, e.e_count) :: l) t []

  let write tabs buf (t : t) =
    Dptrace.Wire.wv buf (Array.length t);
    Array.iter
      (fun e ->
        Tables.wref tabs buf e.e_ref;
        Dptrace.Wire.wv buf e.e_cost;
        Dptrace.Wire.wv buf e.e_count)
      t

  (* The one reader of [write]'s form: each entry must be strictly after
     the one before it under [order], compared on the instances its
     indices name, so it needs no sort, and checks the same whether the
     tables build or not. *)
  let read (tabs : Tables.reader) cur =
    let module W = Dptrace.Wire in
    let n = W.rcount cur in
    let es = Array.make (if tabs.Tables.build then n else 0) none in
    let pc = ref 0 and pi = ref 0 in
    for i = 0 to n - 1 do
      let inst = Tables.rinst tabs cur in
      let cost = W.rv cur in
      let count = W.rv cur in
      if i > 0 && not (cost < !pc || (cost = !pc && Tables.compare_insts tabs !pi inst < 0)) then
        W.corrupt "witnesses: entries not strictly increasing";
      pc := cost;
      pi := inst;
      if tabs.Tables.build then
        es.(i) <- { e_ref = Tables.ref_at tabs inst; e_cost = cost; e_count = count }
    done;
    es
end

module Wacc = struct
  (* Exact (uncapped) accumulation while a node is built, in cells: an
     int array whose slot 0 counts the cells in use, then one triple per
     cell, (source, cost, count). A source indexes a table of refs given
     when the cells are sealed, and adds are run-length on it (a node's
     adds come a graph at a time). Sealing turns the cells into one
     chunk of canonical entries. Each chunk is one stream's and a run
     absorbs each stream id once, so no ref is in two chunks: every
     entry is final, and a merge target keeps only the best [default_k]
     entries of the chunks merged into it, in one sorted buffer merged
     into in place (DESIGN.md §9). *)

  let add_cell cells src ~cost =
    let n = if Array.length cells = 0 then 0 else cells.(0) in
    let o = (3 * n) - 2 in
    if n > 0 && cells.(o) = src then begin
      cells.(o + 1) <- cells.(o + 1) + cost;
      cells.(o + 2) <- cells.(o + 2) + 1;
      cells
    end
    else begin
      let cells =
        if (3 * n) + 4 <= Array.length cells then cells
        else begin
          let grown = Array.make ((6 * n) + 4) 0 in
          Array.blit cells 0 grown 0 (Array.length cells);
          grown
        end
      in
      let o = (3 * n) + 1 in
      cells.(0) <- n + 1;
      cells.(o) <- src;
      cells.(o + 1) <- cost;
      cells.(o + 2) <- 1;
      cells
    end

  let by_ref a b = compare_ref a.Wset.e_ref b.Wset.e_ref

  (* The cells' entries, summed per ref (the first-arrived kept) and
     sorted by [Wset.order]. *)
  let chunk refs cells : Wset.t =
    if Array.length cells = 0 then Wset.empty
    else begin
      let es = Array.make cells.(0) Wset.none in
      for i = 0 to cells.(0) - 1 do
        let o = (3 * i) + 1 in
        es.(i) <- { Wset.e_ref = refs.(cells.(o)); e_cost = cells.(o + 1); e_count = cells.(o + 2) }
      done;
      Wset.stable_sort by_ref es;
      let n = ref 1 in
      for i = 1 to Array.length es - 1 do
        let e = es.(i) in
        if same_ref es.(!n - 1).Wset.e_ref e.Wset.e_ref then es.(!n - 1) <- Wset.sum es.(!n - 1) e
        else begin
          es.(!n) <- e;
          incr n
        end
      done;
      let es = if !n = Array.length es then es else Array.sub es 0 !n in
      Wset.stable_sort Wset.order es;
      es
    end

  type t = {
    mutable best : Wset.entry array;  (* [||] until something is merged in *)
    mutable kept : int;  (* [best]'s entries in use *)
  }

  let create () = { best = [||]; kept = 0 }

  (* Offer the entries of [es], sorted, to the sorted buffer [buf]
     holding [n] of at most [Array.length buf]; the new count. An array
     stops offering at its first loser. *)
  let offer buf n es =
    let cap = Array.length buf in
    let n = ref n and i = ref 0 in
    while !i < min cap (Array.length es) && (!n < cap || Wset.order es.(!i) buf.(cap - 1) < 0) do
      let e = es.(!i) in
      let j = ref (min !n (cap - 1)) in
      while !j > 0 && Wset.order e buf.(!j - 1) < 0 do
        buf.(!j) <- buf.(!j - 1);
        decr j
      done;
      buf.(!j) <- e;
      n := min cap (!n + 1);
      incr i
    done;
    !n

  let merge_chunk ~into (es : Wset.t) =
    if Array.length es > 0 then begin
      if into.best = [||] then into.best <- Array.make default_k Wset.none;
      into.kept <- offer into.best into.kept es
    end

  let to_wset ?(cap = default_k) t = Array.sub t.best 0 (min cap t.kept)
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
