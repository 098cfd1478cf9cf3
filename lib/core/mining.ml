module Signature = Dptrace.Signature

(* Pattern tables key on the dense hash-consing id — and since the ids
   are dense by construction, the table is a plain array indexed by id:
   a probe is one bounds check and one load, with no hashing at all.
   Iteration order is by id (first-sight order), so every consumer
   sorts its output by tuple content before returning it. *)
module Tuple_table = struct
  type 'a t = { mutable vals : 'a option array; mutable count : int }

  let create n : 'a t = { vals = Array.make (max 16 n) None; count = 0 }

  let ensure (t : 'a t) id =
    let cap = Array.length t.vals in
    if id >= cap then begin
      let fresh = Array.make (max (2 * cap) (id + 1)) None in
      Array.blit t.vals 0 fresh 0 cap;
      t.vals <- fresh
    end

  let find_opt (t : 'a t) tuple =
    let id = Tuple.id tuple in
    if id < Array.length t.vals then Array.unsafe_get t.vals id else None

  let replace (t : 'a t) tuple v =
    let id = Tuple.id tuple in
    ensure t id;
    (match t.vals.(id) with None -> t.count <- t.count + 1 | Some _ -> ());
    t.vals.(id) <- Some v

  (* For keys known fresh: skips the occupancy check. *)
  let add_new (t : 'a t) tuple v =
    let id = Tuple.id tuple in
    ensure t id;
    t.vals.(id) <- Some v;
    t.count <- t.count + 1

  let fold f (t : 'a t) init =
    let acc = ref init in
    Array.iter (function Some v -> acc := f v !acc | None -> ()) t.vals;
    !acc

  let length (t : 'a t) = t.count
end

type meta = {
  tuple : Tuple.t;
  cost : Dputil.Time.t;
  count : int;
  m_witnesses : Provenance.Wset.t;
}

type contrast_reason = Slow_only | Cost_ratio of float

type contrast_meta = {
  cm_meta : meta;
  reason : contrast_reason;
  cm_fast_witnesses : Provenance.Wset.t;
}

type pattern = {
  tuple : Tuple.t;
  cost : Dputil.Time.t;
  count : int;
  max_single : Dputil.Time.t;
  witnesses : Provenance.Wset.t;
  fast_witnesses : Provenance.Wset.t;
}

type result = {
  contrast_metas : contrast_meta list;
  patterns : pattern list;
  fast_meta_count : int;
  slow_meta_count : int;
}

let default_k = 5

(* Throughput counters (no-ops unless Dpobs metrics are on). *)
let c_segments = Dpobs.Metrics.counter "mining.segments_enumerated"
let c_tuples = Dpobs.Metrics.counter "mining.tuples_recorded"
let c_index_candidates = Dpobs.Metrics.counter "mining.index_candidates"
let c_index_hits = Dpobs.Metrics.counter "mining.index_hits"

let avg_of (m : meta) =
  Dputil.Stats.ratio (float_of_int m.cost) (float_of_int m.count)

let avg_cost p = Dputil.Stats.ratio (float_of_int p.cost) (float_of_int p.count)

(* {2 Incremental segment enumeration}

   The naive enumerator rebuilds a tuple from scratch for every segment:
   collect the signatures of all nodes on the segment, sort_uniq each
   role, then hash three arrays to probe the meta table — O(len · log)
   work per segment even though consecutive segments differ by one node.
   The engine instead walks segments with per-role {e sorted multiset}
   scratches: extending a segment pushes one node's signatures (binary
   search + blit), retracting pops them, and the tuple-in-progress is
   always available in sorted distinct form for O(distinct) freezing. *)

module Scratch = struct
  (* Sorted multiset of signature ids. Multiplicities matter: a segment
     can traverse the same signature twice, and the set view (the ids
     array prefix) must survive popping one of the two occurrences.
     [hsum] is a commutative content hash of the distinct-id set,
     maintained in O(1) per push/pop so probing the segment memo never
     re-walks the scratch. *)
  type t = {
    mutable ids : int array;
    mutable mult : int array;
    mutable len : int;
    mutable hsum : int;
  }

  (* Multiplicative scramble; summed per distinct id, so insertion order
     cannot matter. Collisions are resolved by full content matching. *)
  let elem_mix id = id * 0x2545F4914F6CDD1D

  let create () = { ids = Array.make 8 0; mult = Array.make 8 0; len = 0; hsum = 0 }

  (* Position of [id], or its insertion point. Linear: a role holds at
     most [k] distinct ids, where branch-predictable scans beat binary
     search. *)
  let locate t id =
    let ids = t.ids and n = t.len in
    let i = ref 0 in
    while !i < n && Array.unsafe_get ids !i < id do
      incr i
    done;
    !i

  let grow t =
    let cap = Array.length t.ids in
    let ids = Array.make (2 * cap) 0 and mult = Array.make (2 * cap) 0 in
    Array.blit t.ids 0 ids 0 t.len;
    Array.blit t.mult 0 mult 0 t.len;
    t.ids <- ids;
    t.mult <- mult

  (* Shifts are hand-rolled: they move at most [k - 1] elements, below
     where [Array.blit]'s call overhead pays for itself. *)
  let push t id =
    let i = locate t id in
    if i < t.len && t.ids.(i) = id then t.mult.(i) <- t.mult.(i) + 1
    else begin
      if t.len = Array.length t.ids then grow t;
      let ids = t.ids and mult = t.mult in
      for j = t.len downto i + 1 do
        Array.unsafe_set ids j (Array.unsafe_get ids (j - 1));
        Array.unsafe_set mult j (Array.unsafe_get mult (j - 1))
      done;
      Array.unsafe_set ids i id;
      Array.unsafe_set mult i 1;
      t.len <- t.len + 1;
      t.hsum <- t.hsum + elem_mix id
    end

  (* [id] must be present (every pop matches a push). *)
  let pop t id =
    let i = locate t id in
    if t.mult.(i) > 1 then t.mult.(i) <- t.mult.(i) - 1
    else begin
      let ids = t.ids and mult = t.mult in
      for j = i to t.len - 2 do
        Array.unsafe_set ids j (Array.unsafe_get ids (j + 1));
        Array.unsafe_set mult j (Array.unsafe_get mult (j + 1))
      done;
      t.len <- t.len - 1;
      t.hsum <- t.hsum - elem_mix id
    end

  (* Manual fill: [Array.init] calls its closure per element and this
     runs three times per frozen tuple. *)
  let to_sigs t =
    let n = t.len in
    let a = Array.make n (Signature.of_int_unsafe 0) in
    for i = 0 to n - 1 do
      Array.unsafe_set a i (Signature.of_int_unsafe (Array.unsafe_get t.ids i))
    done;
    a
end

type scratch3 = { sw : Scratch.t; su : Scratch.t; sr : Scratch.t }

let scratch3 () =
  { sw = Scratch.create (); su = Scratch.create (); sr = Scratch.create () }

let push_node sc (n : Awg.node) =
  match n.Awg.status with
  | Awg.Waiting { wait_sig; unwait_sig } ->
    Scratch.push sc.sw (Signature.to_int wait_sig);
    Scratch.push sc.su (Signature.to_int unwait_sig)
  | Awg.Running s | Awg.Hw s -> Scratch.push sc.sr (Signature.to_int s)

let pop_node sc (n : Awg.node) =
  match n.Awg.status with
  | Awg.Waiting { wait_sig; unwait_sig } ->
    Scratch.pop sc.sw (Signature.to_int wait_sig);
    Scratch.pop sc.su (Signature.to_int unwait_sig)
  | Awg.Running s | Awg.Hw s -> Scratch.pop sc.sr (Signature.to_int s)

(* O(1): the per-role hash sums are maintained by push/pop. Distinct
   role multipliers keep a signature's role from being interchangeable.
   This keys the local memo only (candidates are content-verified), so
   it need not match [Tuple.hash]. *)
let scratch_hash sc =
  (sc.sw.Scratch.hsum + (3 * sc.sw.Scratch.len)
  + (7 * (sc.su.Scratch.hsum + (3 * sc.su.Scratch.len)))
  + (13 * (sc.sr.Scratch.hsum + (3 * sc.sr.Scratch.len))))
  land max_int

(* Open-addressed map from scratch hash to a bucket of entries — the probe at
   the bottom of every enumerated segment, so it avoids [Hashtbl]'s
   generic hashing and boxed key comparisons entirely. Keys are the
   scratch hashes (>= 0 after the [max_int] mask); -1 marks an empty
   slot. Linear probing from a multiplicatively remixed index (the low
   bits of a multiset sum cluster), doubling at 3/4 load. *)
module Cellmap = struct
  type 'a t = {
    mutable keys : int array;
    mutable vals : 'a list array;
    mutable mask : int;  (* capacity - 1; capacity is a power of two *)
    mutable used : int;
  }

  let create cap0 =
    let cap = max 16 cap0 in
    let cap =
      let c = ref 16 in
      while !c < cap do
        c := !c * 2
      done;
      !c
    in
    { keys = Array.make cap (-1); vals = Array.make cap []; mask = cap - 1; used = 0 }

  (* Slot holding [h], or the empty slot where it belongs. *)
  let slot t h =
    let i = ref ((h * 0x9E3779B97F4A7C1) lsr 16 land t.mask) in
    while
      let k = Array.unsafe_get t.keys !i in
      k <> h && k <> -1
    do
      i := (!i + 1) land t.mask
    done;
    !i

  let grow t =
    let okeys = t.keys and ovals = t.vals in
    let cap = 2 * (t.mask + 1) in
    t.keys <- Array.make cap (-1);
    t.vals <- Array.make cap [];
    t.mask <- cap - 1;
    Array.iteri
      (fun i k ->
        if k >= 0 then begin
          let j = slot t k in
          t.keys.(j) <- k;
          t.vals.(j) <- ovals.(i)
        end)
      okeys

  (* Store [v] at slot [i] (from a preceding [slot t h] with no
     intervening writes), claiming the slot if it was empty. *)
  let set_at t i h v =
    t.vals.(i) <- v;
    if t.keys.(i) = -1 then begin
      t.keys.(i) <- h;
      t.used <- t.used + 1;
      if 4 * t.used > 3 * (t.mask + 1) then grow t
    end

  let iter f t =
    Array.iteri (fun i k -> if k >= 0 then f t.vals.(i)) t.keys
end

let freeze_scratch sc =
  Tuple.of_sorted_arrays ~waits:(Scratch.to_sigs sc.sw)
    ~unwaits:(Scratch.to_sigs sc.su) ~runnings:(Scratch.to_sigs sc.sr)

let blob_of_scratch sc =
  let wl = sc.sw.Scratch.len
  and ul = sc.su.Scratch.len
  and rl = sc.sr.Scratch.len in
  let b = Array.make (3 + wl + ul + rl) 0 in
  b.(0) <- wl;
  b.(1) <- ul;
  b.(2) <- rl;
  Array.blit sc.sw.Scratch.ids 0 b 3 wl;
  Array.blit sc.su.Scratch.ids 0 b (3 + wl) ul;
  Array.blit sc.sr.Scratch.ids 0 b (3 + wl + ul) rl;
  b

let rec blob_eq_region ids b off i len =
  i >= len
  || Array.unsafe_get ids i = Array.unsafe_get b (off + i)
     && blob_eq_region ids b off (i + 1) len

let scratch_matches_blob sc b =
  let wl = Array.unsafe_get b 0
  and ul = Array.unsafe_get b 1
  and rl = Array.unsafe_get b 2 in
  wl = sc.sw.Scratch.len
  && ul = sc.su.Scratch.len
  && rl = sc.sr.Scratch.len
  && blob_eq_region sc.sw.Scratch.ids b 3 0 wl
  && blob_eq_region sc.su.Scratch.ids b (3 + wl) 0 ul
  && blob_eq_region sc.sr.Scratch.ids b (3 + wl + ul) 0 rl

(* A memoised freeze: repeated tuples (the common case — that is why the
   meta table merges at all) resolve against a local lock-free cache and
   only first sights pay the interner's mutex + array materialisation.
   Entries carry their match blob so repeat probes stay sequential. *)
type freezer = { sc : scratch3; memo : (Tuple.t * int array) Cellmap.t }

let freezer () = { sc = scratch3 (); memo = Cellmap.create 256 }

let freeze fr =
  let sc = fr.sc in
  let h = scratch_hash sc in
  let i = Cellmap.slot fr.memo h in
  let known = fr.memo.Cellmap.vals.(i) in
  let rec find = function
    | [] ->
      let t = freeze_scratch sc in
      Cellmap.set_at fr.memo i h ((t, blob_of_scratch sc) :: known);
      t
    | (t, b) :: rest -> if scratch_matches_blob sc b then t else find rest
  in
  find known

(* {2 Meta-pattern enumeration}

   Per-tuple accumulator. Witness sets are collected in (reversed)
   arrival order and folded only at finalisation, by
   {!Provenance.Wset.union_all}: a union truncates to the top-k entries
   and is therefore not associative, so to stay bit-identical with the
   naive sequential miner the engine must apply the unions in exactly
   its left-to-right segment order. *)
type macc = {
  mt : Tuple.t;
  mb : int array;
      (** Match blob: [[|wlen; ulen; rlen; w ids…; u ids…; r ids…|]].
          Verifying a probe against this flat copy is one sequential
          scan; chasing [mt]'s three role arrays costs a cache miss
          each, and the verify runs once per enumerated segment. *)
  mutable a_cost : Dputil.Time.t;
  mutable a_count : int;
  mutable a_wrev : Provenance.Wset.t list;
}

let wset_of_rev wrev = Provenance.Wset.union_all (List.rev wrev)

(* Segment enumeration state: the scratch plus one table fusing the
   tuple memo with the per-tuple accumulators, keyed by the O(1) scratch
   hash. Each segment costs one table probe; the tuple is only frozen
   (arrays materialised, globally interned) on first sight. *)
type estate = {
  esc : scratch3;
  cells : macc Cellmap.t;
  mutable nsegs : int;
}

let estate () = { esc = scratch3 (); cells = Cellmap.create 2048; nsegs = 0 }

(* Walk the bucket updating the matching accumulator in place; [true]
   iff no entry matched (allocation-free on the hit path). *)
let rec update_or_missing sc ms ~prov (last : Awg.node) =
  match ms with
  | [] -> true
  | m :: rest ->
    if scratch_matches_blob sc m.mb then begin
      m.a_cost <- m.a_cost + last.Awg.cost;
      m.a_count <- m.a_count + last.Awg.count;
      if prov then m.a_wrev <- last.Awg.witnesses :: m.a_wrev;
      false
    end
    else update_or_missing sc rest ~prov last

let record st ~prov (last : Awg.node) =
  st.nsegs <- st.nsegs + 1;
  let h = scratch_hash st.esc in
  let i = Cellmap.slot st.cells h in
  let known = st.cells.Cellmap.vals.(i) in
  if update_or_missing st.esc known ~prov last then
    Cellmap.set_at st.cells i h
      ({
         mt = freeze_scratch st.esc;
         mb = blob_of_scratch st.esc;
         a_cost = last.Awg.cost;
         a_count = last.Awg.count;
         a_wrev = (if prov then [ last.Awg.witnesses ] else []);
       }
      :: known)

(* Enumerate every segment of length 1..k starting inside the subtrees
   of [roots], in order. The outer explicit stack visits start nodes in
   preorder and the inner walk extends each start downward — the exact
   segment order of [Awg.iter_segments]. *)
let enumerate_subtrees st ~k ~prov roots =
  let rec extend depth n =
    push_node st.esc n;
    record st ~prov n;
    if depth < k then begin
      let kids = Awg.sorted_children n in
      for i = 0 to Array.length kids - 1 do
        extend (depth + 1) (Array.unsafe_get kids i)
      done
    end;
    pop_node st.esc n
  in
  let stack = ref roots in
  let running = ref true in
  while !running do
    match !stack with
    | [] -> running := false
    | n :: rest ->
      stack := rest;
      extend 1 n;
      let kids = Awg.sorted_children n in
      for i = Array.length kids - 1 downto 0 do
        stack := kids.(i) :: !stack
      done
  done

let meta_of_macc (m : macc) =
  {
    tuple = m.mt;
    cost = m.a_cost;
    count = m.a_count;
    m_witnesses = wset_of_rev m.a_wrev;
  }

(* One state across all roots: accumulators fill in global segment
   order directly. With [prov] off, every meta's [m_witnesses] is
   empty. *)
let table_of awg ~k ~prov =
  if k < 1 then invalid_arg "Mining.meta_table: k must be >= 1";
  let st = estate () in
  enumerate_subtrees st ~k ~prov (Awg.roots awg);
  Dpobs.Metrics.add c_segments st.nsegs;
  let table : meta Tuple_table.t = Tuple_table.create (Tuple.interned_count ()) in
  Cellmap.iter
    (fun ms ->
      List.iter (fun m -> Tuple_table.add_new table m.mt (meta_of_macc m)) ms)
    st.cells;
  Dpobs.Metrics.add c_tuples (Tuple_table.length table);
  table

let meta_table awg ~k = table_of awg ~k ~prov:(Provenance.enabled ())

let discover_contrasts ~fast_table ~slow_table ~ratio_threshold =
  Tuple_table.fold
    (fun (slow_meta : meta) acc ->
      match Tuple_table.find_opt fast_table slow_meta.tuple with
      | None ->
        {
          cm_meta = slow_meta;
          reason = Slow_only;
          cm_fast_witnesses = Provenance.Wset.empty;
        }
        :: acc
      | Some fast_meta ->
        let ratio = Dputil.Stats.ratio (avg_of slow_meta) (avg_of fast_meta) in
        if ratio > ratio_threshold then
          {
            cm_meta = slow_meta;
            reason = Cost_ratio ratio;
            cm_fast_witnesses = fast_meta.m_witnesses;
          }
          :: acc
        else acc)
    slow_table []
  |> List.sort (fun a b -> Tuple.compare a.cm_meta.tuple b.cm_meta.tuple)

(* {2 Pattern selection via an inverted index}

   The naive selector tests every contrast meta against every full path:
   O(paths · metas) subset checks. The engine instead indexes each meta
   under exactly one of its signatures — the one rarest across the path
   tuples, so buckets stay small — and generates per-path candidates from
   the buckets of the signatures the path actually contains. Candidate
   lists are sorted back into contrast-meta list order before the subset
   verification, so the surviving [matching] list (and with it the
   order-sensitive witness unions) is identical to the naive filter's. *)

let role_key role s = (Signature.to_int s * 4) + role

let tuple_keys (t : Tuple.t) f =
  Array.iter (fun s -> f (role_key 0 s)) t.Tuple.waits;
  Array.iter (fun s -> f (role_key 1 s)) t.Tuple.unwaits;
  Array.iter (fun s -> f (role_key 2 s)) t.Tuple.runnings

(* One full slow path, leaf-materialised during the DFS. *)
type path_info = { p_tuple : Tuple.t; p_leaf : Awg.node; p_root : Awg.node }

let full_path_infos slow =
  let fr = freezer () in
  let out = ref [] in
  let rec go root n =
    push_node fr.sc n;
    let kids = Awg.sorted_children n in
    if Array.length kids = 0 then
      out := { p_tuple = freeze fr; p_leaf = n; p_root = root } :: !out
    else Array.iter (go root) kids;
    pop_node fr.sc n
  in
  List.iter (fun r -> go r r) (Awg.roots slow);
  List.rev !out

let select_patterns ~slow ~contrast_metas =
  match contrast_metas with
  | [] -> []
  | _ ->
    let prov = Provenance.enabled () in
    let paths = full_path_infos slow in
    (* Signature ids are dense interner indices, so [role_key] values fit
       a direct array of 4 * interned_count slots — document frequencies
       and index rows are plain loads, no hashing anywhere on the per-path
       hot loop. *)
    let nkeys = 4 * Signature.interned_count () in
    let df = Array.make nkeys 0 in
    List.iter
      (fun p ->
        tuple_keys p.p_tuple (fun key ->
            Array.unsafe_set df key (1 + Array.unsafe_get df key)))
      paths;
    let metas = Array.of_list contrast_metas in
    let nwords = (Array.length metas + 62) / 63 in
    (* Index every meta under its rarest key (ties: smallest key), as a
       bitset over meta indices: per-path candidate generation is then a
       few word ORs. Each meta's full key list is also materialised once
       ([meta_keys]): tuples are sorted {e distinct} sets per role, so
       [Tuple.subset] is exactly key containment, and candidate
       verification reduces to stamp lookups against the path's keys.
       Metas with an empty tuple match every path and bypass the index.
       [no_row] is the shared absent-row sentinel (physical equality). *)
    let no_row = [||] in
    let index = Array.make nkeys no_row in
    let always = Array.make nwords 0 in
    let add_bit bits i =
      bits.(i / 63) <- bits.(i / 63) lor (1 lsl (i mod 63))
    in
    let meta_keys =
      Array.map
        (fun cm ->
          let ks = ref [] in
          tuple_keys cm.cm_meta.tuple (fun key -> ks := key :: !ks);
          Array.of_list !ks)
        metas
    in
    Array.iteri
      (fun i cm ->
        if Tuple.is_empty cm.cm_meta.tuple then add_bit always i
        else begin
          let best = ref (-1) and best_df = ref max_int in
          Array.iter
            (fun key ->
              let d = df.(key) in
              if d < !best_df || (d = !best_df && key < !best) then begin
                best := key;
                best_df := d
              end)
            meta_keys.(i);
          let bits =
            if index.(!best) == no_row then begin
              let b = Array.make nwords 0 in
              index.(!best) <- b;
              b
            end
            else index.(!best)
          in
          add_bit bits i
        end)
      metas;
    (* Lowest set bit's index: six de-interleaving steps, no table. *)
    let ntz b =
      let n = ref 0 and b = ref b in
      if !b land 0xFFFFFFFF = 0 then begin n := 32; b := !b lsr 32 end;
      if !b land 0xFFFF = 0 then begin n := !n + 16; b := !b lsr 16 end;
      if !b land 0xFF = 0 then begin n := !n + 8; b := !b lsr 8 end;
      if !b land 0xF = 0 then begin n := !n + 4; b := !b lsr 4 end;
      if !b land 0x3 = 0 then begin n := !n + 2; b := !b lsr 2 end;
      if !b land 0x1 = 0 then incr n;
      !n
    in
    let candidates_sc = ref 0 and hits_sc = ref 0 in
    let cand = Array.make nwords 0 in
    (* Path-key stamps: [seen.(key) = stamp] iff the current path's tuple
       contains [key]; bumping [stamp] clears the array in O(1). *)
    let seen = Array.make nkeys 0 in
    let stamp = ref 0 in
    let table : pattern Tuple_table.t = Tuple_table.create (Tuple.interned_count ()) in
    List.iter
      (fun { p_tuple = tuple; p_leaf = leaf; p_root = root } ->
        incr stamp;
        let now = !stamp in
        Array.blit always 0 cand 0 nwords;
        tuple_keys tuple (fun key ->
            Array.unsafe_set seen key now;
            let bits = Array.unsafe_get index key in
            if bits != no_row then
              for w = 0 to nwords - 1 do
                cand.(w) <- cand.(w) lor Array.unsafe_get bits w
              done);
        let matching = ref [] in
        for w = 0 to nwords - 1 do
          let bits = ref (Array.unsafe_get cand w) in
          while !bits <> 0 do
            let low = !bits land - !bits in
            bits := !bits lxor low;
            incr candidates_sc;
            let i = (w * 63) + ntz low in
            let ks = Array.unsafe_get meta_keys i in
            let nk = Array.length ks in
            let rec contained j =
              j >= nk
              || Array.unsafe_get seen (Array.unsafe_get ks j) = now
                 && contained (j + 1)
            in
            if contained 0 then
              matching := Array.unsafe_get metas i :: !matching
          done
        done;
        (* Candidates were visited in ascending meta order, so the consed
           list reverses back into it. *)
        let matching = List.rev !matching in
        if matching <> [] then begin
          hits_sc := !hits_sc + 1;
          let cost = leaf.Awg.cost
          and count = leaf.Awg.count
          (* The largest single observed execution of the behaviour this
             pattern describes, measured at the top of its propagation
             path: this is what the automated high-impact rule compares
             against T_slow (a leaf's device stall never exceeds a
             scenario threshold; the stacked wait it propagates into
             does). *)
          and max_single = root.Awg.max_cost in
          let witnesses =
            if prov then leaf.Awg.witnesses else Provenance.Wset.empty
          in
          let fast_witnesses =
            if prov then
              Provenance.Wset.union_all
                (Provenance.Wset.empty :: List.map (fun cm -> cm.cm_fast_witnesses) matching)
            else Provenance.Wset.empty
          in
          match Tuple_table.find_opt table tuple with
          | Some p ->
            Tuple_table.replace table tuple
              {
                p with
                cost = p.cost + cost;
                count = p.count + count;
                max_single = max p.max_single max_single;
                witnesses =
                  (if prov then Provenance.Wset.union p.witnesses witnesses
                   else p.witnesses);
                fast_witnesses =
                  (if prov then
                     Provenance.Wset.union p.fast_witnesses fast_witnesses
                   else p.fast_witnesses);
              }
          | None ->
            Tuple_table.replace table tuple
              { tuple; cost; count; max_single; witnesses; fast_witnesses }
        end)
      paths;
    Dpobs.Metrics.add c_index_candidates !candidates_sc;
    Dpobs.Metrics.add c_index_hits !hits_sc;
    Tuple_table.fold (fun p acc -> p :: acc) table []
    |> List.sort (fun a b ->
           match compare (avg_cost b) (avg_cost a) with
           | 0 -> Tuple.compare a.tuple b.tuple
           | c -> c)

let mine ?(k = default_k) ~fast ~slow ~(spec : Dptrace.Scenario.spec) () =
  (* Tuple enumeration dominates mining cost; give each class its own
     span so the trace shows where k bites. Only fast metas' witnesses
     are read (as [cm_fast_witnesses]), so slow metas collect none. *)
  let fast_table =
    Dpobs.Span.with_span ~args:[ ("class", "fast") ] "mining.enumerate_tuples"
      (fun () -> meta_table fast ~k)
  in
  let slow_table =
    Dpobs.Span.with_span ~args:[ ("class", "slow") ] "mining.enumerate_tuples"
      (fun () -> table_of slow ~k ~prov:false)
  in
  let ratio_threshold =
    Dputil.Stats.ratio (float_of_int spec.tslow) (float_of_int spec.tfast)
  in
  let contrast_metas =
    Dpobs.Span.with_span "mining.contrast_discovery" (fun () ->
        discover_contrasts ~fast_table ~slow_table ~ratio_threshold)
  in
  let patterns =
    Dpobs.Span.with_span "mining.pattern_selection" (fun () ->
        select_patterns ~slow ~contrast_metas)
  in
  {
    contrast_metas;
    patterns;
    fast_meta_count = Tuple_table.length fast_table;
    slow_meta_count = Tuple_table.length slow_table;
  }

let pp_pattern fmt p =
  Format.fprintf fmt "@[<v>%a@,C=%a N=%d avg=%.1fms max=%a@]" Tuple.pp p.tuple
    Dputil.Time.pp p.cost p.count
    (avg_cost p /. 1000.0)
    Dputil.Time.pp p.max_single
