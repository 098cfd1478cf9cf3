(* The naive contrast miner, kept as the test oracle for Dpcore.Mining.

   These are the pre-optimisation algorithms: one tuple built per
   enumerated segment over a traversal that re-sorts each node's
   children at every visit, tables keyed and compared by tuple content
   (never by the interner's ids), and an exhaustive metas × paths subset
   scan for pattern selection. None of the engine's scratches, frozen
   child arrays, id-indexed tables or inverted index is shared, and
   witness sets are unioned by the hash-table oracle
   ([Provenance_reference]), so the engine ≡ reference properties in
   test_mining compare two independent implementations. [mine
   ~witnesses] takes each node's witness set from the caller instead of
   the node. Only fast metas' witness sets are read (as
   [cm_fast_witnesses]), so slow metas carry [Wset.empty]. The child sort key (polymorphic compare on [status])
   matches [Awg.sorted_children]'s, keeping enumeration order — and with
   it every order-sensitive witness union — the same in both miners. *)

module Awg = Dpcore.Awg
module Tuple = Dpcore.Tuple
module Mining = Dpcore.Mining
module Wset = struct
  include Dpcore.Provenance.Wset

  let union = Provenance_reference.union
end

let sorted_nodes (children : (Awg.status, Awg.node) Hashtbl.t) =
  Hashtbl.fold (fun _ n acc -> n :: acc) children []
  |> List.sort (fun (a : Awg.node) b -> compare a.Awg.status b.Awg.status)

(* Every segment of length 1..k, each materialised as a node list, in
   preorder of its start node. *)
let iter_segments awg ~k ~f =
  let rec extend prefix_rev len n =
    let prefix_rev = n :: prefix_rev in
    f (List.rev prefix_rev);
    if len < k then
      List.iter (extend prefix_rev (len + 1)) (sorted_nodes n.Awg.children)
  in
  let rec every_node n =
    extend [] 1 n;
    List.iter every_node (sorted_nodes n.Awg.children)
  in
  List.iter every_node (Awg.roots awg)

let full_paths awg =
  let out = ref [] in
  let rec go prefix_rev n =
    let prefix_rev = n :: prefix_rev in
    let kids = sorted_nodes n.Awg.children in
    if kids = [] then out := List.rev prefix_rev :: !out
    else List.iter (go prefix_rev) kids
  in
  List.iter (go []) (Awg.roots awg);
  List.rev !out

let last_node segment = List.nth segment (List.length segment - 1)

module Content_key = struct
  type t = Tuple.t

  let ints (a : Dptrace.Signature.t array) =
    Array.map Dptrace.Signature.to_int a

  let equal (a : Tuple.t) (b : Tuple.t) =
    ints a.Tuple.waits = ints b.Tuple.waits
    && ints a.Tuple.unwaits = ints b.Tuple.unwaits
    && ints a.Tuple.runnings = ints b.Tuple.runnings

  let hash (t : Tuple.t) =
    Hashtbl.hash
      (ints t.Tuple.waits, ints t.Tuple.unwaits, ints t.Tuple.runnings)
end

module T = Hashtbl.Make (Content_key)

let meta_table ~wit ~prov awg ~k =
  let prov = prov && Dpcore.Provenance.enabled () in
  let table : Mining.meta T.t = T.create 256 in
  iter_segments awg ~k ~f:(fun segment ->
      let tuple = Tuple.of_segment segment in
      let last = last_node segment in
      let cost = last.Awg.cost and count = last.Awg.count in
      match T.find_opt table tuple with
      | Some m ->
        T.replace table tuple
          {
            m with
            cost = m.cost + cost;
            count = m.count + count;
            m_witnesses =
              (if prov then Wset.union m.m_witnesses (wit last)
               else m.m_witnesses);
          }
      | None ->
        T.replace table tuple
          {
            Mining.tuple;
            cost;
            count;
            m_witnesses = (if prov then wit last else Wset.empty);
          });
  table

let avg_of (m : Mining.meta) =
  Dputil.Stats.ratio (float_of_int m.cost) (float_of_int m.count)

let discover_contrasts ~fast_table ~slow_table ~ratio_threshold =
  T.fold
    (fun tuple (slow_meta : Mining.meta) acc ->
      match T.find_opt fast_table tuple with
      | None ->
        {
          Mining.cm_meta = slow_meta;
          reason = Mining.Slow_only;
          cm_fast_witnesses = Wset.empty;
        }
        :: acc
      | Some fast_meta ->
        let ratio = Dputil.Stats.ratio (avg_of slow_meta) (avg_of fast_meta) in
        if ratio > ratio_threshold then
          {
            Mining.cm_meta = slow_meta;
            reason = Mining.Cost_ratio ratio;
            cm_fast_witnesses = fast_meta.m_witnesses;
          }
          :: acc
        else acc)
    slow_table []
  |> List.sort (fun (a : Mining.contrast_meta) b ->
         Tuple.compare a.cm_meta.tuple b.cm_meta.tuple)

let select_patterns ~wit ~slow ~(contrast_metas : Mining.contrast_meta list) =
  let prov = Dpcore.Provenance.enabled () in
  let table : Mining.pattern T.t = T.create 128 in
  List.iter
    (fun path ->
      let tuple = Tuple.of_segment path in
      let matching =
        List.filter
          (fun (cm : Mining.contrast_meta) ->
            Tuple.subset cm.cm_meta.tuple tuple)
          contrast_metas
      in
      if matching <> [] then begin
        let leaf = last_node path in
        let root = List.hd path in
        let cost = leaf.Awg.cost
        and count = leaf.Awg.count
        and max_single = root.Awg.max_cost in
        let witnesses = if prov then wit leaf else Wset.empty in
        let fast_witnesses =
          if prov then
            List.fold_left
              (fun acc (cm : Mining.contrast_meta) ->
                Wset.union acc cm.cm_fast_witnesses)
              Wset.empty matching
          else Wset.empty
        in
        match T.find_opt table tuple with
        | Some p ->
          T.replace table tuple
            {
              p with
              cost = p.cost + cost;
              count = p.count + count;
              max_single = max p.max_single max_single;
              witnesses =
                (if prov then Wset.union p.witnesses witnesses
                 else p.witnesses);
              fast_witnesses =
                (if prov then Wset.union p.fast_witnesses fast_witnesses
                 else p.fast_witnesses);
            }
        | None ->
          T.replace table tuple
            { Mining.tuple; cost; count; max_single; witnesses; fast_witnesses }
      end)
    (full_paths slow);
  T.fold (fun _ p acc -> p :: acc) table []
  |> List.sort (fun (a : Mining.pattern) b ->
         match compare (Mining.avg_cost b) (Mining.avg_cost a) with
         | 0 -> Tuple.compare a.tuple b.tuple
         | c -> c)

let mine ?(k = Mining.default_k) ?(witnesses = fun (n : Awg.node) -> n.Awg.witnesses)
    ~fast ~slow ~(spec : Dptrace.Scenario.spec) () =
  let wit = witnesses in
  let fast_table = meta_table ~wit ~prov:true fast ~k in
  let slow_table = meta_table ~wit ~prov:false slow ~k in
  let ratio_threshold =
    Dputil.Stats.ratio (float_of_int spec.tslow) (float_of_int spec.tfast)
  in
  let contrast_metas =
    discover_contrasts ~fast_table ~slow_table ~ratio_threshold
  in
  {
    Mining.contrast_metas;
    patterns = select_patterns ~wit ~slow ~contrast_metas;
    fast_meta_count = T.length fast_table;
    slow_meta_count = T.length slow_table;
  }
