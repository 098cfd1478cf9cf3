module Event = Dptrace.Event
module Signature = Dptrace.Signature
module Wait_graph = Dpwaitgraph.Wait_graph

type status =
  | Waiting of { wait_sig : Signature.t; unwait_sig : Signature.t }
  | Running of Signature.t
  | Hw of Signature.t

type node = {
  status : status;
  mutable cost : Dputil.Time.t;
  mutable count : int;
  mutable max_cost : Dputil.Time.t;
  mutable witnesses : Provenance.Wset.t;
  mutable wacc : Provenance.Wacc.t option;
      (* Exact witness accumulation while the node is still mutating;
         collapsed into the canonical capped [witnesses] when the forest
         is finalised. Exactness (no mid-build truncation) is what makes
         witness aggregation commutative, so per-stream partial forests
         merged later ([Partial]) reproduce the sequential build bit for
         bit. [None] when provenance is off or after finalisation. *)
  children : (status, node) Hashtbl.t;
  mutable frozen_kids : node array option;
      (* Children in sorted-status order, memoised once the node stops
         mutating. Every path prefix reaching a node used to re-sort the
         same children; freezing makes each traversal step an array
         iteration. [build] freezes the whole forest before returning, so
         concurrent readers (mining fanned out over roots) only ever see
         the published array. *)
}

type reduction_stats = {
  pruned_roots : int;
  pruned_cost : Dputil.Time.t;
  total_root_cost : Dputil.Time.t;
}

type t = {
  forest : (status, node) Hashtbl.t;
  mutable stats : reduction_stats;
}

(* Intermediate per-graph tree after irrelevant-node elimination and
   wait/unwait merging; merged into the AWG trie on signature prefixes. *)
type cnode = { cstatus : status; ccost : Dputil.Time.t; ckids : cnode list }

let convert components (g : Wait_graph.t) =
  let visited : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let rec conv (n : Wait_graph.node) : cnode list =
    let e = n.Wait_graph.event in
    if Hashtbl.mem visited e.Event.id then []
    else begin
      Hashtbl.replace visited e.Event.id ();
      match e.Event.kind with
      | Event.Unwait -> [] (* never a graph child; pairing held in [waker] *)
      | Event.Running ->
        (match Component.event_signature components e with
        | Some s -> [ { cstatus = Running s; ccost = e.Event.cost; ckids = [] } ]
        | None -> [])
      | Event.Hw_service ->
        (match Component.event_signature components e with
        | Some s -> [ { cstatus = Hw s; ccost = e.Event.cost; ckids = [] } ]
        | None -> [])
      | Event.Wait ->
        let kids () = List.concat_map conv n.Wait_graph.children in
        (match Component.event_signature components e with
        | None -> kids () (* irrelevant: promote children *)
        | Some wait_sig ->
          let unwait_sig =
            match n.Wait_graph.waker with
            | Some u -> Component.event_signature_or_top components u
            | None -> Signature.of_string "<lost-unwait>"
          in
          [
            {
              cstatus = Waiting { wait_sig; unwait_sig };
              ccost = e.Event.cost;
              ckids = kids ();
            };
          ])
    end
  in
  List.concat_map conv g.Wait_graph.roots

let fresh_node status =
  {
    status;
    cost = 0;
    count = 0;
    max_cost = 0;
    witnesses = Provenance.Wset.empty;
    wacc = None;
    children = Hashtbl.create 4;
    frozen_kids = None;
  }

let node_wacc n =
  match n.wacc with
  | Some a -> a
  | None ->
    let a = Provenance.Wacc.create () in
    n.wacc <- Some a;
    a

let rec merge_into ?src ?parent table (c : cnode) =
  let n =
    match Hashtbl.find_opt table c.cstatus with
    | Some n -> n
    | None ->
      let n = fresh_node c.cstatus in
      Hashtbl.replace table c.cstatus n;
      (* A new child invalidates the parent's frozen view (only relevant
         if anything froze mid-build; [build] freezes at the end). *)
      (match parent with Some p -> p.frozen_kids <- None | None -> ());
      n
  in
  n.cost <- n.cost + c.ccost;
  n.count <- n.count + 1;
  if c.ccost > n.max_cost then n.max_cost <- c.ccost;
  (match src with
  | Some r -> Provenance.Wacc.add (node_wacc n) r ~cost:c.ccost
  | None -> ());
  List.iter (merge_into ?src ~parent:n n.children) c.ckids

let is_hw_leaf n =
  match n.status with Hw _ -> Hashtbl.length n.children = 0 | _ -> false

(* Hashtbl bindings in sorted-status order. Statuses are the (distinct)
   keys, so the sort is a total order and every fold/merge that walks a
   level through here is independent of hash-table insertion order —
   which is what keeps traversals identical however the source graphs
   were partitioned for parallel construction. *)
let sorted_bindings table =
  Hashtbl.fold (fun status n acc -> (status, n) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Prune root waiting nodes whose only child is a hardware-service leaf:
   raw hardware latency with no propagation is not actionable. *)
let reduce_forest forest =
  let pruned_roots = ref 0 and pruned_cost = ref 0 and total = ref 0 in
  let victims = ref [] in
  List.iter
    (fun (status, n) ->
      total := !total + n.cost;
      match n.status with
      | Waiting _ when Hashtbl.length n.children = 1 ->
        let only = Hashtbl.fold (fun _ c _ -> Some c) n.children None in
        (match only with
        | Some c when is_hw_leaf c ->
          incr pruned_roots;
          pruned_cost := !pruned_cost + n.cost;
          victims := status :: !victims
        | Some _ | None -> ())
      | Waiting _ | Running _ | Hw _ -> ())
    (sorted_bindings forest);
  List.iter (Hashtbl.remove forest) !victims;
  {
    pruned_roots = !pruned_roots;
    pruned_cost = !pruned_cost;
    total_root_cost = !total;
  }

let sorted_nodes table =
  Hashtbl.fold (fun _ n acc -> n :: acc) table []
  |> List.sort (fun a b -> compare a.status b.status)

let sorted_children n =
  match n.frozen_kids with
  | Some kids -> kids
  | None ->
    let kids = Array.of_list (sorted_nodes n.children) in
    n.frozen_kids <- Some kids;
    kids

(* Final steps shared by [build] and [Partial.merge_all]: reduce, collapse
   the exact witness accumulators into their canonical capped sets, and
   freeze the sorted-children arrays. After this the forest is read-only. *)
let finish ~reduce forest =
  let stats =
    if reduce then reduce_forest forest
    else
      let total = Hashtbl.fold (fun _ n acc -> acc + n.cost) forest 0 in
      { pruned_roots = 0; pruned_cost = 0; total_root_cost = total }
  in
  let rec final n =
    (match n.wacc with
    | Some a ->
      n.witnesses <- Provenance.Wacc.to_wset a;
      n.wacc <- None
    | None -> ());
    Array.iter final (sorted_children n)
  in
  List.iter final (sorted_nodes forest);
  { forest; stats }

let build ?pool ?(reduce = true) components graphs =
  (* Per-graph conversion is pure and dominates the build; fan it out.
     The merge stays sequential in the given graph order, so the forest —
     keyed by status, with commutative cost/count/max accumulation — is
     identical whether the conversions ran on one domain or eight. *)
  let converted =
    match pool with
    | Some pool -> Dppar.Pool.parallel_map pool (convert components) graphs
    | None -> List.map (convert components) graphs
  in
  let forest : (status, node) Hashtbl.t = Hashtbl.create 64 in
  (* When provenance is on, the merge also folds each source graph's
     scenario instance into the witness set of every node it touches.
     The witness add is commutative over instances (per-ref sums with a
     deterministic re-sort), so this doesn't disturb the bit-identity of
     the sequential merge. *)
  if Provenance.enabled () then
    List.iter2
      (fun (g : Wait_graph.t) cnodes ->
        let src = Provenance.ref_of g.Wait_graph.stream g.Wait_graph.instance in
        List.iter (merge_into ~src forest) cnodes)
      graphs converted
  else List.iter (List.iter (merge_into forest)) converted;
  (* [finish] reduces, canonicalises witnesses and freezes the
     sorted-children arrays while still single-domain: after this point
     the forest is read-only and the frozen views can be shared by
     parallel mining without publication races. *)
  finish ~reduce forest

let roots t = sorted_nodes t.forest

let reduction t = t.stats

let rec fold_node f acc n =
  let acc = f acc n in
  Array.fold_left (fold_node f) acc (sorted_children n)

let fold t ~init ~f = List.fold_left (fold_node f) init (roots t)

let node_count t = fold t ~init:0 ~f:(fun acc _ -> acc + 1)

let total_cost t = fold t ~init:0 ~f:(fun acc n -> acc + n.cost)

let total_leaf_cost t =
  fold t ~init:0 ~f:(fun acc n ->
      if Hashtbl.length n.children = 0 then acc + n.cost else acc)

let iter_segments t ~k ~f =
  if k < 1 then invalid_arg "Awg.iter_segments: k must be >= 1";
  (* From every node, walk all downward paths of length <= k; report each
     prefix. [prefix] is kept reversed for O(1) extension. The frozen
     children arrays make each extension step an array scan instead of a
     per-visit sort. *)
  let rec extend prefix_rev len n =
    let prefix_rev = n :: prefix_rev in
    f (List.rev prefix_rev);
    if len < k then
      Array.iter (extend prefix_rev (len + 1)) (sorted_children n)
  in
  let rec every_node n =
    extend [] 1 n;
    Array.iter every_node (sorted_children n)
  in
  List.iter every_node (roots t)

let full_paths t =
  let out = ref [] in
  let rec go prefix_rev n =
    let prefix_rev = n :: prefix_rev in
    let kids = sorted_children n in
    if Array.length kids = 0 then out := List.rev prefix_rev :: !out
    else Array.iter (go prefix_rev) kids
  in
  List.iter (go []) (roots t);
  List.rev !out

let non_optimizable_fraction t =
  Dputil.Stats.ratio
    (float_of_int t.stats.pruned_cost)
    (float_of_int t.stats.total_root_cost)

let status_pp fmt = function
  | Waiting { wait_sig; unwait_sig } ->
    Format.fprintf fmt "wait %s -> unwait %s" (Signature.name wait_sig)
      (Signature.name unwait_sig)
  | Running s -> Format.fprintf fmt "run %s" (Signature.name s)
  | Hw s -> Format.fprintf fmt "hw %s" (Signature.name s)

let to_dot t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph awg {\n  rankdir=TB;\n  node [fontsize=10];\n";
  let edges = Buffer.create 1024 in
  let next_id = ref 0 in
  let escape s =
    String.concat ""
      (List.map
         (fun c ->
           match c with '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
         (List.init (String.length s) (String.get s)))
  in
  let rec emit n =
    let id = Printf.sprintf "n%d" !next_id in
    incr next_id;
    let label, shape, color =
      match n.status with
      | Waiting { wait_sig; unwait_sig } ->
        ( Printf.sprintf "wait %s\\nunwait %s"
            (escape (Signature.name wait_sig))
            (escape (Signature.name unwait_sig)),
          "box",
          "lightblue" )
      | Running s -> (Printf.sprintf "run %s" (escape (Signature.name s)), "ellipse", "palegreen")
      | Hw s -> (Printf.sprintf "hw %s" (escape (Signature.name s)), "hexagon", "lightsalmon")
    in
    Buffer.add_string buf
      (Printf.sprintf
         "  %s [label=\"%s\\nC=%s N=%d\", shape=%s, style=filled, fillcolor=%s];\n"
         id label
         (Dputil.Time.to_string n.cost)
         n.count shape color);
    Array.iter
      (fun c ->
        let cid = emit c in
        Buffer.add_string edges (Printf.sprintf "  %s -> %s;\n" id cid))
      (sorted_children n);
    id
  in
  List.iter (fun n -> ignore (emit n)) (roots t);
  Buffer.add_buffer buf edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let render t =
  let buf = Buffer.create 1024 in
  let rec go indent n =
    Buffer.add_string buf
      (Format.asprintf "%s%a  C=%a N=%d max=%a\n" indent status_pp n.status
         Dputil.Time.pp n.cost n.count Dputil.Time.pp n.max_cost);
    Array.iter (go (indent ^ "  ")) (sorted_children n)
  in
  List.iter (go "") (roots t);
  Buffer.contents buf

module Partial = struct
  module Wire = Dptrace.Wire

  (* An unreduced, unfrozen forest: the contribution of one stream's
     graphs to a scenario class's AWG. Reduction cannot run per stream —
     whether a root is prunable depends on the children the *merged*
     forest gives it — so partials stay raw and [merge_all] reduces once
     at the end, which provably matches reducing a monolithic build (the
     pruning rule only inspects the final forest). *)
  type partial = (status, node) Hashtbl.t

  let build components graphs =
    let forest : partial = Hashtbl.create 16 in
    if Provenance.enabled () then
      List.iter
        (fun (g : Wait_graph.t) ->
          let src =
            Provenance.ref_of g.Wait_graph.stream g.Wait_graph.instance
          in
          List.iter (merge_into ~src forest) (convert components g))
        graphs
    else
      List.iter
        (fun g -> List.iter (merge_into forest) (convert components g))
        graphs;
    forest

  let is_empty (p : partial) = Hashtbl.length p = 0

  (* Merging never adopts a source node: partials must stay intact (the
     snapshot cache serialises them after merging), so targets are always
     fresh and sources only read. All accumulation is commutative —
     integer sums, max, exact witness-accumulator union — which is why
     per-stream partials merged here in corpus order equal the
     single-pass [build] over the same graphs. *)
  let rec absorb ~into:(n : node) (src : node) =
    n.cost <- n.cost + src.cost;
    n.count <- n.count + src.count;
    if src.max_cost > n.max_cost then n.max_cost <- src.max_cost;
    (match src.wacc with
    | Some a -> Provenance.Wacc.merge_into ~into:(node_wacc n) a
    | None -> ());
    Hashtbl.iter
      (fun status c ->
        let tgt =
          match Hashtbl.find_opt n.children status with
          | Some t -> t
          | None ->
            let t = fresh_node status in
            Hashtbl.replace n.children status t;
            t
        in
        absorb ~into:tgt c)
      src.children

  let merge_all ?(reduce = true) partials =
    let forest : (status, node) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun p ->
        Hashtbl.iter
          (fun status root ->
            let tgt =
              match Hashtbl.find_opt forest status with
              | Some t -> t
              | None ->
                let t = fresh_node status in
                Hashtbl.replace forest status t;
                t
            in
            absorb ~into:tgt root)
          p)
      partials;
    finish ~reduce forest

  (* --- wire form (inside snapshot-cache frames) ---

     Statuses carry signature *names* (interning is process-local), all
     numbers are LEB128 varints, children are written in sorted-status
     order so the byte form of a partial is a pure function of its
     content. Witness entries are the exact accumulator's, so a reloaded
     partial merges bit-identically to a fresh one. *)

  let write_status buf = function
    | Waiting { wait_sig; unwait_sig } ->
      Wire.w8 buf 0;
      Wire.wstr buf (Signature.name wait_sig);
      Wire.wstr buf (Signature.name unwait_sig)
    | Running s ->
      Wire.w8 buf 1;
      Wire.wstr buf (Signature.name s)
    | Hw s ->
      Wire.w8 buf 2;
      Wire.wstr buf (Signature.name s)

  let read_status cur =
    match Wire.r8 cur with
    | 0 ->
      let wait_sig = Signature.of_string (Wire.rstr cur) in
      let unwait_sig = Signature.of_string (Wire.rstr cur) in
      Waiting { wait_sig; unwait_sig }
    | 1 -> Running (Signature.of_string (Wire.rstr cur))
    | 2 -> Hw (Signature.of_string (Wire.rstr cur))
    | k -> Wire.corrupt "Awg.Partial: unknown status tag %d" k

  let write_ref buf (r : Provenance.instance_ref) =
    Wire.wv buf r.Provenance.stream_id;
    Wire.wstr buf r.Provenance.scenario;
    Wire.wv buf r.Provenance.tid;
    Wire.wv buf r.Provenance.t0;
    Wire.wv buf r.Provenance.t1

  let read_ref cur : Provenance.instance_ref =
    let stream_id = Wire.rv cur in
    let scenario = Wire.rstr cur in
    let tid = Wire.rv cur in
    let t0 = Wire.rv cur in
    let t1 = Wire.rv cur in
    { Provenance.stream_id; scenario; tid; t0; t1 }

  let rec write_node buf n =
    write_status buf n.status;
    Wire.wv buf n.cost;
    Wire.wv buf n.count;
    Wire.wv buf n.max_cost;
    let wentries =
      match n.wacc with Some a -> Provenance.Wacc.entries a | None -> []
    in
    Wire.wv buf (List.length wentries);
    List.iter
      (fun (r, cost, count) ->
        write_ref buf r;
        Wire.wv buf cost;
        Wire.wv buf count)
      wentries;
    let kids = sorted_bindings n.children in
    Wire.wv buf (List.length kids);
    List.iter (fun (_, c) -> write_node buf c) kids

  let rec read_node cur =
    let status = read_status cur in
    let n = fresh_node status in
    n.cost <- Wire.rv cur;
    n.count <- Wire.rv cur;
    n.max_cost <- Wire.rv cur;
    let nw = Wire.rv cur in
    if nw > 0 then begin
      let acc = node_wacc n in
      for _ = 1 to nw do
        let r = read_ref cur in
        let cost = Wire.rv cur in
        let count = Wire.rv cur in
        Provenance.Wacc.add_entry acc (r, cost, count)
      done
    end;
    let nkids = Wire.rv cur in
    for _ = 1 to nkids do
      let c = read_node cur in
      if Hashtbl.mem n.children c.status then
        Wire.corrupt "Awg.Partial: duplicate child status";
      Hashtbl.replace n.children c.status c
    done;
    n

  let write buf (p : partial) =
    let roots = sorted_bindings p in
    Wire.wv buf (List.length roots);
    List.iter (fun (_, n) -> write_node buf n) roots

  let read cur : partial =
    let forest : partial = Hashtbl.create 16 in
    let nroots = Wire.rv cur in
    for _ = 1 to nroots do
      let n = read_node cur in
      if Hashtbl.mem forest n.status then
        Wire.corrupt "Awg.Partial: duplicate root status";
      Hashtbl.replace forest n.status n
    done;
    forest
end
