module Event = Dptrace.Event
module Signature = Dptrace.Signature
module Wait_graph = Dpwaitgraph.Wait_graph

type status =
  | Waiting of { wait_sig : Signature.t; unwait_sig : Signature.t }
  | Running of Signature.t
  | Hw of Signature.t

(* A node's witnesses while it mutates: cells while a partial is built
   ([Provenance.Wacc.add_cell], sources indexing the partial's graphs,
   sealed into [witnesses] when it is done), a merger's best so far
   (collapsed into [witnesses] when the merge is finished). Its merges
   commute, so per-stream partial forests merged in any order reproduce
   one build over all their graphs. *)
type witness_acc =
  | Settled  (* provenance off, or sealed, or finished *)
  | Cells of { mutable cells : int array }
  | Merging of Provenance.Wacc.t

type node = {
  status : status;
  mutable cost : Dputil.Time.t;
  mutable count : int;
  mutable max_cost : Dputil.Time.t;
  mutable witnesses : Provenance.Wset.t;
      (* A partial's node holds its sealed, uncapped chunk here; a
         finished node its canonical capped set. *)
  mutable wacc : witness_acc;
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

let fresh_node status =
  {
    status;
    cost = 0;
    count = 0;
    max_cost = 0;
    witnesses = Provenance.Wset.empty;
    wacc = Settled;
    children = Hashtbl.create 4;
    frozen_kids = None;
  }

let merging n =
  match n.wacc with
  | Merging a -> a
  | Settled | Cells _ ->
    let a = Provenance.Wacc.create () in
    n.wacc <- Merging a;
    a

let is_hw_leaf n =
  match n.status with Hw _ -> Hashtbl.length n.children = 0 | _ -> false

(* Prune root waiting nodes whose only child is a hardware-service leaf:
   raw hardware latency with no propagation is not actionable. The sums
   commute, so the roots are visited in table order. *)
let reduce_forest forest =
  let pruned_roots = ref 0 and pruned_cost = ref 0 and total = ref 0 in
  let victims = ref [] in
  Hashtbl.iter
    (fun status n ->
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
    forest;
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

(* [Partial.merged]'s final steps: reduce, collapse the merged witness
   accumulators into their canonical capped sets, and freeze the
   sorted-children arrays. After this the forest is read-only. *)
let finish ~reduce forest =
  let stats =
    if reduce then reduce_forest forest
    else
      let total = Hashtbl.fold (fun _ n acc -> acc + n.cost) forest 0 in
      { pruned_roots = 0; pruned_cost = 0; total_root_cost = total }
  in
  let rec final n =
    (match n.wacc with
    | Merging a ->
      n.witnesses <- Provenance.Wacc.to_wset a;
      n.wacc <- Settled
    | Settled | Cells _ -> ());
    Array.iter final (sorted_children n)
  in
  List.iter final (sorted_nodes forest);
  { forest; stats }

(* Merge one source event into [table], a level of the forest: the node
   of its status, created on first sight (which invalidates the parent's
   frozen view, relevant only if anything froze mid-build; [build] freezes
   at the end), absorbs its cost, and, when provenance is on, a cell of
   the source graph's index [src] (-1 when off). *)
let absorb_event ~src ?parent table status cost =
  let n =
    match Hashtbl.find_opt table status with
    | Some n -> n
    | None ->
      let n = fresh_node status in
      Hashtbl.replace table status n;
      (match parent with Some p -> p.frozen_kids <- None | None -> ());
      n
  in
  n.cost <- n.cost + cost;
  n.count <- n.count + 1;
  if cost > n.max_cost then n.max_cost <- cost;
  if src >= 0 then begin
    match n.wacc with
    | Cells c -> c.cells <- Provenance.Wacc.add_cell c.cells src ~cost
    | Settled | Merging _ -> n.wacc <- Cells { cells = Provenance.Wacc.add_cell [||] src ~cost }
  end;
  n

(* Walk each graph and merge it into [forest] as it goes: the loop behind
   [build] and [Partial.build]. The walk is a preorder over the graph's
   distinct events (each met once, by the graph's marks). An irrelevant
   event is eliminated: a wait's children are promoted to its place, and
   other kinds vanish. A relevant event merges into the level of its
   nearest relevant ancestor, a wait merging with its pairing unwait;
   unwaits are never graph children. Accumulation into the forest is
   commutative (cost, count, max, exact witness add), so only the
   forest's insertion order follows the walk. With provenance on, each
   node's cells are then sealed into its chunk under the graphs'
   instance refs, made once here. *)
let add_graphs components forest graphs =
  let prov = Provenance.enabled () in
  List.iteri
    (fun gi (g : Wait_graph.t) ->
      let src = if prov then gi else -1 in
      Wait_graph.with_marks g @@ fun marks ->
      let rec walk parent table (n : Wait_graph.node) =
        let e = n.Wait_graph.event in
        if Wait_graph.first_visit marks e then
          match e.Event.kind with
          | Event.Unwait -> ()
          | Event.Running | Event.Hw_service -> (
            match Component.event_signature components e with
            | Some s ->
              let status = if e.Event.kind = Event.Running then Running s else Hw s in
              ignore (absorb_event ~src ?parent table status e.Event.cost : node)
            | None -> ())
          | Event.Wait -> (
            match Component.event_signature components e with
            | None -> List.iter (walk parent table) n.Wait_graph.children
            | Some wait_sig ->
              let unwait_sig =
                match n.Wait_graph.waker with
                | Some u -> Component.event_signature_or_top components u
                | None -> Signature.of_string "<lost-unwait>"
              in
              let m =
                absorb_event ~src ?parent table (Waiting { wait_sig; unwait_sig })
                  e.Event.cost
              in
              List.iter (walk (Some m) m.children) n.Wait_graph.children)
      in
      List.iter (walk None forest) g.Wait_graph.roots)
    graphs;
  if prov then begin
    let refs =
      Array.of_list
        (List.map
           (fun (g : Wait_graph.t) -> Provenance.ref_of g.Wait_graph.stream g.Wait_graph.instance)
           graphs)
    in
    let rec seal _ n =
      (match n.wacc with
      | Cells c ->
        n.witnesses <- Provenance.Wacc.chunk refs c.cells;
        n.wacc <- Settled
      | Settled | Merging _ -> ());
      Hashtbl.iter seal n.children
    in
    Hashtbl.iter seal forest
  end;
  forest

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
     forest gives it — so partials stay raw and [merged] reduces once
     at the end, which provably matches reducing a monolithic build (the
     pruning rule only inspects the final forest). *)
  type partial = (status, node) Hashtbl.t

  (* Witnesses are sealed here, on the worker that built them. *)
  let build components graphs : partial = add_graphs components (Hashtbl.create 16) graphs

  (* Merging never adopts a source node: partials must stay intact (the
     snapshot cache serialises them after merging), so targets are always
     fresh and sources only read. All accumulation is commutative —
     integer sums, max, witness chunks of distinct streams — which is why
     per-stream partials merged here in corpus order equal the
     single-pass [build] over the same graphs.

     A merger is the running forest: partials are absorbed one at a
     time, so a caller decoding them off disk holds only the one in
     hand. Each level of the source is absorbed into the same level of
     the target, roots and children alike, and a node's witness chunks
     are cut to their best as it goes. *)
  type merger = (status, node) Hashtbl.t

  let merger () : merger = Hashtbl.create 64

  let rec absorb into (src : partial) =
    Hashtbl.iter
      (fun status (c : node) ->
        let n =
          match Hashtbl.find_opt into status with
          | Some t -> t
          | None ->
            let t = fresh_node status in
            Hashtbl.replace into status t;
            t
        in
        n.cost <- n.cost + c.cost;
        n.count <- n.count + c.count;
        if c.max_cost > n.max_cost then n.max_cost <- c.max_cost;
        if not (Provenance.Wset.is_empty c.witnesses) then
          Provenance.Wacc.merge_chunk ~into:(merging n) c.witnesses;
        absorb n.children c.children)
      src

  let merged ?(reduce = true) m = finish ~reduce m

  (* --- wire form (inside snapshot-cache entries) ---

     Statuses carry signature names as indices into the entry's name
     table (interning is process-local) and all numbers are LEB128
     varints. Every sibling set, roots and children alike, is written in
     strictly increasing name order: by tag, then each name by length,
     then by bytes. So the bytes of a partial are a pure function of its
     content, whatever order its names were interned in, and the reader
     needs no sort: it checks each status against the sibling before it,
     on the names' bytes, which also refuses duplicates. Witness entries
     are the exact accumulator's, so a reloaded partial merges
     bit-identically to a fresh one. *)

  let tag = function Waiting _ -> 0 | Running _ -> 1 | Hw _ -> 2

  (* Names by length, then by bytes. *)
  let compare_name a b =
    let a = Signature.name a and b = Signature.name b in
    match Int.compare (String.length a) (String.length b) with
    | 0 -> String.compare a b
    | c -> c

  let compare_status a b =
    match (a, b) with
    | Waiting a, Waiting b -> (
      match compare_name a.wait_sig b.wait_sig with
      | 0 -> compare_name a.unwait_sig b.unwait_sig
      | c -> c)
    | Running a, Running b | Hw a, Hw b -> compare_name a b
    | _ -> Int.compare (tag a) (tag b)

  let rec write tabs buf (level : partial) =
    let nodes =
      List.sort
        (fun a b -> compare_status a.status b.status)
        (Hashtbl.fold (fun _ n acc -> n :: acc) level [])
    in
    let name s = Provenance.Tables.wname tabs buf (Signature.name s) in
    Wire.wv buf (List.length nodes);
    List.iter
      (fun n ->
        Wire.w8 buf (tag n.status);
        (match n.status with
        | Waiting { wait_sig; unwait_sig } ->
          name wait_sig;
          name unwait_sig
        | Running s | Hw s -> name s);
        Wire.wv buf n.cost;
        Wire.wv buf n.count;
        Wire.wv buf n.max_cost;
        Provenance.Wset.write tabs buf n.witnesses;
        write tabs buf n.children)
      nodes

  (* The one parser of the wire form: a sibling set, each status checked
     against the one before it, held as three ints — tag and name
     indices — so the scratch is three ints per level of the path. Given
     a level of a forest it builds the nodes into it; given none it
     builds nothing and interns no name. *)
  let rec read_level tabs level cur what =
    let module T = Provenance.Tables in
    let ptag = ref (-1) and p1 = ref 0 and p2 = ref 0 in
    for _ = 1 to Wire.rcount cur do
      let tag = Wire.r8 cur in
      if tag > 2 then Wire.corrupt "Awg.Partial: unknown status tag %d" tag;
      let n1 = T.rname tabs cur in
      let n2 = if tag = 0 then T.rname tabs cur else n1 in
      let order =
        if tag <> !ptag then Int.compare tag !ptag
        else
          match T.compare_names tabs n1 !p1 with
          | 0 -> T.compare_names tabs n2 !p2
          | c -> c
      in
      if order <= 0 then Wire.corrupt "Awg.Partial: %s statuses not strictly increasing" what;
      ptag := tag;
      p1 := n1;
      p2 := n2;
      let cost = Wire.rv cur in
      let count = Wire.rv cur in
      let max_cost = Wire.rv cur in
      let node =
        match level with
        | None -> None
        | Some level ->
          let s = T.signature tabs n1 in
          let status =
            match tag with
            | 0 -> Waiting { wait_sig = s; unwait_sig = T.signature tabs n2 }
            | 1 -> Running s
            | _ -> Hw s
          in
          let n = fresh_node status in
          n.cost <- cost;
          n.count <- count;
          n.max_cost <- max_cost;
          Hashtbl.add level status n;
          Some n
      in
      let witnesses = Provenance.Wset.read tabs cur in
      Option.iter (fun n -> n.witnesses <- witnesses) node;
      read_level tabs (Option.map (fun n -> n.children) node) cur "child"
    done

  (* What a reader that does not build returns: never added to. *)
  let unbuilt : partial = Hashtbl.create 1

  let read tabs cur : partial =
    if Provenance.Tables.building tabs then begin
      let forest = Hashtbl.create 16 in
      read_level tabs (Some forest) cur "root";
      forest
    end
    else begin
      read_level tabs None cur "root";
      unbuilt
    end
end

(* One build is the merge of one partial: the merger's nodes are fresh,
   and [finish] freezes the sorted-children arrays, so the forest is
   read-only from here and shareable across domains. *)
let build ?(reduce = true) components graphs =
  let m = Partial.merger () in
  Partial.absorb m (Partial.build components graphs);
  Partial.merged ~reduce m
