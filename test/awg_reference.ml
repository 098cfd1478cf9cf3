(* The two-step AWG construction, kept as the test oracle for
   Dpcore.Awg's merge-while-walking.

   [convert] turns one Wait Graph into an intermediate tree of relevant
   events (irrelevant waits promote their children, a wait carries its
   pairing unwait's signature), deduplicating events with a Hashtbl of
   seen ids. [merge_into] then folds the trees of all graphs, in graph
   order, into a trie of its own keyed by status. [write] serialises the
   trie in the partial wire form, with its own sibling sort, after its
   stream's tables, so a forest's bytes compare against
   [Awg.Partial.write]'s. Witnesses go
   through the hash-table accumulator of [Provenance_reference].
   [absorb] merges the streams' tries as [Awg.Partial.absorb] merges
   partials, and [witness_table] pairs each node of a finished AWG with
   the reference's capped witnesses at the same status path. *)

module Event = Dptrace.Event
module Signature = Dptrace.Signature
module Wait_graph = Dpwaitgraph.Wait_graph
module Component = Dpcore.Component
module Provenance = Dpcore.Provenance
module Wire = Dptrace.Wire
open Dpcore.Awg

type cnode = { cstatus : status; ccost : Dputil.Time.t; ckids : cnode list }

let convert components (g : Wait_graph.t) =
  let visited : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let rec conv (n : Wait_graph.node) : cnode list =
    let e = n.Wait_graph.event in
    if Hashtbl.mem visited e.Event.id then []
    else begin
      Hashtbl.replace visited e.Event.id ();
      match e.Event.kind with
      | Event.Unwait -> []
      | Event.Running -> (
        match Component.event_signature components e with
        | Some s -> [ { cstatus = Running s; ccost = e.Event.cost; ckids = [] } ]
        | None -> [])
      | Event.Hw_service -> (
        match Component.event_signature components e with
        | Some s -> [ { cstatus = Hw s; ccost = e.Event.cost; ckids = [] } ]
        | None -> [])
      | Event.Wait -> (
        let kids () = List.concat_map conv n.Wait_graph.children in
        match Component.event_signature components e with
        | None -> kids ()
        | Some wait_sig ->
          let unwait_sig =
            match n.Wait_graph.waker with
            | Some u -> Component.event_signature_or_top components u
            | None -> Signature.of_string "<lost-unwait>"
          in
          [ { cstatus = Waiting { wait_sig; unwait_sig }; ccost = e.Event.cost; ckids = kids () } ])
    end
  in
  List.concat_map conv g.Wait_graph.roots

type rnode = {
  mutable cost : Dputil.Time.t;
  mutable count : int;
  mutable max_cost : Dputil.Time.t;
  wacc : Provenance_reference.Wacc.t;
  children : (status, rnode) Hashtbl.t;
}

let rec merge_into ?src table (c : cnode) =
  let n =
    match Hashtbl.find_opt table c.cstatus with
    | Some n -> n
    | None ->
      let n =
        { cost = 0; count = 0; max_cost = 0; wacc = Provenance_reference.Wacc.create ();
          children = Hashtbl.create 4 }
      in
      Hashtbl.replace table c.cstatus n;
      n
  in
  n.cost <- n.cost + c.ccost;
  n.count <- n.count + 1;
  if c.ccost > n.max_cost then n.max_cost <- c.ccost;
  Option.iter (fun r -> Provenance_reference.Wacc.add n.wacc r ~cost:c.ccost) src;
  List.iter (merge_into ?src n.children) c.ckids

(* One stream's forest: every graph converted first, then merged. *)
let partial components graphs =
  let forest = Hashtbl.create 16 in
  let converted = List.map (convert components) graphs in
  List.iter2
    (fun (g : Wait_graph.t) cnodes ->
      let src =
        if Provenance.enabled () then
          Some (Provenance.ref_of g.Wait_graph.stream g.Wait_graph.instance)
        else None
      in
      List.iter (merge_into ?src forest) cnodes)
    graphs converted;
  forest

let names = function
  | Waiting { wait_sig; unwait_sig } -> (0, [ Signature.name wait_sig; Signature.name unwait_sig ])
  | Running s -> (1, [ Signature.name s ])
  | Hw s -> (2, [ Signature.name s ])

(* Siblings by tag, then each name by length, then by bytes. *)
let sort_key status =
  let tag, ns = names status in
  (tag, List.map (fun n -> (String.length n, n)) ns)

let rec write tabs buf level =
  let nodes =
    List.sort
      (fun (a, _) (b, _) -> compare (sort_key a) (sort_key b))
      (Hashtbl.fold (fun s n acc -> (s, n) :: acc) level [])
  in
  Wire.wv buf (List.length nodes);
  List.iter
    (fun (status, n) ->
      let tag, ns = names status in
      Wire.w8 buf tag;
      List.iter (Provenance.Tables.wname tabs buf) ns;
      Wire.wv buf n.cost;
      Wire.wv buf n.count;
      Wire.wv buf n.max_cost;
      let entries = Provenance_reference.Wacc.entries n.wacc in
      Wire.wv buf (List.length entries);
      List.iter
        (fun (r, cost, count) ->
          Provenance.Tables.wref tabs buf r;
          Wire.wv buf cost;
          Wire.wv buf count)
        entries;
      write tabs buf n.children)
    nodes

(* The forest's bytes after the tables of [st], the graphs' stream. *)
let partial_bytes components st graphs =
  Fixtures.with_tables st (fun tabs buf -> write tabs buf (partial components graphs))

(* Merge a stream's forest into [into], as [Awg.Partial.absorb] merges
   partials: call it per stream, in corpus order. *)
let rec absorb into (src : (status, rnode) Hashtbl.t) =
  Hashtbl.iter
    (fun status (c : rnode) ->
      let n =
        match Hashtbl.find_opt into status with
        | Some n -> n
        | None ->
          let n =
            { cost = 0; count = 0; max_cost = 0; wacc = Provenance_reference.Wacc.create ();
              children = Hashtbl.create 4 }
          in
          Hashtbl.replace into status n;
          n
      in
      n.cost <- n.cost + c.cost;
      n.count <- n.count + c.count;
      if c.max_cost > n.max_cost then n.max_cost <- c.max_cost;
      Provenance_reference.Wacc.merge_into ~into:n.wacc c.wacc;
      absorb n.children c.children)
    src

module Nodes = Hashtbl.Make (struct
  type t = node

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* Each node of [awg] (a finished forest) with the capped witness set of
   the node at the same status path in the reference [forest]. *)
let witness_table awg forest =
  let tbl = Nodes.create 256 in
  let rec go level (n : node) =
    let r = Hashtbl.find level n.status in
    Nodes.replace tbl n (Provenance_reference.Wacc.to_wset r.wacc);
    Array.iter (go r.children) (sorted_children n)
  in
  List.iter (go forest) (roots awg);
  tbl
