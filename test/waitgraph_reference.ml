(* The Hashtbl-based Wait Graph builder, [iter_nodes] and [depth], kept
   as the test oracle for Dpwaitgraph.Wait_graph's position-indexed
   marks.

   [build] memoises each expanded node in a table keyed by event id and
   guards cycles with a second table of the events being expanded; a
   back edge, or an event first met beyond [max_depth], gets a childless
   view that neither table records. [iter_nodes] dedups by a table of
   seen ids, and [depth] memoises depths in a table. Windows are taken
   whole from [Fixtures.thread_events_overlapping], then filtered and
   mapped. *)

module Event = Dptrace.Event
module Stream = Dptrace.Stream
module WG = Dpwaitgraph.Wait_graph

let build ?index stream (instance : Dptrace.Scenario.instance) : WG.t =
  let idx = match index with Some i -> i | None -> Stream.index stream in
  let memo : (int, WG.node) Hashtbl.t = Hashtbl.create 64 in
  let building : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let leaf e = { WG.event = e; waker = None; children = [] } in
  let rec node_of depth (e : Event.t) =
    match Hashtbl.find_opt memo e.id with
    | Some n -> n
    | None ->
      if Hashtbl.mem building e.id || depth > WG.max_depth then leaf e
      else begin
        Hashtbl.replace building e.id ();
        let n = if Event.is_wait e then expand_wait depth e else leaf e in
        Hashtbl.remove building e.id;
        Hashtbl.replace memo e.id n;
        n
      end
  and expand_wait depth (w : Event.t) =
    match Stream.find_waker idx w with
    | None -> leaf w
    | Some u ->
      let window =
        Fixtures.thread_events_overlapping idx ~tid:u.Event.tid ~from_ts:w.ts
          ~to_ts:u.Event.ts
      in
      let children =
        window
        |> List.filter (fun (e : Event.t) ->
               (not (Event.is_unwait e)) && e.ts < u.Event.ts)
        |> List.map (node_of (depth + 1))
      in
      { WG.event = w; waker = Some u; children }
  in
  let roots =
    Fixtures.thread_events_overlapping idx ~tid:instance.tid ~from_ts:instance.t0
      ~to_ts:instance.t1
    |> List.filter (fun (e : Event.t) -> not (Event.is_unwait e))
    |> List.map (node_of 0)
  in
  { WG.stream; instance; roots }

let iter_nodes (t : WG.t) f =
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let rec go (n : WG.node) =
    if not (Hashtbl.mem seen n.WG.event.Event.id) then begin
      Hashtbl.replace seen n.WG.event.Event.id ();
      f n;
      List.iter go n.WG.children
    end
  in
  List.iter go t.WG.roots

let depth (t : WG.t) =
  let memo : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let rec go (n : WG.node) =
    match Hashtbl.find_opt memo n.WG.event.Event.id with
    | Some d -> d
    | None ->
      Hashtbl.replace memo n.WG.event.Event.id 1;
      let d = 1 + List.fold_left (fun acc c -> max acc (go c)) 0 n.WG.children in
      Hashtbl.replace memo n.WG.event.Event.id d;
      d
  in
  List.fold_left (fun acc n -> max acc (go n)) 0 t.WG.roots

(* A graph as its nodes in [iter] order: event id, waker id, child ids. *)
let listing iter g =
  let out = ref [] in
  iter g (fun (n : WG.node) ->
      out :=
        ( n.WG.event.Event.id,
          Option.map (fun (u : Event.t) -> u.Event.id) n.WG.waker,
          List.map (fun (c : WG.node) -> c.WG.event.Event.id) n.WG.children )
        :: !out);
  List.rev !out

(* The graph's physical DAG: each distinct node value numbered in order
   of first meeting (preorder, no dedup by event), with its event, waker
   and numbered children. Two graphs give the same shape iff they share
   nodes the same way, so a childless cut view and the expanded node of
   the same event stay apart. *)
let shape (g : WG.t) =
  let seen : (int, (WG.node * int) list) Hashtbl.t = Hashtbl.create 64 in
  let next = ref 0 and out = ref [] in
  let rec number (n : WG.node) =
    let id = n.WG.event.Event.id in
    let bucket = Option.value ~default:[] (Hashtbl.find_opt seen id) in
    match List.assq_opt n bucket with
    | Some k -> k
    | None ->
      let k = !next in
      incr next;
      Hashtbl.replace seen id ((n, k) :: bucket);
      let kids = List.map number n.WG.children in
      out :=
        (k, id, Option.map (fun (u : Event.t) -> u.Event.id) n.WG.waker, kids) :: !out;
      k
  in
  let roots = List.map number g.WG.roots in
  (roots, List.sort compare !out)
