module WG = Dpwaitgraph.Wait_graph
module Event = Dptrace.Event
module Signature = Dptrace.Signature

type witness = {
  stream : Dptrace.Stream.t;
  instance : Dptrace.Scenario.instance;
  matched_cost : Dputil.Time.t;
  chain : Event.t list;
}

let max_paths_per_graph = 4096
let max_depth = 64

(* The Signature Set Tuple of one concrete event chain, mirroring the
   aggregation rules: wait/unwait sigs from wait events and their wakers,
   running sigs from running and hardware-service events; events with no
   component signature contribute nothing. *)
let tuple_of_chain components nodes =
  let waits = ref [] and unwaits = ref [] and runnings = ref [] in
  List.iter
    (fun (n : WG.node) ->
      let e = n.WG.event in
      match e.Event.kind with
      | Event.Wait -> (
        match Component.event_signature components e with
        | Some s ->
          waits := s :: !waits;
          let u =
            match n.WG.waker with
            | Some u -> Component.event_signature_or_top components u
            | None -> Signature.of_string "<lost-unwait>"
          in
          unwaits := u :: !unwaits
        | None -> ())
      | Event.Running | Event.Hw_service -> (
        match Component.event_signature components e with
        | Some s -> runnings := s :: !runnings
        | None -> ())
      | Event.Unwait -> ())
    nodes;
  Tuple.make ~waits:!waits ~unwaits:!unwaits ~runnings:!runnings

let chain_cost (pattern : Mining.pattern) nodes =
  let participating = Tuple.all_signatures pattern.Mining.tuple in
  List.fold_left
    (fun acc (n : WG.node) ->
      let e = n.WG.event in
      let sigs =
        Dptrace.Callstack.frames e.Event.stack |> Array.to_list
      in
      if List.exists (fun s -> List.memq s sigs) participating then
        acc + e.Event.cost
      else acc)
    0 nodes

let best_match components (pattern : Mining.pattern) (g : WG.t) =
  let best = ref None in
  let paths_seen = ref 0 in
  let consider path_rev =
    let path = List.rev path_rev in
    let tuple = tuple_of_chain components path in
    if Tuple.subset pattern.Mining.tuple tuple then begin
      let cost = chain_cost pattern path in
      match !best with
      | Some (c, _) when c >= cost -> ()
      | _ -> best := Some (cost, path)
    end
  in
  let rec dfs depth path_rev (n : WG.node) =
    if depth <= max_depth && !paths_seen < max_paths_per_graph then begin
      let path_rev = n :: path_rev in
      match n.WG.children with
      | [] ->
        incr paths_seen;
        consider path_rev
      | children -> List.iter (dfs (depth + 1) path_rev) children
    end
  in
  List.iter (dfs 0 []) g.WG.roots;
  !best

let witnesses ?(limit = 5) components corpus ~scenario ~pattern () =
  let entries = Dptrace.Corpus.instances_of corpus scenario in
  List.filter_map
    (fun (st, inst) ->
      let g = WG.build ~index:(Dptrace.Stream.shared_index st) st inst in
      match best_match components pattern g with
      | Some (matched_cost, path) when matched_cost > 0 ->
        Some
          {
            stream = st;
            instance = inst;
            matched_cost;
            chain = List.map (fun (n : WG.node) -> n.WG.event) path;
          }
      | _ -> None)
    entries
  |> List.sort (fun a b -> compare b.matched_cost a.matched_cost)
  |> List.filteri (fun i _ -> i < limit)

let render w =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Format.asprintf "witness: %a in stream %d (matched cost %a)\n"
       Dptrace.Scenario.pp_instance w.instance w.stream.Dptrace.Stream.id
       Dputil.Time.pp w.matched_cost);
  List.iteri
    (fun i (e : Event.t) ->
      let top =
        match Dptrace.Callstack.top e.Event.stack with
        | Some s -> Signature.name s
        | None -> "<empty>"
      in
      Buffer.add_string buf
        (Format.asprintf "%s%s %s %a in %s\n"
           (String.make (2 * (i + 1)) ' ')
           (Dptrace.Stream.thread_name w.stream e.Event.tid)
           (Event.kind_to_string e.Event.kind)
           Dputil.Time.pp e.Event.cost top))
    w.chain;
  Buffer.contents buf

let with_events files wanted =
  let key = Dptrace.Codec_v2.stream_key and full = Hashtbl.create 64 in
  let wanted = Hashtbl.of_seq (Seq.map (fun st -> (key st, ())) (List.to_seq wanted)) in
  let absorb (skeletons, reload) =
    match List.filter (fun st -> Hashtbl.mem wanted (key st)) skeletons with
    | [] -> Ok ()
    | sts -> Result.map (List.iter (fun st -> Hashtbl.replace full (key st) st)) (reload sts)
  in
  Result.map
    (fun () (st : Dptrace.Stream.t) ->
      match Hashtbl.find_opt full (key st) with
      | Some f when f.Dptrace.Stream.id = st.id -> f
      | Some f -> Dptrace.Stream.with_id f st.id
      | None -> st)
    (List.fold_left (fun r file -> Result.bind r (fun () -> absorb file)) (Ok ()) files)

let keyed step specs =
  let step = step specs in
  fun f ->
    ignore (Dptrace.Codec_v2.frame_key f : string);
    step f

let resolve_ref (corpus : Dptrace.Corpus.t) (r : Provenance.instance_ref) =
  match
    List.find_opt
      (fun (st : Dptrace.Stream.t) ->
        st.Dptrace.Stream.id = r.Provenance.stream_id)
      corpus.Dptrace.Corpus.streams
  with
  | None -> None
  | Some st ->
    Option.map
      (fun inst -> (st, inst))
      (List.find_opt
         (fun (i : Dptrace.Scenario.instance) ->
           i.Dptrace.Scenario.scenario = r.Provenance.scenario
           && i.Dptrace.Scenario.tid = r.Provenance.tid
           && i.Dptrace.Scenario.t0 = r.Provenance.t0
           && i.Dptrace.Scenario.t1 = r.Provenance.t1)
         st.Dptrace.Stream.instances)

let render_event_line (st : Dptrace.Stream.t) (e : Event.t) =
  let top =
    match Dptrace.Callstack.top e.Event.stack with
    | Some s -> Signature.name s
    | None -> "<empty>"
  in
  Format.asprintf "[%a, %a] %-8s %-14s C=%a  %s"
    Dputil.Time.pp e.Event.ts Dputil.Time.pp (Event.end_ts e)
    (Event.kind_to_string e.Event.kind)
    (Dptrace.Stream.thread_name st e.Event.tid)
    Dputil.Time.pp e.Event.cost top

let render_chain_events w =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Format.asprintf "raw events of the matched chain (stream %d):\n"
       w.stream.Dptrace.Stream.id);
  List.iter
    (fun e ->
      Buffer.add_string buf "  ";
      Buffer.add_string buf (render_event_line w.stream e);
      Buffer.add_char buf '\n')
    w.chain;
  Buffer.contents buf

let render_event_window ?(context = 3) (st : Dptrace.Stream.t) ~event_id =
  let events = st.Dptrace.Stream.events in
  if event_id < 0 || event_id >= Array.length events then ""
  else begin
    let lo = max 0 (event_id - context) in
    let hi = min (Array.length events - 1) (event_id + context) in
    let buf = Buffer.create 512 in
    for i = lo to hi do
      Buffer.add_string buf (if i = event_id then "  > " else "    ");
      Buffer.add_string buf (render_event_line st events.(i));
      Buffer.add_char buf '\n'
    done;
    Buffer.contents buf
  end
