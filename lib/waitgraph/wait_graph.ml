module Event = Dptrace.Event
module Stream = Dptrace.Stream

type node = {
  event : Event.t;
  waker : Event.t option;
  children : node list;
}

type t = {
  stream : Stream.t;
  instance : Dptrace.Scenario.instance;
  roots : node list;
}

let max_depth = 128

let build ?index stream (instance : Dptrace.Scenario.instance) =
  let idx = match index with Some i -> i | None -> Stream.index stream in
  let memo : (int, node) Hashtbl.t = Hashtbl.create 64 in
  let building : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let rec node_of depth (e : Event.t) =
    match Hashtbl.find_opt memo e.id with
    | Some n -> n
    | None ->
      if Hashtbl.mem building e.id || depth > max_depth then
        (* Back edge or runaway chain: cut here with a childless view. *)
        { event = e; waker = None; children = [] }
      else begin
        Hashtbl.replace building e.id ();
        let n =
          if Event.is_wait e then expand_wait depth e
          else { event = e; waker = None; children = [] }
        in
        Hashtbl.remove building e.id;
        Hashtbl.replace memo e.id n;
        n
      end
  and expand_wait depth (w : Event.t) =
    match Stream.find_waker idx w with
    | None -> { event = w; waker = None; children = [] }
    | Some u ->
      let window =
        Stream.thread_events_overlapping idx ~tid:u.Event.tid ~from_ts:w.ts
          ~to_ts:u.Event.ts
      in
      let children =
        window
        |> List.filter (fun (e : Event.t) ->
               (not (Event.is_unwait e)) && e.ts < u.Event.ts)
        |> List.map (node_of (depth + 1))
      in
      { event = w; waker = Some u; children }
  in
  let roots =
    Stream.thread_events_overlapping idx ~tid:instance.tid ~from_ts:instance.t0
      ~to_ts:instance.t1
    |> List.filter (fun (e : Event.t) -> not (Event.is_unwait e))
    |> List.map (node_of 0)
  in
  { stream; instance; roots }

let iter_nodes t f =
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let rec go n =
    if not (Hashtbl.mem seen n.event.Event.id) then begin
      Hashtbl.replace seen n.event.Event.id ();
      f n;
      List.iter go n.children
    end
  in
  List.iter go t.roots

let fold_nodes t ~init ~f =
  let acc = ref init in
  iter_nodes t (fun n -> acc := f !acc n);
  !acc

let node_count t = fold_nodes t ~init:0 ~f:(fun acc _ -> acc + 1)

let wait_time t =
  fold_nodes t ~init:0 ~f:(fun acc n ->
      if Event.is_wait n.event then acc + n.event.Event.cost else acc)

let depth t =
  let memo : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let rec go n =
    match Hashtbl.find_opt memo n.event.Event.id with
    | Some d -> d
    | None ->
      (* Seed with 1 so revisits along a cycle-cut path terminate. *)
      Hashtbl.replace memo n.event.Event.id 1;
      let d =
        1 + List.fold_left (fun acc c -> max acc (go c)) 0 n.children
      in
      Hashtbl.replace memo n.event.Event.id d;
      d
  in
  List.fold_left (fun acc n -> max acc (go n)) 0 t.roots

let dot_escape s =
  String.concat ""
    (List.map
       (fun c ->
         match c with
         | '"' -> "\\\""
         | '\\' -> "\\\\"
         | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let to_dot t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "digraph wait_graph {\n  rankdir=TB;\n  node [fontsize=10];\n";
  let node_id (e : Event.t) = Printf.sprintf "e%d" e.Event.id in
  let edges = Buffer.create 1024 in
  iter_nodes t (fun n ->
      let e = n.event in
      let top =
        match Dptrace.Callstack.top e.Event.stack with
        | Some s -> Dptrace.Signature.name s
        | None -> "<empty>"
      in
      let unwaiter =
        match n.waker with
        | Some u when Event.is_wait e ->
          Printf.sprintf "\\nunwait by %s"
            (dot_escape (Stream.thread_name t.stream u.Event.tid))
        | _ -> ""
      in
      let shape, color =
        match e.Event.kind with
        | Event.Wait -> ("box", "lightblue")
        | Event.Running -> ("ellipse", "palegreen")
        | Event.Hw_service -> ("hexagon", "lightsalmon")
        | Event.Unwait -> ("diamond", "white")
      in
      Buffer.add_string buf
        (Printf.sprintf
           "  %s [label=\"%s\\n%s %s\\n%s%s\", shape=%s, style=filled, \
            fillcolor=%s];\n"
           (node_id e)
           (dot_escape (Stream.thread_name t.stream e.Event.tid))
           (Event.kind_to_string e.Event.kind)
           (Dputil.Time.to_string e.Event.cost)
           (dot_escape top) unwaiter shape color);
      List.iter
        (fun c ->
          Buffer.add_string edges
            (Printf.sprintf "  %s -> %s;\n" (node_id e) (node_id c.event)))
        n.children);
  Buffer.add_buffer buf edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp fmt t =
  let rec render indent n =
    let e = n.event in
    let top =
      match Dptrace.Callstack.top e.Event.stack with
      | Some s -> Dptrace.Signature.name s
      | None -> "<empty>"
    in
    Format.fprintf fmt "%s%s %s cost=%a [%s]@," indent
      (Event.kind_to_string e.Event.kind)
      (Stream.thread_name t.stream e.Event.tid)
      Dputil.Time.pp e.Event.cost top;
    (match n.waker with
    | Some u ->
      Format.fprintf fmt "%s  (unwaited by %s via %s)@," indent
        (Stream.thread_name t.stream u.Event.tid)
        (match Dptrace.Callstack.top u.Event.stack with
        | Some s -> Dptrace.Signature.name s
        | None -> "<empty>")
    | None -> ());
    List.iter (render (indent ^ "  ")) n.children
  in
  Format.fprintf fmt "@[<v>wait graph of %a@," Dptrace.Scenario.pp_instance
    t.instance;
  List.iter (render "") t.roots;
  Format.fprintf fmt "@]"
