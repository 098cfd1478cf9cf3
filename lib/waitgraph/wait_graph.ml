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

(* A domain's scratch behind the marks (see the interface) and [build]:
   [stamp] holds generations, indexed by event id; [memo.(slot.(id))] is
   the node [build] made for event [id] while [stamp.(id)] is that
   build's "built" generation. A traversal that finds the scratch [busy]
   (one nested in another's callback) takes a fresh one. *)
type scratch = {
  mutable stamp : int array;
  mutable slot : int array;
  mutable memo : node array;
  mutable gen : int;
  mutable busy : bool;
}

(* What an empty memo slot holds. *)
let no_node =
  {
    event =
      { Event.id = -1; kind = Event.Running; stack = Dptrace.Callstack.of_list [];
        ts = 0; cost = 0; tid = 0; wtid = -1 };
    waker = None;
    children = [];
  }

let fresh_scratch n =
  { stamp = Array.make n 0; slot = Array.make n 0; memo = [||]; gen = 0; busy = false }

let scratch_key = Domain.DLS.new_key (fun () -> fresh_scratch 0)

let with_scratch n f =
  let own = Domain.DLS.get scratch_key in
  let s = if own.busy then fresh_scratch n else own in
  if Array.length s.stamp < n then begin
    let len = max n (2 * Array.length s.stamp) in
    s.stamp <- Array.make len 0;
    s.slot <- Array.make len 0
  end;
  s.busy <- true;
  match f s with
  | v ->
    s.busy <- false;
    v
  | exception exn ->
    s.busy <- false;
    raise exn

let next_gen s =
  s.gen <- s.gen + 1;
  s.gen

type marks = { m_stamp : int array; m_gen : int }

let with_marks t f =
  with_scratch (Stream.event_count t.stream) (fun s ->
      f { m_stamp = s.stamp; m_gen = next_gen s })

let first_visit m (e : Event.t) =
  m.m_stamp.(e.id) <> m.m_gen
  && begin
    m.m_stamp.(e.id) <- m.m_gen;
    true
  end

let leaf e = { event = e; waker = None; children = [] }

let build ?index stream (instance : Dptrace.Scenario.instance) =
  let idx = match index with Some i -> i | None -> Stream.index stream in
  with_scratch (Stream.event_count stream) @@ fun s ->
  let building = next_gen s in
  let built = next_gen s in
  let count = ref 0 in
  let memoise id n =
    if !count = Array.length s.memo then begin
      let memo = Array.make (max 16 (2 * !count)) no_node in
      Array.blit s.memo 0 memo 0 !count;
      s.memo <- memo
    end;
    s.memo.(!count) <- n;
    s.slot.(id) <- !count;
    s.stamp.(id) <- built;
    incr count
  in
  let rec node_of depth (e : Event.t) =
    let mark = s.stamp.(e.id) in
    if mark = built then s.memo.(s.slot.(e.id))
    else if mark = building || depth > max_depth then
      (* Back edge or runaway chain: cut here with a childless view,
         memoised for neither. *)
      leaf e
    else begin
      s.stamp.(e.id) <- building;
      let n = if Event.is_wait e then expand_wait depth e else leaf e in
      memoise e.id n;
      n
    end
  and expand_wait depth (w : Event.t) =
    match Stream.find_waker idx w with
    | None -> leaf w
    | Some u ->
      let children =
        Stream.map_overlapping idx ~tid:u.Event.tid ~from_ts:w.ts ~to_ts:u.Event.ts
          ~keep:(fun (e : Event.t) -> (not (Event.is_unwait e)) && e.ts < u.Event.ts)
          (node_of (depth + 1))
      in
      { event = w; waker = Some u; children }
  in
  let roots =
    Stream.map_overlapping idx ~tid:instance.tid ~from_ts:instance.t0
      ~to_ts:instance.t1
      ~keep:(fun (e : Event.t) -> not (Event.is_unwait e))
      (node_of 0)
  in
  (* Drop the memo's hold on this graph's nodes. *)
  Array.fill s.memo 0 !count no_node;
  { stream; instance; roots }

let iter_nodes t f =
  with_marks t @@ fun m ->
  let rec go n =
    if first_visit m n.event then begin
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
  with_scratch (Stream.event_count t.stream) @@ fun s ->
  let gen = next_gen s in
  (* [slot.(id)] is the memoised depth of a node stamped [gen]. *)
  let rec go n =
    let id = n.event.Event.id in
    if s.stamp.(id) = gen then s.slot.(id)
    else begin
      (* Seed with 1 so revisits along a cycle-cut path terminate. *)
      s.stamp.(id) <- gen;
      s.slot.(id) <- 1;
      let d = 1 + List.fold_left (fun acc c -> max acc (go c)) 0 n.children in
      s.slot.(id) <- d;
      d
    end
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
