type violation = { event_id : int option; message : string }

let violation ?event_id fmt =
  Format.kasprintf (fun message -> { event_id; message }) fmt

let check (st : Stream.t) =
  let out = ref [] in
  let add v = out := v :: !out in
  let events = st.Stream.events in
  (* Ordering and ids. *)
  Array.iteri
    (fun i (e : Event.t) ->
      if e.id <> i then add (violation ~event_id:e.id "id %d at index %d" e.id i);
      if i > 0 && events.(i - 1).Event.ts > e.ts then
        add (violation ~event_id:e.id "timestamp regression at index %d" i))
    events;
  (* Field sanity. *)
  Array.iter
    (fun (e : Event.t) ->
      if e.cost < 0 then add (violation ~event_id:e.id "negative cost");
      match e.kind with
      | Event.Unwait ->
        if e.cost <> 0 then add (violation ~event_id:e.id "unwait with non-zero cost");
        if e.wtid < 0 then add (violation ~event_id:e.id "unwait without wtid");
        if e.wtid = e.tid then add (violation ~event_id:e.id "unwait targets itself")
      | Event.Running | Event.Wait | Event.Hw_service ->
        if e.wtid <> -1 then
          add (violation ~event_id:e.id "wtid set on non-unwait event"))
    events;
  (* Per-thread sequentiality. *)
  let idx = Stream.index st in
  let tids =
    Array.to_list events |> List.map (fun (e : Event.t) -> e.tid) |> List.sort_uniq compare
  in
  List.iter
    (fun tid ->
      let es = Stream.events_of_thread idx tid in
      for i = 1 to Array.length es - 1 do
        let prev = es.(i - 1) and cur = es.(i) in
        if cur.Event.ts < Event.end_ts prev then
          add
            (violation ~event_id:cur.Event.id
               "thread %d events overlap: #%d ends at %d, #%d starts at %d" tid
               prev.Event.id (Event.end_ts prev) cur.Event.id cur.Event.ts)
      done)
    tids;
  (* Wait/unwait pairing. *)
  Array.iter
    (fun (e : Event.t) ->
      if Event.is_wait e && Stream.find_waker idx e = None then
        add (violation ~event_id:e.id "wait event with no pairing unwait"))
    events;
  (* Instances. An instance may legitimately record no events (its work
     was shorter than the sampling period), but its initiating thread must
     at least be a known thread of the stream. *)
  List.iter
    (fun (i : Scenario.instance) ->
      if i.t1 < i.t0 then
        add (violation "instance %s has t1 < t0" i.scenario);
      if
        (not (List.mem_assoc i.tid st.Stream.threads))
        && Array.length (Stream.events_of_thread idx i.tid) = 0
      then
        add
          (violation "instance %s: initiating thread %d is unknown" i.scenario
             i.tid))
    st.Stream.instances;
  List.rev !out

let check_corpus (c : Corpus.t) =
  List.concat_map
    (fun (st : Stream.t) -> List.map (fun v -> (st.Stream.id, v)) (check st))
    c.streams

let pp_violation fmt v =
  match v.event_id with
  | Some id -> Format.fprintf fmt "[event %d] %s" id v.message
  | None -> Format.pp_print_string fmt v.message
