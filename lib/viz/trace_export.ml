open Dptrace

let c_slices = Dpobs.Metrics.lazy_counter "viz.slices_emitted"
let c_flows = Dpobs.Metrics.lazy_counter "viz.flows_emitted"

type exemplar = {
  x_stream : Stream.t;
  x_instance : Scenario.instance;
  x_label : string;
  x_marks : Event.t list;
}

let label ~cls ~rank (st : Stream.t) (i : Scenario.instance) =
  Printf.sprintf "%s#%d %s %dus (stream %d)" cls rank i.Scenario.scenario
    (Scenario.duration i) st.Stream.id

(* Deterministic exemplar order: duration is the quantity being
   contrasted, so break its ties on the stable (stream id, t0) identity
   of the instance. *)
let by_duration ~slowest (a_st, a_i) (b_st, b_i) =
  let da = Scenario.duration a_i and db = Scenario.duration b_i in
  let c = if slowest then compare db da else compare da db in
  if c <> 0 then c
  else
    compare
      (a_st.Stream.id, a_i.Scenario.t0, a_i.Scenario.tid)
      (b_st.Stream.id, b_i.Scenario.t0, b_i.Scenario.tid)

let take n l =
  let rec go n = function
    | x :: tl when n > 0 -> x :: go (n - 1) tl
    | _ -> []
  in
  go n l

let of_class ~cls ~slowest n pairs =
  List.sort (by_duration ~slowest) pairs
  |> take n
  |> List.mapi (fun k (st, i) ->
         {
           x_stream = st;
           x_instance = i;
           x_label = label ~cls ~rank:(k + 1) st i;
           x_marks = [];
         })

let exemplars_of_classes ?(slow = 3) ?(fast = 3) (c : Dpcore.Classify.t) =
  of_class ~cls:"slow" ~slowest:true slow c.Dpcore.Classify.slow
  @ of_class ~cls:"fast" ~slowest:false fast c.Dpcore.Classify.fast

let exemplars_of_witnesses (ws : Dpcore.Explorer.witness list) =
  List.mapi
    (fun k (w : Dpcore.Explorer.witness) ->
      {
        x_stream = w.Dpcore.Explorer.stream;
        x_instance = w.Dpcore.Explorer.instance;
        x_label =
          Printf.sprintf "%s (matched %dus)"
            (label ~cls:"witness" ~rank:(k + 1) w.Dpcore.Explorer.stream
               w.Dpcore.Explorer.instance)
            w.Dpcore.Explorer.matched_cost;
        x_marks = w.Dpcore.Explorer.chain;
      })
    ws

(* Sentinel tids inside each exemplar's process: real thread tracks keep
   their trace tids; the instance-boundary slice and the waiter counter
   live on tracks of their own. *)
let instance_tid = 999_999
let counter_tid = 999_998

let sig_name components e =
  Signature.name (Dpcore.Component.event_signature_or_top components e)

let export ?(components = Dpcore.Component.drivers) exemplars =
  let w = Dpobs.Trace_writer.create () in
  let slices = ref 0 and flows = ref 0 in
  (* Flow ids must be unique across the whole artifact; wait-event ids
     are only unique per stream, so number the pairs globally in
     emission order instead. *)
  let next_flow = ref 0 in
  List.iteri
    (fun xi x ->
      let pid = xi + 1 in
      let st = x.x_stream and inst = x.x_instance in
      let lo, hi = Timeline.instance_window inst in
      let idx = Stream.shared_index st in
      let events =
        Array.to_list st.Stream.events
        |> List.filter (fun (e : Event.t) ->
               e.Event.ts <= hi && Event.end_ts e >= lo)
      in
      let us ts = float_of_int (ts - lo) in
      Dpobs.Trace_writer.process_name w ~pid x.x_label;
      Dpobs.Trace_writer.thread_name w ~pid ~tid:instance_tid "instance";
      Dpobs.Trace_writer.thread_name w ~pid ~tid:counter_tid "waiters";
      let seen = Hashtbl.create 16 in
      List.iter
        (fun (e : Event.t) ->
          if not (Hashtbl.mem seen e.Event.tid) then begin
            Hashtbl.replace seen e.Event.tid ();
            Dpobs.Trace_writer.thread_name w ~pid ~tid:e.Event.tid
              (Stream.thread_name st e.Event.tid)
          end)
        events;
      (* Instance boundary marker. *)
      Dpobs.Trace_writer.event w ~cat:"instance"
        ~dur_us:(float_of_int (Scenario.duration inst))
        ~ph:'X' ~pid ~tid:instance_tid
        ~ts_us:(us inst.Scenario.t0)
        x.x_label;
      incr slices;
      (* One slice per event; wait slices additionally carry a flow
         arrow from the unwait that ended them. *)
      List.iter
        (fun (e : Event.t) ->
          let name = sig_name components e in
          (match e.Event.kind with
          | Event.Running ->
            incr slices;
            Dpobs.Trace_writer.event w ~cat:"running"
              ~dur_us:(float_of_int e.Event.cost) ~ph:'X' ~pid
              ~tid:e.Event.tid ~ts_us:(us e.Event.ts) name
          | Event.Wait ->
            incr slices;
            Dpobs.Trace_writer.event w ~cat:"wait"
              ~dur_us:(float_of_int e.Event.cost) ~ph:'X' ~pid
              ~tid:e.Event.tid ~ts_us:(us e.Event.ts) name
          | Event.Hw_service ->
            incr slices;
            Dpobs.Trace_writer.event w ~cat:"hw"
              ~dur_us:(float_of_int e.Event.cost) ~ph:'X' ~pid
              ~tid:e.Event.tid ~ts_us:(us e.Event.ts) name
          | Event.Unwait ->
            Dpobs.Trace_writer.event w ~cat:"unwait"
              ~args:[ ("wtid", Dputil.Jsonw.Int e.Event.wtid) ]
              ~ph:'i' ~pid ~tid:e.Event.tid ~ts_us:(us e.Event.ts) name);
          if Event.is_wait e then
            match Stream.find_waker idx e with
            | None -> ()
            | Some u ->
              let id = !next_flow in
              incr next_flow;
              incr flows;
              Dpobs.Trace_writer.event w ~cat:"wake" ~id ~ph:'s' ~pid
                ~tid:u.Event.tid ~ts_us:(us u.Event.ts) "wake";
              Dpobs.Trace_writer.event w ~cat:"wake" ~id ~bind_enclosing:true
                ~ph:'f' ~pid ~tid:e.Event.tid
                ~ts_us:(us (Event.end_ts e))
                "wake")
        events;
      (* Concurrent-waiters counter: +1/-1 change points of every wait
         slice, clamped to the window, accumulated left to right. *)
      let changes =
        List.concat_map
          (fun (e : Event.t) ->
            if Event.is_wait e then
              [ (max e.Event.ts lo, 1); (min (Event.end_ts e) hi, -1) ]
            else [])
          events
        |> List.sort compare
      in
      let level = ref 0 in
      List.iter
        (fun (ts, d) ->
          level := !level + d;
          Dpobs.Trace_writer.event w ~cat:"waiters"
            ~args:[ ("waiters", Dputil.Jsonw.Int !level) ]
            ~ph:'C' ~pid ~tid:counter_tid ~ts_us:(us ts) "concurrent waiters")
        changes;
      (* Pattern-match markers: the witness chain's concrete events. *)
      List.iter
        (fun (e : Event.t) ->
          Dpobs.Trace_writer.event w ~cat:"match"
            ~args:[ ("signature", Dputil.Jsonw.Str (sig_name components e)) ]
            ~ph:'i' ~pid ~tid:e.Event.tid ~ts_us:(us e.Event.ts) "match")
        x.x_marks)
    exemplars;
  Dpobs.Metrics.add (c_slices ()) !slices;
  Dpobs.Metrics.add (c_flows ()) !flows;
  Dpobs.Trace_writer.contents w
