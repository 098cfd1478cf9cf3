(* The profiler's sampling interval: it coalesces samples and costs them. *)
let sample_period = Dputil.Time.ms 1

type state = {
  mutable events : Event.t list;
  mutable instances : Scenario.instance list;
  mutable threads : (int * string) list;
  blocked : (int, Dputil.Time.t * Callstack.t) Hashtbl.t;  (* since, stack *)
  (* Per-thread run coalescing: stack, first sample ts, sample count. *)
  running : (int, Callstack.t * Dputil.Time.t * int) Hashtbl.t;
  open_marks : (string * int, Dputil.Time.t) Hashtbl.t;  (* Start ts *)
  devices : (string, int) Hashtbl.t;
  mutable next_device_tid : int;
}

let emit st ~kind ~stack ~ts ~cost ~tid ~wtid =
  st.events <- { Event.id = 0; kind; stack; ts; cost; tid; wtid } :: st.events

(* [clamp] bounds the run's end: a context switch at time T proves the
   thread stopped running no later than T, even though its last sample
   nominally covers a full period. *)
let flush_running ?clamp st tid =
  match Hashtbl.find_opt st.running tid with
  | None -> ()
  | Some (stack, first_ts, n) ->
    Hashtbl.remove st.running tid;
    let cost =
      let nominal = n * sample_period in
      match clamp with Some t -> min nominal (t - first_ts) | None -> nominal
    in
    if cost > 0 then
      emit st ~kind:Event.Running ~stack ~ts:first_ts ~cost ~tid ~wtid:(-1)

let on_sample st ts tid stack =
  match Hashtbl.find_opt st.running tid with
  | Some (prev_stack, first_ts, n)
    when Callstack.equal prev_stack stack
         && ts - (first_ts + (n * sample_period)) < sample_period ->
    Hashtbl.replace st.running tid (prev_stack, first_ts, n + 1)
  | _ ->
    flush_running st tid;
    Hashtbl.replace st.running tid (stack, ts, 1)

let on_cswitch st ts old_tid old_state stack =
  if String.lowercase_ascii old_state = "waiting" then begin
    flush_running ~clamp:ts st old_tid;
    Hashtbl.replace st.blocked old_tid (ts, stack)
  end

let on_ready st ts by target stack =
  emit st ~kind:Event.Unwait ~stack ~ts ~cost:0 ~tid:by ~wtid:target;
  match Hashtbl.find_opt st.blocked target with
  | Some (since, bstack) ->
    Hashtbl.remove st.blocked target;
    emit st ~kind:Event.Wait ~stack:bstack ~ts:since ~cost:(ts - since)
      ~tid:target ~wtid:(-1)
  | None -> ()

let on_diskio st start dur name tid =
  let tid =
    match (tid, Hashtbl.find_opt st.devices name) with
    | Some tid, known ->
      if known = None then begin
        Hashtbl.replace st.devices name tid;
        if not (List.mem_assoc tid st.threads) then
          st.threads <- (tid, name) :: st.threads
      end;
      tid
    | None, Some tid -> tid
    | None, None ->
      let tid = st.next_device_tid in
      st.next_device_tid <- tid + 1;
      Hashtbl.replace st.devices name tid;
      st.threads <- (tid, name) :: st.threads;
      tid
  in
  emit st ~kind:Event.Hw_service
    ~stack:(Callstack.of_list [ Signature.hw_service name ])
    ~ts:start ~cost:dur ~tid ~wtid:(-1)

let on_mark st line ts scenario tid edge =
  match String.lowercase_ascii edge with
  | "start" ->
    if Hashtbl.mem st.open_marks (scenario, tid) then
      Fields.fail line "Mark Start for already-open instance %s/%d" scenario tid;
    Hashtbl.replace st.open_marks (scenario, tid) ts
  | "stop" -> (
    match Hashtbl.find_opt st.open_marks (scenario, tid) with
    | Some t0 ->
      Hashtbl.remove st.open_marks (scenario, tid);
      if ts < t0 then Fields.fail line "Mark Stop before Start for %s/%d" scenario tid;
      st.instances <- { Scenario.scenario; tid; t0; t1 = ts } :: st.instances
    | None -> Fields.fail line "Mark Stop without Start for %s/%d" scenario tid)
  | other -> Fields.fail line "unknown Mark edge %S" other

(* Fields are read in test/text_reference.ml's order, a call's arguments
   from the last, so a line with two bad fields fails on the same one. *)
let parse_line st line f =
  match Fields.count f with
  | 0 -> ()
  | 4 when Fields.is f 0 "SampledProfile" ->
    let stack = Fields.stack f ~empty:"" 3 in
    let tid = Fields.int f "tid" 2 in
    on_sample st (Fields.int f "ts" 1) tid stack
  | 6 when Fields.is f 0 "CSwitch" ->
    let stack = Fields.stack f ~empty:"" 5 in
    let old_tid = Fields.int f "old_tid" 3 in
    on_cswitch st (Fields.int f "ts" 1) old_tid (Fields.get f 4) stack
  | 5 when Fields.is f 0 "ReadyThread" ->
    let stack = Fields.stack f ~empty:"" 4 in
    let target = Fields.int f "target" 3 in
    let by = Fields.int f "by" 2 in
    on_ready st (Fields.int f "ts" 1) by target stack
  | (4 | 5) when Fields.is f 0 "DiskIo" ->
    let dur = Fields.int f "dur" 2 in
    if dur < 0 then Fields.fail line "negative DiskIo duration";
    let tid = if Fields.count f = 5 then Some (Fields.int f "tid" 4) else None in
    on_diskio st (Fields.int f "start" 1) dur (Fields.get f 3) tid
  | 5 when Fields.is f 0 "Mark" ->
    let tid = Fields.int f "tid" 3 in
    on_mark st line (Fields.int f "ts" 1) (Fields.get f 2) tid (Fields.get f 4)
  | 3 when Fields.is f 0 "Thread" ->
    st.threads <- (Fields.int f "tid" 1, Fields.get f 2) :: st.threads
  | _ -> Fields.fail line "unrecognised record %S" (Fields.get f 0)

let load ?(stream_id = 0) path =
  let st =
    { events = []; instances = []; threads = []; blocked = Hashtbl.create 32;
      running = Hashtbl.create 32; open_marks = Hashtbl.create 8; devices = Hashtbl.create 4;
      next_device_tid = 1_000_000 }
  in
  ignore (Fields.read path Fields.csv (parse_line st));
  (* Flush coalesced runs; open waits and open marks are dropped as
     truncation artefacts. *)
  Hashtbl.fold (fun tid _ acc -> tid :: acc) st.running [] |> List.iter (flush_running st);
  Stream.create ~id:stream_id ~events:(Array.of_list (List.rev st.events))
    ~instances:(List.rev st.instances) ~threads:(List.rev st.threads)
