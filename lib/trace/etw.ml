exception Parse_error of { line : int; message : string }

let fail line fmt =
  Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

(* --- tokenizer: comma-separated fields, double quotes protect commas --- *)

let split_fields line_no raw =
  let fields = ref [] in
  let buf = Buffer.create 32 in
  let in_quotes = ref false in
  let flush () =
    fields := String.trim (Buffer.contents buf) :: !fields;
    Buffer.clear buf
  in
  String.iter
    (fun c ->
      match c with
      | '"' -> in_quotes := not !in_quotes
      | ',' when not !in_quotes -> flush ()
      | c -> Buffer.add_char buf c)
    raw;
  if !in_quotes then fail line_no "unterminated quote";
  flush ();
  List.rev !fields

let int_field line_no what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail line_no "invalid %s: %S" what s

let stack_field s =
  if s = "" then Callstack.of_list []
  else Callstack.of_strings (String.split_on_char ';' s)

(* --- conversion state --- *)

type blocked = { since : Dputil.Time.t; bstack : Callstack.t }

type open_instance = { scenario : string; itid : int; t0 : Dputil.Time.t }

type state = {
  mutable line : int;
  mutable events : Event.t list;
  mutable instances : Scenario.instance list;
  mutable threads : (int * string) list;
  blocked : (int, blocked) Hashtbl.t;
  (* Per-thread run coalescing: stack, first sample ts, sample count. *)
  running : (int, Callstack.t * Dputil.Time.t * int) Hashtbl.t;
  open_marks : (string * int, open_instance) Hashtbl.t;
  devices : (string, int) Hashtbl.t;
  mutable next_device_tid : int;
  sample_period : Dputil.Time.t;
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
      let nominal = n * st.sample_period in
      match clamp with Some t -> min nominal (t - first_ts) | None -> nominal
    in
    if cost > 0 then
      emit st ~kind:Event.Running ~stack ~ts:first_ts ~cost ~tid ~wtid:(-1)

let on_sample st ts tid stack =
  match Hashtbl.find_opt st.running tid with
  | Some (prev_stack, first_ts, n)
    when Callstack.equal prev_stack stack
         && ts - (first_ts + (n * st.sample_period)) < st.sample_period ->
    Hashtbl.replace st.running tid (prev_stack, first_ts, n + 1)
  | Some _ ->
    flush_running st tid;
    Hashtbl.replace st.running tid (stack, ts, 1)
  | None -> Hashtbl.replace st.running tid (stack, ts, 1)

let on_cswitch st ts old_tid old_state stack =
  if String.lowercase_ascii old_state = "waiting" then begin
    flush_running ~clamp:ts st old_tid;
    Hashtbl.replace st.blocked old_tid { since = ts; bstack = stack }
  end

let on_ready st ts by target stack =
  emit st ~kind:Event.Unwait ~stack ~ts ~cost:0 ~tid:by ~wtid:target;
  match Hashtbl.find_opt st.blocked target with
  | Some { since; bstack } ->
    Hashtbl.remove st.blocked target;
    emit st ~kind:Event.Wait ~stack:bstack ~ts:since ~cost:(ts - since)
      ~tid:target ~wtid:(-1)
  | None -> ()

let device_tid st name =
  match Hashtbl.find_opt st.devices name with
  | Some tid -> tid
  | None ->
    let tid = st.next_device_tid in
    st.next_device_tid <- tid + 1;
    Hashtbl.replace st.devices name tid;
    st.threads <- (tid, name) :: st.threads;
    tid

let on_diskio st start dur name tid =
  let tid =
    match tid with
    | Some tid ->
      if not (Hashtbl.mem st.devices name) then begin
        Hashtbl.replace st.devices name tid;
        if not (List.mem_assoc tid st.threads) then
          st.threads <- (tid, name) :: st.threads
      end;
      tid
    | None -> device_tid st name
  in
  emit st ~kind:Event.Hw_service
    ~stack:(Callstack.of_list [ Signature.hw_service name ])
    ~ts:start ~cost:dur ~tid ~wtid:(-1)

let on_mark st ts scenario tid edge =
  match String.lowercase_ascii edge with
  | "start" ->
    if Hashtbl.mem st.open_marks (scenario, tid) then
      fail st.line "Mark Start for already-open instance %s/%d" scenario tid;
    Hashtbl.replace st.open_marks (scenario, tid) { scenario; itid = tid; t0 = ts }
  | "stop" -> (
    match Hashtbl.find_opt st.open_marks (scenario, tid) with
    | Some { scenario; itid; t0 } ->
      Hashtbl.remove st.open_marks (scenario, tid);
      if ts < t0 then fail st.line "Mark Stop before Start for %s/%d" scenario tid;
      st.instances <- { Scenario.scenario; tid = itid; t0; t1 = ts } :: st.instances
    | None -> fail st.line "Mark Stop without Start for %s/%d" scenario tid)
  | other -> fail st.line "unknown Mark edge %S" other

let parse_line st raw =
  let raw = String.trim raw in
  if raw = "" || raw.[0] = '#' then ()
  else
    let line = st.line in
    match split_fields line raw with
    | [ "SampledProfile"; ts; tid; stack ] ->
      on_sample st (int_field line "ts" ts) (int_field line "tid" tid)
        (stack_field stack)
    | [ "CSwitch"; ts; _new_tid; old_tid; old_state; stack ] ->
      on_cswitch st (int_field line "ts" ts)
        (int_field line "old_tid" old_tid)
        old_state (stack_field stack)
    | [ "ReadyThread"; ts; by; target; stack ] ->
      on_ready st (int_field line "ts" ts) (int_field line "by" by)
        (int_field line "target" target)
        (stack_field stack)
    | [ "DiskIo"; start; dur; name ] ->
      let dur = int_field line "dur" dur in
      if dur < 0 then fail line "negative DiskIo duration";
      on_diskio st (int_field line "start" start) dur name None
    | [ "DiskIo"; start; dur; name; tid ] ->
      let dur = int_field line "dur" dur in
      if dur < 0 then fail line "negative DiskIo duration";
      on_diskio st (int_field line "start" start) dur name
        (Some (int_field line "tid" tid))
    | [ "Mark"; ts; scenario; tid; edge ] ->
      on_mark st (int_field line "ts" ts) scenario (int_field line "tid" tid) edge
    | [ "Thread"; tid; name ] ->
      st.threads <- (int_field line "tid" tid, name) :: st.threads
    | kind :: _ -> fail line "unrecognised record %S" kind
    | [] -> ()

let stream_of_string ?(stream_id = 0) ?(sample_period = Dputil.Time.ms 1) text =
  let st =
    {
      line = 0;
      events = [];
      instances = [];
      threads = [];
      blocked = Hashtbl.create 32;
      running = Hashtbl.create 32;
      open_marks = Hashtbl.create 8;
      devices = Hashtbl.create 4;
      next_device_tid = 1_000_000;
      sample_period;
    }
  in
  List.iter
    (fun raw ->
      st.line <- st.line + 1;
      parse_line st raw)
    (String.split_on_char '\n' text);
  (* Flush coalesced runs; open waits and open marks are dropped as
     truncation artefacts. *)
  let tids = Hashtbl.fold (fun tid _ acc -> tid :: acc) st.running [] in
  List.iter (flush_running st) tids;
  Stream.create ~id:stream_id ~events:(Array.of_list (List.rev st.events))
    ~instances:(List.rev st.instances)
    ~threads:(List.rev st.threads)

let load ?stream_id ?sample_period path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      stream_of_string ?stream_id ?sample_period text)
