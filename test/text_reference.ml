(* The list-splitting text parsers, kept as the test oracle for the
   in-place tokenizer [Dptrace.Fields]: [Codec.read] for [.dpt] corpora
   and the ETW importer as they were when each split every line into a
   [string list] (and the importer read its dump whole). Both raise
   [Fields.Parse_error], so a test compares their (line, message) with
   the program's. *)

open Dptrace

let fail = Fields.fail

module Codec = struct
  let magic = "dptrace"
  let version = 1

  type parser_state = {
    mutable line : int;
    mutable specs : Scenario.spec list;
    mutable started : bool;  (* a [stream] line was seen: no more specs *)
    push : Scenario.spec list -> Stream.t -> unit;
    (* Current stream under construction, if any. *)
    mutable cur_id : int option;
    mutable cur_events : Event.t list;
    mutable cur_count : int;  (* length of [cur_events] *)
    mutable cur_instances : Scenario.instance list;
    mutable cur_threads : (int * string) list;
  }

  let int_field st what s =
    match int_of_string_opt s with
    | Some v -> v
    | None -> fail st.line "invalid %s: %S" what s

  let parse_stack s =
    if s = "-" then Callstack.of_list []
    else Callstack.of_list (List.map Signature.of_string (String.split_on_char ';' s))

  let finish_stream st =
    match st.cur_id with
    | None -> ()
    | Some id ->
      let stream =
        Stream.create ~id
          ~events:(Array.of_list (List.rev st.cur_events))
          ~instances:(List.rev st.cur_instances)
          ~threads:(List.rev st.cur_threads)
      in
      st.cur_id <- None;
      st.cur_events <- [];
      st.cur_count <- 0;
      st.cur_instances <- [];
      st.cur_threads <- [];
      st.push st.specs stream

  let in_stream st =
    match st.cur_id with
    | Some _ -> ()
    | None -> fail st.line "directive outside of a stream block"

  let parse_line st raw =
    let words =
      String.split_on_char ' ' (String.trim raw) |> List.filter (fun w -> w <> "")
    in
    match words with
    | [] -> ()
    | "spec" :: [ name; tfast; tslow ] ->
      if st.started then fail st.line "spec %s after the first stream" name;
      let tfast = int_field st "tfast" tfast and tslow = int_field st "tslow" tslow in
      if not (0 < tfast && tfast <= tslow) then
        fail st.line "spec %s: need 0 < tfast <= tslow" name;
      st.specs <- st.specs @ [ Scenario.spec ~name ~tfast ~tslow ]
    | "stream" :: [ id ] ->
      if st.cur_id <> None then fail st.line "nested stream block";
      st.started <- true;
      st.cur_id <- Some (int_field st "stream id" id)
    | "thread" :: [ tid; name ] ->
      in_stream st;
      st.cur_threads <- (int_field st "tid" tid, name) :: st.cur_threads
    | "event" :: [ kind; tid; ts; cost; wtid; frames ] ->
      in_stream st;
      let kind =
        match Event.kind_of_string kind with
        | Some k -> k
        | None -> fail st.line "unknown event kind %S" kind
      in
      (* The writer prints events in stream order: with its position as its
         id, each event is kept as built by [Stream.create]. *)
      let e : Event.t =
        {
          id = st.cur_count;
          kind;
          stack = parse_stack frames;
          ts = int_field st "ts" ts;
          cost = int_field st "cost" cost;
          tid = int_field st "tid" tid;
          wtid = int_field st "wtid" wtid;
        }
      in
      if e.cost < 0 then fail st.line "negative cost";
      st.cur_events <- e :: st.cur_events;
      st.cur_count <- st.cur_count + 1
    | "instance" :: [ scenario; tid; t0; t1 ] ->
      in_stream st;
      let t0 = int_field st "t0" t0 and t1 = int_field st "t1" t1 in
      if t1 < t0 then fail st.line "instance with t1 < t0";
      st.cur_instances <-
        { Scenario.scenario; tid = int_field st "tid" tid; t0; t1 }
        :: st.cur_instances
    | [ "end" ] ->
      in_stream st;
      finish_stream st
    | word :: _ -> fail st.line "unrecognised directive %S" word

  let read path push =
    In_channel.with_open_bin path @@ fun ic ->
    let next_line () = In_channel.input_line ic in
    let st =
      {
        line = 0;
        specs = [];
        started = false;
        push;
        cur_id = None;
        cur_events = [];
        cur_count = 0;
        cur_instances = [];
        cur_threads = [];
      }
    in
    (* Header. *)
    (match next_line () with
    | None -> fail 1 "empty input"
    | Some header ->
      st.line <- 1;
      (match String.split_on_char ' ' (String.trim header) with
      | [ m; v ] when m = magic ->
        let v = int_field st "version" v in
        if v <> version then fail st.line "unsupported version %d" v
      | _ ->
        (* Quote a bounded prefix: a binary or newline-free file would
           otherwise be echoed whole as its own "first line". *)
        let n = min (String.length header) 32 in
        fail st.line "bad header %S%s" (String.sub header 0 n)
          (if n < String.length header then "..." else "")));
    let rec loop () =
      match next_line () with
      | None -> ()
      | Some raw ->
        st.line <- st.line + 1;
        parse_line st raw;
        loop ()
    in
    loop ();
    if st.cur_id <> None then fail st.line "unterminated stream block";
    st.specs
end

module Etw = struct
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
    else Callstack.of_list (List.map Signature.of_string (String.split_on_char ';' s))

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

  let stream_of_string ?(stream_id = 0) text =
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
        sample_period = Dputil.Time.ms 1;
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

  let load ?stream_id path =
    stream_of_string ?stream_id (In_channel.with_open_bin path In_channel.input_all)
end
