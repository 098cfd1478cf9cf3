exception Parse_error of { line : int; message : string }

let fail line fmt =
  Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

let magic = "dptrace"
let version = 1

(* The format is whitespace-delimited: names with blanks would corrupt it
   silently on the way back in. Fail loudly on the way out instead. *)
let check_token what s =
  if s = "" || String.exists (fun c -> c = ' ' || c = '\t' || c = '\n' || c = ';') s
  then invalid_arg (Printf.sprintf "Codec: %s %S is not encodable" what s)

(* --- Writing --- *)

let buf_event buf (e : Event.t) =
  let frames =
    Callstack.frames e.stack |> Array.to_list
    |> List.map (fun s ->
           let name = Signature.name s in
           (* A signature with a blank would fail to parse on reload; one
              with ';' would silently split into two frames. *)
           check_token "frame signature" name;
           name)
    |> String.concat ";"
  in
  let frames = if frames = "" then "-" else frames in
  Printf.bprintf buf "event %s %d %d %d %d %s\n"
    (Event.kind_to_string e.kind)
    e.tid e.ts e.cost e.wtid frames

let buf_stream buf (st : Stream.t) =
  Printf.bprintf buf "stream %d\n" st.Stream.id;
  List.iter
    (fun (tid, name) ->
      check_token "thread name" name;
      Printf.bprintf buf "thread %d %s\n" tid name)
    st.Stream.threads;
  Array.iter (buf_event buf) st.Stream.events;
  List.iter
    (fun (i : Scenario.instance) ->
      check_token "scenario name" i.scenario;
      Printf.bprintf buf "instance %s %d %d %d\n" i.scenario i.tid i.t0 i.t1)
    st.Stream.instances;
  Buffer.add_string buf "end\n"

let corpus_to_string (c : Corpus.t) =
  let buf = Buffer.create 65536 in
  Printf.bprintf buf "%s %d\n" magic version;
  List.iter
    (fun (s : Scenario.spec) ->
      check_token "spec name" s.name;
      Printf.bprintf buf "spec %s %d %d\n" s.name s.tfast s.tslow)
    c.specs;
  List.iter (buf_stream buf) c.streams;
  Buffer.contents buf

(* --- Reading: one stream at a time, pushed at its [end] line --- *)

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

(* Each domain's stacks so far, keyed on their raw frames token: a
   repeated stack, in any stream, is one lookup that allocates nothing
   and interns none of its signatures again. *)
let stacks = Domain.DLS.new_key Dputil.Span_table.create

let parse_stack s =
  let seen = Domain.DLS.get stacks in
  match Dputil.Span_table.find seen s 0 (String.length s) with
  | -1 ->
    let stack =
      if s = "-" then Callstack.of_list []
      else Callstack.of_strings (String.split_on_char ';' s)
    in
    Dputil.Span_table.add seen s stack;
    stack
  | e -> Dputil.Span_table.get seen e

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

(* Binary mode both ways: text-mode channels translate line endings on
   some platforms, breaking byte-exact round-trips (and checksums taken
   over the file). The format itself is plain "\n"-separated text. *)
let save path c =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (corpus_to_string c))

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
