let magic = "dptrace"
let version = 1

(* The format is whitespace-delimited: names with blanks would corrupt it
   silently on the way back in. Fail loudly on the way out instead. *)
let check_token what s =
  if s = "" || String.exists (fun c -> c = ' ' || c = '\t' || c = '\n' || c = ';') s
  then invalid_arg (Printf.sprintf "Codec: %s %S is not encodable" what s)

(* --- Writing --- *)

(* Every name is checked before a byte is written: a frame signature
   with a blank would fail to parse on reload, one with ';' would
   silently split into two frames. Each distinct signature is checked
   once. *)
let check_corpus (c : Corpus.t) =
  List.iter (fun (s : Scenario.spec) -> check_token "spec name" s.name) c.specs;
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun (st : Stream.t) ->
      List.iter (fun (_, name) -> check_token "thread name" name) st.Stream.threads;
      Array.iter
        (fun (e : Event.t) ->
          Array.iter
            (fun s ->
              if not (Hashtbl.mem seen s) then begin
                check_token "frame signature" (Signature.name s);
                Hashtbl.add seen s ()
              end)
            (Callstack.frames e.stack))
        st.Stream.events;
      List.iter
        (fun (i : Scenario.instance) -> check_token "scenario name" i.scenario)
        st.Stream.instances)
    c.streams

let buf_event buf (e : Event.t) =
  Printf.bprintf buf "event %s %d %d %d %d " (Event.kind_to_string e.kind) e.tid e.ts e.cost
    e.wtid;
  let frames = Callstack.frames e.stack in
  if Array.length frames = 0 then Buffer.add_char buf '-'
  else
    Array.iteri
      (fun i s ->
        if i > 0 then Buffer.add_char buf ';';
        Buffer.add_string buf (Signature.name s))
      frames;
  Buffer.add_char buf '\n'

let buf_stream buf (st : Stream.t) =
  Printf.bprintf buf "stream %d\n" st.Stream.id;
  List.iter (fun (tid, name) -> Printf.bprintf buf "thread %d %s\n" tid name) st.Stream.threads;
  Array.iter (buf_event buf) st.Stream.events;
  List.iter
    (fun (i : Scenario.instance) ->
      Printf.bprintf buf "instance %s %d %d %d\n" i.scenario i.tid i.t0 i.t1)
    st.Stream.instances;
  Buffer.add_string buf "end\n"

(* The checked corpus written to [oc] a stream at a time, through one
   buffer: the header and specs, then each stream. *)
let write_corpus oc (c : Corpus.t) =
  let buf = Buffer.create 65536 in
  Printf.bprintf buf "%s %d\n" magic version;
  List.iter
    (fun (s : Scenario.spec) -> Printf.bprintf buf "spec %s %d %d\n" s.name s.tfast s.tslow)
    c.specs;
  Buffer.output_buffer oc buf;
  List.iter
    (fun st ->
      Buffer.clear buf;
      buf_stream buf st;
      Buffer.output_buffer oc buf)
    c.streams

(* --- Reading: one stream at a time, pushed at its [end] line --- *)

(* The header is exactly [magic], one space and the version. *)
let header f =
  match String.split_on_char ' ' (String.trim (Fields.text f)) with
  | [ m; _ ] when m = magic ->
    let v = Fields.int f "version" 1 in
    if v <> version then Fields.fail 1 "unsupported version %d" v
  | _ ->
    (* Quote a bounded prefix: a binary or newline-free file would
       otherwise be echoed whole as its own "first line". *)
    let h = Fields.text f in
    let n = min (String.length h) 32 in
    Fields.fail 1 "bad header %S%s" (String.sub h 0 n)
      (if n < String.length h then "..." else "")

(* Binary mode both ways: text-mode channels translate line endings on
   some platforms, breaking byte-exact round-trips (and checksums taken
   over the file). The format itself is plain "\n"-separated text. Each
   stream goes to the file as it is formatted, after the whole corpus is
   checked, so a corpus that cannot be written leaves no file. *)
let save path c =
  check_corpus c;
  Dputil.Fs.write_file path write_corpus c

(* Fields are read in test/text_reference.ml's order, so a line with two
   bad fields fails on the same one. *)
let read path push =
  (* [started]: a [stream] line was seen, so no more specs. The stream
     being read: its id, events (and their count), instances, threads. *)
  let specs = ref [] and started = ref false in
  let id = ref None and events = ref [] and count = ref 0 in
  let instances = ref [] and threads = ref [] in
  let in_stream line = if !id = None then Fields.fail line "directive outside of a stream block" in
  let parse line f =
    match Fields.count f with
    | _ when line = 1 -> header f
    | 0 -> ()
    | 4 when Fields.is f 0 "spec" ->
      let name = Fields.get f 1 in
      if !started then Fields.fail line "spec %s after the first stream" name;
      let tfast = Fields.int f "tfast" 2 in
      let tslow = Fields.int f "tslow" 3 in
      if not (0 < tfast && tfast <= tslow) then
        Fields.fail line "spec %s: need 0 < tfast <= tslow" name;
      specs := !specs @ [ Scenario.spec ~name ~tfast ~tslow ]
    | 2 when Fields.is f 0 "stream" ->
      if !id <> None then Fields.fail line "nested stream block";
      started := true;
      id := Some (Fields.int f "stream id" 1)
    | 3 when Fields.is f 0 "thread" ->
      in_stream line;
      threads := (Fields.int f "tid" 1, Fields.get f 2) :: !threads
    | 7 when Fields.is f 0 "event" ->
      in_stream line;
      let kind =
        match Event.kind_of_string (Fields.get f 1) with
        | Some k -> k
        | None -> Fields.fail line "unknown event kind %S" (Fields.get f 1)
      in
      let wtid = Fields.int f "wtid" 5 in
      let tid = Fields.int f "tid" 2 in
      let cost = Fields.int f "cost" 4 in
      let ts = Fields.int f "ts" 3 in
      let stack = Fields.stack f ~empty:"-" 6 in
      if cost < 0 then Fields.fail line "negative cost";
      (* The writer prints events in stream order: with its position as
         its id, each event is kept as built by [Stream.create]. *)
      events := { Event.id = !count; kind; stack; ts; cost; tid; wtid } :: !events;
      incr count
    | 5 when Fields.is f 0 "instance" ->
      in_stream line;
      let t0 = Fields.int f "t0" 3 in
      let t1 = Fields.int f "t1" 4 in
      if t1 < t0 then Fields.fail line "instance with t1 < t0";
      let tid = Fields.int f "tid" 2 in
      instances := { Scenario.scenario = Fields.get f 1; tid; t0; t1 } :: !instances
    | 1 when Fields.is f 0 "end" ->
      in_stream line;
      let st =
        Stream.create ~id:(Option.get !id) ~events:(Array.of_list (List.rev !events))
          ~instances:(List.rev !instances) ~threads:(List.rev !threads)
      in
      id := None; events := []; count := 0; instances := []; threads := [];
      push !specs st
    | _ -> Fields.fail line "unrecognised directive %S" (Fields.get f 0)
  in
  match Fields.read path Fields.words parse with
  | 0 -> Fields.fail 1 "empty input"
  | lines ->
    if !id <> None then Fields.fail lines "unterminated stream block";
    !specs
