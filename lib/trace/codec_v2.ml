(* Framed, checksummed corpus format v2. See codec_v2.mli for the
   on-disk layout and the recovery contract. *)

open Wire

let magic = "DPTF\x02"
let marker = "\xf7DP\xf2"

(* Frames above this are rejected as framing damage rather than read: a
   corrupt length field must not make the reader swallow gigabytes. *)
let max_frame_len = 1 lsl 30

(* Telemetry. Byte/frame/stream counters feed `driveperf stats` and the
   convert progress line; the per-stream encode/decode spans land on the
   recording domain's tid, so a pooled (de)serialisation shows its fan-out
   in the Chrome trace. All behind [Dpobs.enable]'s switches. *)
let bytes_written_c = Dpobs.Metrics.lazy_counter "codec_v2.bytes_written"
let bytes_read_c = Dpobs.Metrics.lazy_counter "codec_v2.bytes_read"
let frames_written_c = Dpobs.Metrics.lazy_counter "codec_v2.frames_written"
let frames_read_c = Dpobs.Metrics.lazy_counter "codec_v2.frames_read"
let frames_dropped_c = Dpobs.Metrics.lazy_counter "codec_v2.frames_dropped"
let streams_written_c = Dpobs.Metrics.lazy_counter "codec_v2.streams_written"
let streams_read_c = Dpobs.Metrics.lazy_counter "codec_v2.streams_read"

type mode = [ `Strict | `Recover ]
type diagnostic = { frame : int; offset : int; reason : string }
type report = { frames : int; streams : int; dropped : diagnostic list }

let pp_diagnostic fmt d =
  Format.fprintf fmt "frame %d at byte %d: %s" d.frame d.offset d.reason

(* --- specs and stream bodies --- *)

let kind_code = function
  | Event.Running -> 0
  | Event.Wait -> 1
  | Event.Unwait -> 2
  | Event.Hw_service -> 3

let kind_of_code = function
  | 0 -> Event.Running
  | 1 -> Event.Wait
  | 2 -> Event.Unwait
  | 3 -> Event.Hw_service
  | c -> corrupt "unknown event kind code %d" c

let write_spec buf (s : Scenario.spec) =
  wstr buf s.name;
  wv buf s.tfast;
  wv buf s.tslow

let read_spec cur =
  let name = rstr cur in
  let tfast = rv cur in
  let tslow = rv cur in
  if not (0 < tfast && tfast <= tslow) then
    corrupt "invalid spec thresholds for %s" name;
  Scenario.spec ~name ~tfast ~tslow

let write_stream buf ~sig_index (st : Stream.t) =
  wv buf st.Stream.id;
  wv buf (List.length st.Stream.threads);
  List.iter
    (fun (tid, name) ->
      wv buf tid;
      wstr buf name)
    st.Stream.threads;
  wv buf (Array.length st.Stream.events);
  Array.iter
    (fun (e : Event.t) ->
      w8 buf (kind_code e.kind);
      wv buf e.tid;
      wv buf (e.wtid + 1);
      wv buf e.ts;
      wv buf e.cost;
      let frames = Callstack.frames e.stack in
      wv buf (Array.length frames);
      Array.iter (fun s -> wv buf (sig_index s)) frames)
    st.Stream.events;
  wv buf (List.length st.Stream.instances);
  List.iter
    (fun (i : Scenario.instance) ->
      wstr buf i.scenario;
      wv buf i.tid;
      wv buf i.t0;
      wv buf i.t1)
    st.Stream.instances

(* Step over one stack, checking its depth and every signature index
   against the frame's table of [nsigs]. *)
let skip_stack cur ~nsigs =
  let depth = rv cur in
  if depth > 0xffff then corrupt "implausible stack depth %d" depth;
  for _ = 1 to depth do
    let i = rv cur in
    if i >= nsigs then corrupt "signature index %d out of range" i
  done

(* Each domain's stacks so far, keyed by their frames' global signature
   ids as varints: a stack the domain has decoded before, in any stream,
   is found with no allocation, so each distinct stack is built once per
   domain. The frame-local indices are checked as they are read, with
   [skip_stack]'s checks and messages. *)
type stacks = { mutable ids : Bytes.t; seen : Callstack.t Dputil.Span_table.t }

let stack_tables =
  Domain.DLS.new_key (fun () -> { ids = Bytes.create 64; seen = Dputil.Span_table.create () })

let rec put_varint b pos v =
  if v < 0x80 then begin
    Bytes.set b pos (Char.chr v);
    pos + 1
  end
  else begin
    Bytes.set b pos (Char.chr (0x80 lor (v land 0x7f)));
    put_varint b (pos + 1) (v lsr 7)
  end

let read_stack cur ~stacks ~nsigs ~sigs =
  let depth = rv cur in
  if depth > 0xffff then corrupt "implausible stack depth %d" depth;
  if 9 * depth > Bytes.length stacks.ids then stacks.ids <- Bytes.create (9 * depth);
  let len = ref 0 in
  for _ = 1 to depth do
    let i = rv cur in
    if i >= nsigs then corrupt "signature index %d out of range" i;
    len := put_varint stacks.ids !len (Signature.to_int sigs.(i))
  done;
  let ids = Bytes.unsafe_to_string stacks.ids in
  match Dputil.Span_table.find stacks.seen ids 0 !len with
  | -1 ->
    let ids = cursor (String.sub ids 0 !len) in
    let stack = Callstack.init depth (fun _ -> Signature.of_int_unsafe (rv ids)) in
    Dputil.Span_table.add stacks.seen ids.data stack;
    stack
  | e -> Dputil.Span_table.get stacks.seen e

(* A signature name, interned from its bytes in the payload. *)
let read_sig cur =
  let len = rv cur in
  need cur len;
  let pos = cur.pos in
  cur.pos <- pos + len;
  Signature.of_span cur.data ~pos ~len

(* What a decoded event array holds until the parse overwrites it. *)
let no_event =
  {
    Event.id = 0;
    kind = Event.Running;
    stack = Callstack.of_list [];
    ts = 0;
    cost = 0;
    tid = 0;
    wtid = -1;
  }

(* The one stream-payload parser, with two consumers. With [build] it
   decodes the stream: it interns the signature table and builds every
   event (once, with its position as its id, in the stream order the
   writer stores, so [Stream.create] keeps the array as it is). Without
   [build] it only walks the events and thread names, and yields the
   stream's skeleton: no signature is interned and no event built. Both
   make the same checks, in the same order, with the same messages —
   element counts against the bytes left, varint overflow (via [rv]),
   kind codes, stack depths, signature indices, instances with t1 < t0
   and trailing bytes — so the walk refuses exactly the payloads the
   decode refuses, which is where the text reader would refuse the same
   stream. *)
let read_stream_payload ~build ~key payload =
  Dpobs.Span.with_span "codec_v2.decode_stream" @@ fun () ->
  let cur = cursor payload in
  let nsigs = rcount cur in
  let sigs =
    if build then Array.init nsigs (fun _ -> read_sig cur)
    else begin
      for _ = 1 to nsigs do
        skip_str cur
      done;
      [||]
    end
  in
  let id = rv cur in
  let nthreads = rcount cur in
  let threads =
    if build then
      List.init nthreads (fun _ ->
          let tid = rv cur in
          let name = rstr cur in
          (tid, name))
    else begin
      for _ = 1 to nthreads do
        ignore (rv cur : int);
        skip_str cur
      done;
      []
    end
  in
  let nevents = rcount cur in
  let stacks = Domain.DLS.get stack_tables in
  let events = if build then Array.make nevents no_event else [||] in
  for id = 0 to nevents - 1 do
    let kind = kind_of_code (r8 cur) in
    let tid = rv cur in
    let wtid = rv cur - 1 in
    let ts = rv cur in
    let cost = rv cur in
    if build then begin
      let stack = read_stack cur ~stacks ~nsigs ~sigs in
      events.(id) <- { Event.id; kind; stack; ts; cost; tid; wtid }
    end
    else skip_stack cur ~nsigs
  done;
  let instances =
    rlist cur (fun cur ->
        let scenario = rstr cur in
        let tid = rv cur in
        let t0 = rv cur in
        let t1 = rv cur in
        if t1 < t0 then corrupt "instance %s has t1 < t0" scenario;
        { Scenario.scenario; tid; t0; t1 })
  in
  if not (at_end cur) then corrupt "stream frame: trailing bytes";
  if Dpobs.metrics_on () then Dpobs.Metrics.incr (streams_read_c ());
  let st = Stream.create ~id ~events ~instances ~threads in
  (* The frame checksum was already verified by the reader; memoising it
     as the stream's content identity makes cache-keyed re-analysis free
     of re-encoding for loaded corpora. *)
  Stream.set_key_memo st key;
  st

(* --- frame payloads --- *)

let header_payload specs =
  let buf = Buffer.create 256 in
  wv buf (List.length specs);
  List.iter (write_spec buf) specs;
  Buffer.contents buf

let trailer_payload nstreams =
  let buf = Buffer.create 8 in
  wv buf nstreams;
  Buffer.contents buf

(* Payload body without telemetry: shared by the writer and by
   [stream_key], which re-encodes cache-less streams for their identity
   and must not count them as written. *)
let stream_payload_raw (st : Stream.t) =
  let buf = Buffer.create 4096 in
  (* Frame-local signature table, first-appearance order: every frame
     decodes on its own, so one corrupt frame cannot strand the table —
     hence the data — of any other. *)
  let sig_index : (Signature.t, int) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let nsigs = ref 0 in
  Array.iter
    (fun (e : Event.t) ->
      Array.iter
        (fun s ->
          if not (Hashtbl.mem sig_index s) then begin
            Hashtbl.replace sig_index s !nsigs;
            order := s :: !order;
            incr nsigs
          end)
        (Callstack.frames e.stack))
    st.Stream.events;
  wv buf !nsigs;
  List.iter (fun s -> wstr buf (Signature.name s)) (List.rev !order);
  write_stream buf ~sig_index:(fun s -> Hashtbl.find sig_index s) st;
  Buffer.contents buf

let stream_payload st =
  Dpobs.Span.with_span "codec_v2.encode_stream" @@ fun () ->
  let payload = stream_payload_raw st in
  if Dpobs.metrics_on () then
    Dpobs.Metrics.incr (streams_written_c ());
  payload

let decode_header payload =
  let cur = cursor payload in
  let specs = rlist cur read_spec in
  if not (at_end cur) then corrupt "header frame: trailing bytes";
  specs

let decode_trailer payload =
  let cur = cursor payload in
  let n = rv cur in
  if not (at_end cur) then corrupt "trailer frame: trailing bytes";
  n

(* --- frame envelope --- *)

let frame_crc kind payload =
  Dputil.Crc32.string ~crc:(Dputil.Crc32.string (String.make 1 kind)) payload

(* --- stream content identity ---

   A stream's key is the CRC-32 of its would-be 'S' frame plus the
   payload length — exactly what the frame envelope stores on disk, so a
   loaded stream's key (captured during decode, checksum pre-verified)
   and a generated stream's key (re-encoded here) agree whenever the
   content does. The payload is deterministic: the signature table is in
   first-appearance order, a pure function of the event array. *)

let key_of_crc crc ~len = Printf.sprintf "%08x-%d" (crc land 0xffffffff) len

let stream_key (st : Stream.t) =
  match Stream.key_memo st with
  | Some k -> k
  | None ->
    let payload = stream_payload_raw st in
    let k = key_of_crc (frame_crc 'S' payload) ~len:(String.length payload) in
    Stream.set_key_memo st k;
    k

let frame_string kind payload =
  let buf = Buffer.create (13 + String.length payload) in
  Buffer.add_string buf marker;
  Buffer.add_char buf kind;
  w32 buf (String.length payload);
  w32 buf (frame_crc kind payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

(* --- writer --- *)

let write_corpus ?pool oc (c : Corpus.t) =
  Dpobs.Span.with_span "codec_v2.encode" @@ fun () ->
  let put =
    if Dpobs.metrics_on () then (fun s ->
      Dpobs.Metrics.add (bytes_written_c ()) (String.length s);
      output_string oc s)
    else output_string oc
  in
  put magic;
  put (frame_string 'H' (header_payload c.Corpus.specs));
  let payloads =
    match pool with
    | Some pool when Dppar.Pool.size pool > 1 ->
      Dppar.Pool.parallel_map ~chunk:1 pool stream_payload c.Corpus.streams
    | _ -> List.map stream_payload c.Corpus.streams
  in
  List.iter (fun p -> put (frame_string 'S' p)) payloads;
  put (frame_string 'E' (trailer_payload (List.length c.Corpus.streams)));
  if Dpobs.metrics_on () then
    Dpobs.Metrics.add (frames_written_c ())
      (2 + List.length c.Corpus.streams)

let save ?pool path c = Dputil.Fs.write_file path (write_corpus ?pool) c

(* --- frame-level reader ---

   Walks the file frame by frame through a [Wire.window], verifying
   checksums, at an absolute offset [pos]. The window holds one frame
   (plus a refill chunk), and a frame's length is clamped to the bytes
   the file has left before the window grows for it: ingestion memory is
   bounded by the largest frame the file really holds. [f] sees only
   checksum-verified frames. In [`Recover] mode, framing damage and
   exceptions raised by [f] become diagnostics and the walk
   resynchronises on the next marker; in [`Strict] mode they raise.
   Returns (diagnostics in file order, frames seen, end offset). *)

let marker_at data i =
  data.[i] = marker.[0]
  && data.[i + 1] = marker.[1]
  && data.[i + 2] = marker.[2]
  && data.[i + 3] = marker.[3]

(* Whether a frame marker lies at or after [pos], and the offset of the
   first one, or where the scan stopped when the file ends first (its
   last 3 bytes, which could begin a marker). *)
let rec scan_to_marker w pos =
  let n = fill w pos 65536 in
  if n < 4 then (false, pos)
  else begin
    let cur = at w pos in
    let rec find i =
      if i > cur.pos + n - 4 then None
      else if marker_at cur.data i then Some i
      else find (i + 1)
    in
    match find cur.pos with
    | Some i -> (true, pos + i - cur.pos)
    | None when n < 65536 -> (false, pos + n - 3)
    | None -> scan_to_marker w (pos + n - 3)
  end

let iter_frames mode w ~f =
  let diags = ref [] in
  let diag ~frame ~offset fmt =
    Format.kasprintf
      (fun reason -> diags := { frame; offset; reason } :: !diags)
      fmt
  in
  let pos = ref 0 in
  (* Move to the next marker at or after [from]; false when none is left. *)
  let resync from =
    let found, p = scan_to_marker w from in
    pos := p;
    found
  in
  let magic_ok =
    let have = fill w 0 5 in
    let cur = at w 0 in
    let head = String.sub cur.data cur.pos have in
    if head = magic then begin
      pos := 5;
      true
    end
    else
      match mode with
      | `Strict ->
        if have < 5 then corrupt "not a v2 corpus: shorter than the magic"
        else corrupt "not a v2 corpus: bad magic %S" head
      | `Recover ->
        (* A flipped byte in the magic must not discard an otherwise
           intact file: diagnose and resynchronise on the first frame
           marker (the header frame sits right behind the magic). *)
        diag ~frame:0 ~offset:0 "bad file magic";
        resync 0
  in
  let idx = ref 0 in
  let continue = ref magic_ok in
  while !continue do
    let off = !pos in
    let have = fill w off 13 in
    let head = at w off in
    if have = 0 then continue := false (* clean EOF *)
    else if have < 13 then begin
      match mode with
      | `Strict -> corrupt "truncated frame header at byte %d" off
      | `Recover ->
        diag ~frame:!idx ~offset:off "truncated frame header (%d bytes)" have;
        pos := off + have;
        continue := false
    end
    else if not (marker_at head.data head.pos) then begin
      match mode with
      | `Strict -> corrupt "bad frame marker at byte %d" off
      | `Recover ->
        let resynced = resync (off + 1) in
        diag ~frame:!idx ~offset:off "skipped %d bytes of garbage" (!pos - off);
        if not resynced then continue := false
    end
    else begin
      head.pos <- head.pos + 4;
      let kind = Char.chr (r8 head) in
      let len = r32 head in
      let stored = r32 head in
      if not (kind = 'H' || kind = 'S' || kind = 'E') then begin
        match mode with
        | `Strict -> corrupt "unknown frame kind %C at byte %d" kind off
        | `Recover ->
          diag ~frame:!idx ~offset:off "unknown frame kind %C" kind;
          if not (resync (off + 4)) then continue := false
      end
      else if len > max_frame_len then begin
        match mode with
        | `Strict -> corrupt "implausible frame length %d at byte %d" len off
        | `Recover ->
          diag ~frame:!idx ~offset:off "implausible frame length %d" len;
          if not (resync (off + 4)) then continue := false
      end
      else begin
        let start = off + 13 in
        let have = fill w start len in
        if have < len then begin
          match mode with
          | `Strict ->
            corrupt "frame %d at byte %d: truncated payload (need %d, have %d)"
              !idx off len have
          | `Recover ->
            diag ~frame:!idx ~offset:off "truncated payload (need %d, have %d)"
              len have;
            pos := start + have;
            continue := false
        end
        else begin
          let body = at w start in
          let crc = Wire.crc ~crc:(Dputil.Crc32.string (String.make 1 kind)) body len in
          if crc <> stored then begin
            let frame = !idx in
            incr idx;
            match mode with
            | `Strict -> corrupt "frame %d at byte %d: checksum mismatch" frame off
            | `Recover ->
              diag ~frame ~offset:off "checksum mismatch";
              (* Rescan from the payload start: if the length field was
                 the corrupt part, the next real frame may begin inside
                 what it claimed as payload. *)
              if not (resync start) then continue := false
          end
          else begin
            let payload = String.sub body.data body.pos len in
            pos := start + len;
            let frame = !idx in
            incr idx;
            match f ~frame ~offset:off ~crc kind payload with
            | () -> ()
            | exception Corrupt m ->
              (match mode with
              | `Strict -> raise (Corrupt m)
              | `Recover -> diag ~frame ~offset:off "%s" m)
          end
        end
      end
    end
  done;
  if Dpobs.metrics_on () then begin
    Dpobs.Metrics.add (bytes_read_c ()) !pos;
    Dpobs.Metrics.add (frames_read_c ()) !idx
  end;
  (List.rev !diags, !idx, !pos)

(* Trailer accounting: a strict load must end on a trailer whose count
   matches; a recovering one records the mismatch as a diagnostic. *)
let check_trailer mode ~declared ~loaded ~frames ~end_off diags =
  match (mode, declared) with
  | `Strict, None ->
    corrupt "missing end-of-corpus trailer (truncated at a frame boundary?)"
  | `Strict, Some n ->
    if n <> loaded then
      corrupt "trailer declares %d stream frames, loaded %d" n loaded;
    diags
  | `Recover, None ->
    diags
    @ [ { frame = frames; offset = end_off; reason = "missing end-of-corpus trailer" } ]
  | `Recover, Some n when n <> loaded ->
    diags
    @ [
        {
          frame = frames;
          offset = end_off;
          reason =
            Printf.sprintf "trailer declares %d stream frames, %d loaded" n
              loaded;
        };
      ]
  | `Recover, Some _ -> diags

(* A checksum collision must never leak invalid data into the analysis:
   recovered streams additionally have to pass Validate.check. *)
let checked_stream mode st =
  match mode with
  | `Strict -> st
  | `Recover -> (
    match Validate.check st with
    | [] -> st
    | v :: _ ->
      corrupt "decoded stream %d fails validation: %a" st.Stream.id
        (fun fmt v -> Validate.pp_violation fmt v)
        v)

(* --- the stream a fold hands to its step ---

   A stream frame's key is known from its envelope before its payload is
   parsed, so a step that needs only the key and the skeleton (a cache
   hit) never has the events built. A payload's damage surfaces as
   [Bad_payload] from [frame_stream]/[frame_skeleton], which the fold
   turns into the frame's diagnostic; the step's own exceptions pass
   through. *)

type payload = { mode : mode; key : string; payload : string }
type frame = Payload of payload | Resident of Stream.t

exception Bad_payload of string

let resident st = Resident st

let frame_key = function
  | Payload p -> p.key
  | Resident st -> stream_key st

let parse ~build p =
  try
    let st = read_stream_payload ~build ~key:p.key p.payload in
    if build then checked_stream p.mode st else st
  with Corrupt m -> raise (Bad_payload m)

let frame_stream = function
  | Payload p -> parse ~build:true p
  | Resident st -> st

(* Under [`Recover] a skeleton is taken from the validated stream, so a
   stream that decodes but fails [Validate.check] is dropped the same
   whether or not its events are wanted. Under [`Strict] a skeleton
   [known] by the frame's key is taken as it is, and counted read. *)
let frame_skeleton ?known = function
  | Payload ({ mode = `Strict; _ } as p) -> (
    match known with
    | None -> parse ~build:false p
    | Some known ->
      let id, instances = known () in
      if Dpobs.metrics_on () then Dpobs.Metrics.incr (streams_read_c ());
      let st = Stream.create ~id ~events:[||] ~instances ~threads:[] in
      Stream.set_key_memo st p.key;
      st)
  | Payload ({ mode = `Recover; _ } as p) -> Stream.skeleton (parse ~build:true p)
  | Resident st -> Stream.skeleton st

(* The one decode loop. Frames are checksum-verified in file order
   (cheap); each stream frame is handed to the step, which parses its
   payload as far as it needs, on the pool through the in-order window
   ([Dppar.Pool.iter_window]), and each result is consumed on the
   calling domain in file order. The window bounds the payloads, streams
   and results held at once, and every pool size yields the same
   results in the same order. The header must be frame 0, so every
   stream is stepped under the specs the corpus ends up with. *)
let fold ?(mode = `Strict) ?pool ~step ~consume path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let read pos buf off len =
    seek_in ic pos;
    input ic buf off len
  in
  let w = window ~size:(in_channel_length ic) read in
  Dpobs.Span.with_span "codec_v2.decode" @@ fun () ->
  let specs = ref [] and declared = ref None in
  let kept = ref [] and delivered = ref 0 and late = ref [] in
  let decode (specs, frame, off, crc, payload) =
    let key = key_of_crc crc ~len:(String.length payload) in
    match step specs (Payload { mode; key; payload }) with
    | x -> Ok x
    | exception Bad_payload m -> (
      match mode with
      | `Strict -> corrupt "frame %d at byte %d: %s" frame off m
      | `Recover -> Error { frame; offset = off; reason = m })
  in
  let deliver = function
    | Ok x ->
      incr delivered;
      Option.iter (fun st -> kept := st :: !kept) (consume x)
    | Error d -> late := d :: !late
  in
  let framed = ref ([], 0, 0) in
  Dppar.Pool.iter_window ?pool decode deliver (fun push ->
      framed :=
        iter_frames mode w ~f:(fun ~frame ~offset ~crc kind payload ->
            match kind with
            | 'H' when frame = 0 -> specs := decode_header payload
            | 'H' ->
              corrupt "late header frame %d (the header must be frame 0)" frame
            | 'E' -> declared := Some (decode_trailer payload)
            | _ -> push (!specs, frame, offset, crc, payload)));
  let diags, frames, end_off = !framed in
  let diags =
    List.sort
      (fun a b -> compare (a.offset, a.frame) (b.offset, b.frame))
      (diags @ List.rev !late)
  in
  let diags =
    check_trailer mode ~declared:!declared ~loaded:!delivered ~frames ~end_off
      diags
  in
  if Dpobs.metrics_on () then
    Dpobs.Metrics.add (frames_dropped_c ()) (List.length diags);
  ( Corpus.create ~streams:(List.rev !kept) ~specs:!specs,
    { frames; streams = !delivered; dropped = diags } )
