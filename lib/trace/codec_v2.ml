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
   in the Chrome trace. All behind [Dpobs.metrics_on]/[spans_on]. *)
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

(* A stack's bytes identify it within its frame (signature indices are
   frame-local), so they are its key in the stream's [stacks] table: the
   stack is skipped once to find them, and decoded only on its first
   sighting. *)
let read_stack cur ~stacks ~sig_of =
  let start = cur.pos in
  let depth = rv cur in
  if depth > 0xffff then corrupt "implausible stack depth %d" depth;
  for _ = 1 to depth do
    ignore (rv cur)
  done;
  let key = String.sub cur.data start (cur.pos - start) in
  Callstack.shared stacks key (fun () ->
      let cur = cursor key in
      let depth = rv cur in
      Callstack.of_list (List.init depth (fun _ -> sig_of (rv cur))))

(* Validation parity with the text reader: unknown kinds, implausible
   stack depths, out-of-range signature indices (via [sig_of]) and
   instances with t1 < t0 are refused, and [rv] refuses any negative
   ts/cost/tid. The writer stores events in stream order, so each event
   is built once, with its position as its id, and [Stream.create] keeps
   the array as it is. *)
let read_stream cur ~sig_of =
  let id = rv cur in
  let threads =
    rlist cur (fun cur ->
        let tid = rv cur in
        let name = rstr cur in
        (tid, name))
  in
  let stacks = Callstack.table () in
  let events =
    Array.init (rcount cur) (fun id ->
        let kind = kind_of_code (r8 cur) in
        let tid = rv cur in
        let wtid = rv cur - 1 in
        let ts = rv cur in
        let cost = rv cur in
        let stack = read_stack cur ~stacks ~sig_of in
        { Event.id; kind; stack; ts; cost; tid; wtid })
  in
  let instances =
    rlist cur (fun cur ->
        let scenario = rstr cur in
        let tid = rv cur in
        let t0 = rv cur in
        let t1 = rv cur in
        if t1 < t0 then corrupt "instance %s has t1 < t0" scenario;
        { Scenario.scenario; tid; t0; t1 })
  in
  Stream.create ~id ~events ~instances ~threads

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
  let buf = Buffer.create 65536 in
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

let decode_stream_payload ?key payload =
  Dpobs.Span.with_span "codec_v2.decode_stream" @@ fun () ->
  let cur = cursor payload in
  let sigs =
    Array.of_list (rlist cur (fun c -> Signature.of_string (rstr c)))
  in
  let sig_of i =
    if i < 0 || i >= Array.length sigs then
      corrupt "signature index %d out of range" i
    else sigs.(i)
  in
  let st = read_stream cur ~sig_of in
  if not (at_end cur) then corrupt "stream frame: trailing bytes";
  if Dpobs.metrics_on () then Dpobs.Metrics.incr (streams_read_c ());
  (* The frame checksum was already verified by the reader; memoising it
     as the stream's content identity makes cache-keyed re-analysis free
     of re-encoding for loaded corpora. *)
  (match key with Some k -> Stream.set_key_memo st k | None -> ());
  st

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

let emit ?pool put (c : Corpus.t) =
  Dpobs.Span.with_span "codec_v2.encode" @@ fun () ->
  let put =
    if Dpobs.metrics_on () then (fun s ->
      Dpobs.Metrics.add (bytes_written_c ()) (String.length s);
      put s)
    else put
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

let encode ?pool c =
  let buf = Buffer.create 65536 in
  emit ?pool (Buffer.add_string buf) c;
  Buffer.contents buf

let save ?pool path c =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> emit ?pool (output_string oc) c)

(* --- buffered source: a channel or a string, with bounded lookahead ---

   The reader never materialises more than one frame (plus a refill
   chunk): ingestion memory is bounded by the largest single frame, not
   by the corpus. *)

type src = {
  refill : Bytes.t -> int -> int -> int;
  mutable buf : Bytes.t;
  mutable pos : int;  (* next unread byte in [buf] *)
  mutable lim : int;  (* end of valid data in [buf] *)
  mutable base : int;  (* absolute file offset of [buf.[0]] *)
  mutable eof : bool;
}

let src_of_channel ic =
  {
    refill = input ic;
    buf = Bytes.create 65536;
    pos = 0;
    lim = 0;
    base = 0;
    eof = false;
  }

let src_of_string s =
  {
    refill = (fun _ _ _ -> 0);
    buf = Bytes.of_string s;
    pos = 0;
    lim = String.length s;
    base = 0;
    eof = true;
  }

let available src = src.lim - src.pos
let offset src = src.base + src.pos

let compact src =
  if src.pos > 0 then begin
    let n = available src in
    Bytes.blit src.buf src.pos src.buf 0 n;
    src.base <- src.base + src.pos;
    src.pos <- 0;
    src.lim <- n
  end

(* Make [n] bytes available at the head if the input has them; returns
   the available count, < [n] only at end of input. *)
let fill src n =
  if available src < n then begin
    compact src;
    if n > Bytes.length src.buf then begin
      let fresh = Bytes.create (max n (2 * Bytes.length src.buf)) in
      Bytes.blit src.buf 0 fresh 0 src.lim;
      src.buf <- fresh
    end;
    while (not src.eof) && src.lim < n do
      let k = src.refill src.buf src.lim (Bytes.length src.buf - src.lim) in
      if k = 0 then src.eof <- true else src.lim <- src.lim + k
    done
  end;
  available src

let head_matches_marker src =
  (* caller has filled >= 4 *)
  Bytes.get src.buf src.pos = marker.[0]
  && Bytes.get src.buf (src.pos + 1) = marker.[1]
  && Bytes.get src.buf (src.pos + 2) = marker.[2]
  && Bytes.get src.buf (src.pos + 3) = marker.[3]

(* Advance to the next occurrence of the frame marker (possibly the
   current head); false when the input ends first. *)
let scan_to_marker src =
  let continue = ref true and found = ref false in
  while !continue do
    if fill src 4 < 4 then continue := false
    else begin
      let i = ref src.pos in
      let limit = src.lim - 4 in
      while (not !found) && !i <= limit do
        if
          Bytes.get src.buf !i = marker.[0]
          && Bytes.get src.buf (!i + 1) = marker.[1]
          && Bytes.get src.buf (!i + 2) = marker.[2]
          && Bytes.get src.buf (!i + 3) = marker.[3]
        then found := true
        else incr i
      done;
      if !found then begin
        src.pos <- !i;
        continue := false
      end
      else begin
        (* Keep the last 3 bytes: the marker may straddle the refill. *)
        src.pos <- src.lim - 3;
        if src.eof then continue := false
        else ignore (fill src (available src + 1))
      end
    end
  done;
  !found

(* --- frame-level reader ---

   Walks the file frame by frame, verifying checksums. [f] sees only
   checksum-verified frames. In [`Recover] mode, framing damage and
   exceptions raised by [f] become diagnostics and the walk
   resynchronises on the next marker; in [`Strict] mode they raise.
   Returns (diagnostics in file order, frames seen, end offset). *)

let iter_frames mode src ~f =
  let diags = ref [] in
  let diag ~frame ~offset fmt =
    Format.kasprintf
      (fun reason -> diags := { frame; offset; reason } :: !diags)
      fmt
  in
  let magic_ok =
    let have = fill src 5 in
    if have >= 5 && Bytes.sub_string src.buf src.pos 5 = magic then begin
      src.pos <- src.pos + 5;
      true
    end
    else
      match mode with
      | `Strict ->
        if have < 5 then corrupt "not a v2 corpus: shorter than the magic"
        else
          corrupt "not a v2 corpus: bad magic %S"
            (Bytes.sub_string src.buf src.pos 5)
      | `Recover ->
        (* A flipped byte in the magic must not discard an otherwise
           intact file: diagnose and resynchronise on the first frame
           marker (the header frame sits right behind the magic). *)
        diag ~frame:0 ~offset:0 "bad file magic";
        scan_to_marker src
  in
  let idx = ref 0 in
  let continue = ref magic_ok in
  while !continue do
    if fill src 1 = 0 then continue := false (* clean EOF *)
    else begin
      let off = offset src in
      let have = fill src 13 in
      if have < 13 then begin
        match mode with
        | `Strict -> corrupt "truncated frame header at byte %d" off
        | `Recover ->
          diag ~frame:!idx ~offset:off "truncated frame header (%d bytes)" have;
          src.pos <- src.lim;
          continue := false
      end
      else if not (head_matches_marker src) then begin
        match mode with
        | `Strict -> corrupt "bad frame marker at byte %d" off
        | `Recover ->
          src.pos <- src.pos + 1;
          let resynced = scan_to_marker src in
          diag ~frame:!idx ~offset:off "skipped %d bytes of garbage"
            (offset src - off);
          if not resynced then continue := false
      end
      else begin
        let head = cursor (Bytes.sub_string src.buf (src.pos + 4) 9) in
        let kind = Char.chr (r8 head) in
        let len = r32 head in
        let stored = r32 head in
        if not (kind = 'H' || kind = 'S' || kind = 'E') then begin
          match mode with
          | `Strict -> corrupt "unknown frame kind %C at byte %d" kind off
          | `Recover ->
            diag ~frame:!idx ~offset:off "unknown frame kind %C" kind;
            src.pos <- src.pos + 4;
            if not (scan_to_marker src) then continue := false
        end
        else if len > max_frame_len then begin
          match mode with
          | `Strict -> corrupt "implausible frame length %d at byte %d" len off
          | `Recover ->
            diag ~frame:!idx ~offset:off "implausible frame length %d" len;
            src.pos <- src.pos + 4;
            if not (scan_to_marker src) then continue := false
        end
        else begin
          src.pos <- src.pos + 13;
          if fill src len < len then begin
            match mode with
            | `Strict ->
              corrupt "frame %d at byte %d: truncated payload (need %d, have %d)"
                !idx off len (available src)
            | `Recover ->
              diag ~frame:!idx ~offset:off "truncated payload (need %d, have %d)"
                len (available src);
              src.pos <- src.lim;
              continue := false
          end
          else begin
            let crc =
              Dputil.Crc32.bytes_sub
                ~crc:(Dputil.Crc32.string (String.make 1 kind))
                src.buf ~pos:src.pos ~len
            in
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
                if not (scan_to_marker src) then continue := false
            end
            else begin
              let payload = Bytes.sub_string src.buf src.pos len in
              src.pos <- src.pos + len;
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
    end
  done;
  if Dpobs.metrics_on () then begin
    Dpobs.Metrics.add (bytes_read_c ()) (offset src);
    Dpobs.Metrics.add (frames_read_c ()) !idx
  end;
  (List.rev !diags, !idx, offset src)

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

(* The one decode loop. Frames are checksum-verified in file order
   (cheap); stream payloads are decoded, then stepped, in batches on the
   pool ([Dppar.Pool.iter_batched]), and each result is consumed on the
   calling domain in file order. The batch bounds the payloads, streams
   and results held at once, and every pool size yields the same
   results in the same order. The header must be frame 0, so every
   stream is stepped under the specs the corpus ends up with. *)
let fold_src mode pool src ~step ~consume =
  Dpobs.Span.with_span "codec_v2.decode" @@ fun () ->
  let specs = ref [] and declared = ref None in
  let kept = ref [] and delivered = ref 0 and late = ref [] in
  let decode (specs, frame, off, crc, payload) =
    let key = key_of_crc crc ~len:(String.length payload) in
    match checked_stream mode (decode_stream_payload ~key payload) with
    | st -> Ok (step specs st)
    | exception Corrupt m -> (
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
  Dppar.Pool.iter_batched ?pool decode deliver (fun push ->
      framed :=
        iter_frames mode src ~f:(fun ~frame ~offset ~crc kind payload ->
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

let fold ?(mode = `Strict) ?pool ~step ~consume path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> fold_src mode pool ~step ~consume (src_of_channel ic))

let keep _ st = st

let decode ?(mode = `Strict) ?pool data =
  fold_src mode pool ~step:keep ~consume:Option.some (src_of_string data)

let load ?mode ?pool path = fold ?mode ?pool ~step:keep ~consume:Option.some path
