(* Codec tests: text-codec escaping, wire/stream-decoder hardening, and
   the framed v2 format (round trips, corruption, recovery). *)

module Event = Dptrace.Event
module Stream = Dptrace.Stream
module Corpus = Dptrace.Corpus
module Callstack = Dptrace.Callstack
module Codec = Dptrace.Codec
module Wire = Dptrace.Wire
module V2 = Dptrace.Codec_v2

let check = Alcotest.check
let text_of c = Fixtures.corpus_to_string c

let gen_corpus ?(scale = 0.02) ?(seed = 42) () =
  Dpworkload.Corpus_gen.generate
    { (Dpworkload.Corpus_gen.scaled scale) with seed }

(* Structural equality that works for corpora the text codec refuses to
   print (hostile names). Signatures compare by name, not id, so it also
   holds across processes. *)
let stack_names (e : Event.t) =
  Callstack.frames e.Event.stack
  |> Array.to_list
  |> List.map Dptrace.Signature.name

let event_equal (a : Event.t) (b : Event.t) =
  a.Event.kind = b.Event.kind
  && a.Event.ts = b.Event.ts
  && a.Event.cost = b.Event.cost
  && a.Event.tid = b.Event.tid
  && a.Event.wtid = b.Event.wtid
  && stack_names a = stack_names b

let stream_equal (a : Stream.t) (b : Stream.t) =
  a.Stream.id = b.Stream.id
  && a.Stream.threads = b.Stream.threads
  && a.Stream.instances = b.Stream.instances
  && Array.length a.Stream.events = Array.length b.Stream.events
  && Array.for_all2 event_equal a.Stream.events b.Stream.events

let corpus_equal (a : Corpus.t) (b : Corpus.t) =
  a.Corpus.specs = b.Corpus.specs
  && List.length a.Corpus.streams = List.length b.Corpus.streams
  && List.for_all2 stream_equal a.Corpus.streams b.Corpus.streams

(* --- text codec escaping --- *)

let event ?(kind = Event.Running) ?(ts = 0) ?(cost = 1) ?(tid = 1)
    ?(wtid = -1) stack =
  {
    Event.id = 0;
    kind;
    stack = Fixtures.callstack stack;
    ts;
    cost;
    tid;
    wtid;
  }

let corpus_with ?(specs = []) events =
  Corpus.create
    ~streams:
      [ Stream.create ~id:0 ~events:(Array.of_list events) ~instances:[] ~threads:[] ]
    ~specs

let expect_invalid what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what

let test_text_rejects_hostile_spec_names () =
  (* A spec name with whitespace would round-trip to a different corpus
     (or fail to parse); the writer must refuse. *)
  List.iter
    (fun name ->
      let c =
        corpus_with ~specs:[ Dptrace.Scenario.spec ~name ~tfast:1 ~tslow:2 ]
          [ event [ "app!main" ] ]
      in
      expect_invalid ("spec name " ^ String.escaped name) (fun () ->
          text_of c))
    [ "two words"; "tab\tname"; "multi\nline"; "semi;colon"; "" ]

let test_text_rejects_hostile_frame_signatures () =
  (* A ';' inside a frame signature would silently split into two frames
     on reload; whitespace would corrupt the line structure. *)
  List.iter
    (fun frame ->
      let c = corpus_with [ event [ frame; "app!main" ] ] in
      expect_invalid ("frame " ^ String.escaped frame) (fun () -> text_of c))
    [ "mod!two words"; "mod!semi;colon"; "mod!multi\nline"; "" ]

let test_text_hostile_names_never_corrupt_silently () =
  (* Whatever the writer does accept must come back identical. *)
  let c =
    corpus_with
      ~specs:[ Dptrace.Scenario.spec ~name:"Open" ~tfast:1 ~tslow:2 ]
      [ event [ "od\x01d.sys!weird\x7fbytes"; "app!main" ] ]
  in
  check Alcotest.bool "round trip" true
    (corpus_equal c (Fixtures.corpus_of_string (text_of c)))

let test_text_binary_mode_roundtrip () =
  let c = gen_corpus ~scale:0.01 () in
  let path = Filename.temp_file "driveperf" ".dpt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Codec.save path c;
  (* The file must be byte-identical to the in-memory encoding: binary
     mode, no newline translation. *)
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let on_disk = really_input_string ic n in
  close_in ic;
  check Alcotest.bool "no channel translation" true (on_disk = text_of c);
  check Alcotest.string "load round trip" (text_of c)
    (match Dptrace.Corpus_dir.load path with
    | Ok l -> text_of l.Dptrace.Corpus_dir.l_corpus
    | Error m -> Alcotest.fail m)

(* --- wire primitives and the stream decoder --- *)

let test_varint_roundtrip_extremes () =
  List.iter
    (fun v ->
      let buf = Buffer.create 16 in
      Wire.wv buf v;
      let cur = Wire.cursor (Buffer.contents buf) in
      check Alcotest.int (Printf.sprintf "roundtrip %d" v) v (Wire.rv cur);
      check Alcotest.bool "consumed" true (Wire.at_end cur))
    [ 0; 1; 0x7f; 0x80; 0x3fff; 0x4000; max_int - 1; max_int ]

let expect_wire_corrupt what data =
  match Wire.rv (Wire.cursor data) with
  | exception Wire.Corrupt _ -> ()
  | v -> Alcotest.failf "%s: expected Corrupt, decoded %d" what v

let test_varint_overflow_rejected () =
  (* Nine 0xff bytes: bit 62 set and a continuation past it. On a 63-bit
     int this wrapped negative before the overflow check existed. *)
  expect_wire_corrupt "continuation past bit 62" (String.make 9 '\xff');
  (* Eight continuations then a final byte with bit 6 set: lands exactly
     in the sign bit. *)
  expect_wire_corrupt "sign bit" (String.make 8 '\xff' ^ "\x7f");
  expect_wire_corrupt "sign bit minimal" (String.make 8 '\x80' ^ "\x40");
  (* One less than the limit is fine: 8 bytes of 0x7f payload. *)
  let cur = Wire.cursor (String.make 8 '\xff' ^ "\x3f") in
  check Alcotest.int "max encodable" max_int (Wire.rv cur)

(* A string length of [max_int] is refused as truncation, by the copying
   and the skipping reader alike: added to the position, it would wrap
   negative and slip past the bounds check. *)
let test_huge_length_refused () =
  let data = String.make 8 '\xff' ^ "\x3f" ^ "abc" in
  List.iter
    (fun (what, read) ->
      match read (Wire.cursor data) with
      | exception Wire.Corrupt _ -> ()
      | () -> Alcotest.failf "%s: accepted a length of max_int" what)
    [ ("rstr", fun cur -> ignore (Wire.rstr cur : string)); ("skip_str", Wire.skip_str) ]

(* A crafted stream payload in a correctly checksummed frame must be
   refused by the stream decoder itself: strict raises [Wire.Corrupt],
   recovery drops the stream and says why. *)
let expect_stream_refused what payload =
  let data = V2_frames.corpus_of_stream_payload payload in
  (match V2_frames.decode data with
  | exception Wire.Corrupt _ -> ()
  | c, _ ->
    Alcotest.failf "%s: accepted %d stream(s)" what
      (List.length c.Corpus.streams));
  let c, report = V2_frames.decode ~mode:`Recover data in
  check Alcotest.int (what ^ ": recovered streams") 0
    (List.length c.Corpus.streams);
  check Alcotest.bool (what ^ ": diagnosed") true (report.V2.dropped <> [])

let test_binary_rejects_smuggled_negative_ts () =
  (* A stream whose single event carries an overflowing varint
     timestamp. Before the overflow check the decoder accepted it and
     produced a negative [ts] no writer can emit. *)
  expect_stream_refused "negative ts"
    ("\x00" (* 0 signatures *)
    ^ "\x00" (* stream id *)
    ^ "\x00" (* 0 threads *)
    ^ "\x01" (* 1 event *)
    ^ "\x00" (* kind Running *)
    ^ "\x05" (* tid *)
    ^ "\x00" (* wtid+1 *)
    ^ String.make 8 '\xff'
    ^ "\x7f" (* ts: overflows into the sign bit *)
    ^ "\x01" (* cost *)
    ^ "\x00" (* 0 stack frames *)
    ^ "\x00" (* 0 instances *))

let test_binary_rejects_backwards_instance () =
  (* Validation parity with the text reader: t1 < t0 must be refused. *)
  expect_stream_refused "t1 < t0"
    ("\x00" (* 0 signatures *)
    ^ "\x00" (* id *) ^ "\x00" (* threads *) ^ "\x00" (* events *)
    ^ "\x01" (* 1 instance *)
    ^ "\x01S" (* scenario "S" *)
    ^ "\x00" (* tid *)
    ^ "\x05" (* t0 = 5 *)
    ^ "\x01" (* t1 = 1 *))

let test_binary_hostile_names_roundtrip () =
  (* Length-prefixed strings carry anything; the framed codec must not
     inherit the text format's name restrictions. *)
  let c =
    Corpus.create
      ~streams:
        [
          Stream.create ~id:3
            ~events:
              [| event [ "od d.sys!two words"; "app!semi;colon\nline" ] |]
            ~instances:
              [ { Dptrace.Scenario.scenario = "Open Doc"; tid = 1; t0 = 0; t1 = 5 } ]
            ~threads:[ (1, "UI thread; main") ];
        ]
      ~specs:[ Dptrace.Scenario.spec ~name:"Open Doc" ~tfast:1 ~tslow:2 ]
  in
  check Alcotest.bool "framed v2" true
    (corpus_equal c (fst (V2_frames.decode (V2_frames.encode c))))

let prop_codec_roundtrip_any_seed =
  QCheck.Test.make ~name:"v2 round-trip generated corpora" ~count:10
    QCheck.small_int (fun seed ->
      let c = gen_corpus ~scale:0.01 ~seed () in
      text_of (fst (V2_frames.decode (V2_frames.encode c))) = text_of c)

(* --- framed v2 --- *)

let test_v2_roundtrip () =
  let c = gen_corpus () in
  let encoded = V2_frames.encode c in
  let decoded, report = V2_frames.decode encoded in
  check Alcotest.string "text-identical" (text_of c) (text_of decoded);
  check Alcotest.int "no drops" 0 (List.length report.V2.dropped);
  check Alcotest.int "streams" (List.length c.Corpus.streams) report.V2.streams;
  check Alcotest.int "frame count"
    (2 + List.length c.Corpus.streams)
    report.V2.frames

let test_v2_magic () =
  let encoded = V2_frames.encode (gen_corpus ~scale:0.01 ()) in
  check Alcotest.string "magic" V2.magic (String.sub encoded 0 5)

let expect_v2_corrupt what data =
  match V2_frames.decode data with
  | exception Wire.Corrupt _ -> ()
  | _ -> Alcotest.failf "%s: expected Corrupt" what

let frame_spans = V2_frames.frame_spans

let test_v2_truncation_at_every_boundary () =
  let c = gen_corpus ~scale:0.01 () in
  let encoded = V2_frames.encode c in
  let spans = frame_spans encoded in
  check Alcotest.int "frame structure accounted"
    (2 + List.length c.Corpus.streams)
    (List.length spans);
  (* Truncating at any frame boundary leaves a structurally clean prefix;
     only the trailer count can tell it is incomplete. Mid-frame cuts must
     fail too. *)
  List.iter
    (fun (off, payload, len) ->
      expect_v2_corrupt
        (Printf.sprintf "cut at frame boundary %d" off)
        (String.sub encoded 0 off);
      expect_v2_corrupt
        (Printf.sprintf "cut mid-frame %d" off)
        (String.sub encoded 0 (payload + (len / 2))))
    spans;
  expect_v2_corrupt "empty" "";
  expect_v2_corrupt "magic only" (String.sub encoded 0 5);
  expect_v2_corrupt "trailing garbage" (encoded ^ "junk")

let test_v2_single_bad_frame_recovery () =
  let c = gen_corpus () in
  let encoded = V2_frames.encode c in
  let spans = frame_spans encoded in
  (* Corrupt the payload of the second stream frame (frame ordinal 2:
     header is 0, first stream is 1). *)
  let ordinal = 2 in
  let off, payload, len = List.nth spans ordinal in
  let b = Bytes.of_string encoded in
  Bytes.set b (payload + (len / 2))
    (Char.chr (Char.code (Bytes.get b (payload + (len / 2))) lxor 0x01));
  let corrupted = Bytes.to_string b in
  expect_v2_corrupt "strict refuses" corrupted;
  let recovered, report = V2_frames.decode ~mode:`Recover corrupted in
  (* The diagnostic names the damaged frame and its offset. *)
  (match report.V2.dropped with
  | d :: _ ->
    check Alcotest.int "diagnostic frame" ordinal d.V2.frame;
    check Alcotest.int "diagnostic offset" off d.V2.offset;
    check Alcotest.bool "diagnostic reason" true (d.V2.reason <> "")
  | [] -> Alcotest.fail "no diagnostics");
  (* Exactly the one stream is gone; every survivor is identical to its
     original. *)
  let lost_id = (List.nth c.Corpus.streams (ordinal - 1)).Stream.id in
  check Alcotest.int "one stream lost"
    (List.length c.Corpus.streams - 1)
    (List.length recovered.Corpus.streams);
  check Alcotest.bool "lost the corrupted one" true
    (not
       (List.exists
          (fun (st : Stream.t) -> st.Stream.id = lost_id)
          recovered.Corpus.streams));
  List.iter
    (fun (st : Stream.t) ->
      let original =
        List.find
          (fun (o : Stream.t) -> o.Stream.id = st.Stream.id)
          c.Corpus.streams
      in
      check Alcotest.bool
        (Printf.sprintf "stream %d intact" st.Stream.id)
        true (stream_equal original st))
    recovered.Corpus.streams;
  check Alcotest.bool "specs survive" true
    (recovered.Corpus.specs = c.Corpus.specs)

let prop_v2_bit_flip =
  (* Any single corrupted byte: strict either refuses or the flip was
     immaterial; recovery never raises and never delivers an invalid
     stream. *)
  let base = V2_frames.encode (gen_corpus ~scale:0.01 ()) in
  QCheck.Test.make ~name:"v2 single-byte corruption is contained" ~count:120
    QCheck.(pair small_int (int_range 1 255))
    (fun (pos_seed, flip) ->
      let b = Bytes.of_string base in
      let pos = pos_seed mod Bytes.length b in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor flip));
      let data = Bytes.to_string b in
      let strict_ok =
        match V2_frames.decode data with
        | decoded, _ -> text_of (fst (V2_frames.decode base)) = text_of decoded
        | exception Wire.Corrupt _ -> true
      in
      let recover_ok =
        let c, report = V2_frames.decode ~mode:`Recover data in
        List.for_all
          (fun st -> Dptrace.Validate.check st = [])
          c.Corpus.streams
        && report.V2.streams = List.length c.Corpus.streams
      in
      strict_ok && recover_ok)

let test_v2_pooled_load_identical () =
  let c = gen_corpus () in
  Dppar.Pool.with_pool ~domains:2 @@ fun pool ->
  check Alcotest.bool "pooled encode identical" true
    (V2_frames.encode ~pool c = V2_frames.encode c);
  let seq, _ = V2_frames.decode (V2_frames.encode c) in
  let par, _ = V2_frames.decode ~pool (V2_frames.encode c) in
  check Alcotest.string "pooled decode identical" (text_of seq) (text_of par);
  (* Recovery parity: pooled and sequential agree on survivors and
     diagnostics. *)
  let b = Bytes.of_string (V2_frames.encode c) in
  Bytes.set b (Bytes.length b / 2)
    (Char.chr (Char.code (Bytes.get b (Bytes.length b / 2)) lxor 0xff));
  let data = Bytes.to_string b in
  let cs, rs = V2_frames.decode ~mode:`Recover data in
  let cp, rp = V2_frames.decode ~mode:`Recover ~pool data in
  check Alcotest.string "pooled recovery streams" (text_of cs) (text_of cp);
  check Alcotest.bool "pooled recovery diagnostics" true
    (rs.V2.dropped = rp.V2.dropped && rs.V2.frames = rp.V2.frames)

let test_v2_frames_dropped_counter () =
  (* One more stream frame before the trailer, counted by it, whose CRC
     passes but whose payload does not decode (event kind 9): the bad
     frame and the trailer's mismatch are two diagnostics, and both must
     reach the counter, sequentially and on a pool. *)
  let encoded = V2_frames.encode (gen_corpus ~scale:0.01 ()) in
  let spans = frame_spans encoded in
  let trailer, _, _ = List.hd (List.rev spans) in
  let count = Buffer.create 4 in
  Wire.wv count (List.length spans - 1);
  let data =
    String.sub encoded 0 trailer
    ^ V2_frames.frame "S" "\x00\x00\x00\x01\x09"
    ^ V2_frames.frame "E" (Buffer.contents count)
  in
  let counter = Dpobs.Metrics.counter "codec_v2.frames_dropped" in
  let dropped_delta ?pool () =
    let before = Dpobs.Metrics.counter_value counter in
    let _, report = V2_frames.decode ~mode:`Recover ?pool data in
    (List.length report.V2.dropped, Dpobs.Metrics.counter_value counter - before)
  in
  Dpobs.enable ~spans:false ~metrics:true ();
  Fun.protect ~finally:Dpobs.disable @@ fun () ->
  let n, delta = dropped_delta () in
  check Alcotest.int "bad frame and trailer diagnosed" 2 n;
  check Alcotest.int "sequential count" n delta;
  Dppar.Pool.with_pool ~domains:2 @@ fun pool ->
  let n, delta = dropped_delta ~pool () in
  check Alcotest.int "pooled diagnostics" 2 n;
  check Alcotest.int "pooled count" n delta

(* Equal stacks inside one decoded stream are one physical array, so a
   corpus holds each distinct stack of a stream once. Checked on both
   decoders, and on a pooled v2 load, whose domains each decode whole
   frames. *)
let stacks_shared (c : Corpus.t) =
  let repeats = ref 0 in
  let shared =
    List.for_all
      (fun (st : Stream.t) ->
        let seen = Hashtbl.create 64 in
        Array.for_all
          (fun (e : Event.t) ->
            let frames = Callstack.frames e.Event.stack in
            match Hashtbl.find_opt seen (stack_names e) with
            | Some first ->
              incr repeats;
              first == frames
            | None ->
              Hashtbl.add seen (stack_names e) frames;
              true)
          st.Stream.events)
      c.Corpus.streams
  in
  shared && !repeats > 0

let test_decoded_stacks_shared () =
  let c = gen_corpus () in
  let encoded = V2_frames.encode c in
  check Alcotest.bool "v2, sequential" true (stacks_shared (fst (V2_frames.decode encoded)));
  Dppar.Pool.with_pool ~domains:2 (fun pool ->
      check Alcotest.bool "v2, 2-domain pool" true
        (stacks_shared (fst (V2_frames.decode ~pool encoded))));
  check Alcotest.bool "text" true (stacks_shared (Fixtures.corpus_of_string (text_of c)))

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* A stream frame, with its true checksum, whose event count is one more
   than the bytes left after it: every event takes at least one byte, so
   the count itself must be refused, before any event is read or
   allocated. *)
let test_v2_count_bounded_by_remaining () =
  let encoded = V2_frames.encode (gen_corpus ~scale:0.01 ()) in
  let _, start, len = List.nth (frame_spans encoded) 1 in
  let payload = String.sub encoded start len in
  let cur = Wire.cursor payload in
  ignore (Wire.rlist cur Wire.rstr (* signature table *));
  ignore (Wire.rv cur (* stream id *));
  ignore
    (Wire.rlist cur (fun c ->
         ignore (Wire.rv c);
         Wire.rstr c) (* threads *));
  let head = String.sub payload 0 cur.Wire.pos in
  ignore (Wire.rv cur (* event count *));
  let rest = String.sub payload cur.Wire.pos (len - cur.Wire.pos) in
  let count = Buffer.create 4 in
  Wire.wv count (String.length rest + 1);
  let data =
    V2_frames.corpus_of_stream_payload (head ^ Buffer.contents count ^ rest)
  in
  (match V2_frames.decode data with
  | exception Wire.Corrupt m ->
    check Alcotest.bool ("strict: count refused: " ^ m) true
      (contains m "element count")
  | _ -> Alcotest.fail "strict: accepted the count");
  let c, report = V2_frames.decode ~mode:`Recover data in
  check Alcotest.int "recover: frame dropped" 0 (List.length c.Corpus.streams);
  check Alcotest.bool "recover: count diagnosed" true
    (List.exists (fun d -> contains d.V2.reason "element count") report.V2.dropped)

(* A strict fold's two ways to a skeleton agree on every payload: the
   walk ([frame_skeleton]) refuses exactly the CRC-resealed mutants the
   decode ([frame_stream]) refuses, with the same message, and otherwise
   yields the same id, instances and key. *)
let prop_skeleton_walk_matches_decode =
  let base = V2_frames.encode (gen_corpus ~scale:0.01 ()) in
  let streams =
    match V2_frames.frame_spans base with
    | _header :: rest -> List.filteri (fun i _ -> i < List.length rest - 1) rest
    | [] -> []
  in
  let fold data skeleton =
    let path = Filename.temp_file "driveperf" ".dpf" in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data);
    match V2.fold path ~step:(fun _ f -> skeleton f) ~consume:Option.some with
    | c, _ ->
      Ok
        (List.map
           (fun (st : Stream.t) ->
             ( st.Stream.id,
               st.Stream.instances,
               Stream.key_memo st,
               Stream.event_count st,
               st.Stream.threads ))
           c.Corpus.streams)
    | exception Wire.Corrupt m -> Error m
  in
  QCheck.Test.make ~name:"skeleton walk refuses exactly what decode refuses"
    ~count:300
    QCheck.(triple small_nat (int_bound 1_000_000) (int_range 0 255))
    (fun (frame_seed, pos_seed, byte) ->
      let _, payload, len = List.nth streams (frame_seed mod List.length streams) in
      let b = Bytes.of_string base in
      Bytes.set b (payload + (pos_seed mod len)) (Char.chr byte);
      V2_frames.reseal b ~payload ~len;
      let data = Bytes.to_string b in
      fold data (fun f -> Stream.skeleton (V2.frame_stream f))
      = fold data V2.frame_skeleton)

(* The header is frame 0. A specs frame anywhere else, late or a
   duplicate, is damage: strict refuses the file, and recover drops that
   frame with a diagnostic and keeps the frame-0 specs, so a fold that
   steps streams before the stray frame agrees with a whole load. *)
let test_v2_header_is_frame_zero () =
  let c = gen_corpus ~scale:0.01 () in
  let encoded = V2_frames.encode c in
  let frames =
    List.map
      (fun (off, payload, len) -> String.sub encoded off (payload + len - off))
      (frame_spans encoded)
  in
  let stray =
    let buf = Buffer.create 16 in
    Wire.wv buf 1;
    Wire.wstr buf "Stray";
    Wire.wv buf 1;
    Wire.wv buf 2;
    V2_frames.frame "H" (Buffer.contents buf)
  in
  List.iter
    (fun at ->
      let before = List.filteri (fun i _ -> i < at) frames in
      let data =
        V2.magic
        ^ String.concat ""
            (before @ [ stray ] @ List.filteri (fun i _ -> i >= at) frames)
      in
      let what = Printf.sprintf "header copy at frame %d" at in
      (match V2_frames.decode data with
      | exception Wire.Corrupt m ->
        check Alcotest.bool (what ^ ": strict names the header: " ^ m) true
          (contains m "header")
      | _ -> Alcotest.failf "%s: strict accepted it" what);
      let recovered, report = V2_frames.decode ~mode:`Recover data in
      check Alcotest.string (what ^ ": recover keeps frame-0 specs and streams")
        (text_of c) (text_of recovered);
      match report.V2.dropped with
      | [ d ] ->
        check Alcotest.int (what ^ ": diagnostic frame") at d.V2.frame;
        check Alcotest.int (what ^ ": diagnostic offset")
          (String.length (String.concat "" (V2.magic :: before)))
          d.V2.offset
      | ds -> Alcotest.failf "%s: %d diagnostics" what (List.length ds))
    [ 1; 3 ]

(* A stream frame whose length field claims far more bytes than the file
   has: both modes name the frame with the same reason, and the reader
   allocates for the bytes the file holds, not for the claim. *)
let test_v2_overlong_frame_bounded () =
  let base = V2_frames.encode (gen_corpus ~scale:0.005 ()) in
  let off, payload, _ = List.nth (V2_frames.frame_spans base) 1 in
  let claim = 200 * 1024 * 1024 in
  let b = Bytes.of_string base in
  Bytes.set_int32_le b (off + 5) (Int32.of_int claim);
  let size = Bytes.length b in
  let reason =
    Printf.sprintf "truncated payload (need %d, have %d)" claim (size - payload)
  in
  (* Four times the file's bytes, in words. *)
  let bound = 4. *. float_of_int size /. float_of_int (Sys.word_size / 8) in
  Fixtures.with_file (Bytes.to_string b) @@ fun path ->
  (* The first fold of a run pays one-off initialisation. *)
  (try ignore (V2_frames.load path) with Wire.Corrupt _ -> ());
  let strict, words =
    Fixtures.words_allocated (fun () ->
        match V2_frames.load path with
        | exception Wire.Corrupt m -> m
        | _ -> Alcotest.fail "strict: accepted an overlong frame")
  in
  check Alcotest.string "strict message"
    (Printf.sprintf "frame 1 at byte %d: %s" off reason)
    strict;
  if words > bound then
    Alcotest.failf "strict: %.0f words allocated for a %d-byte file" words size;
  let (c, report), words =
    Fixtures.words_allocated (fun () -> V2_frames.load ~mode:`Recover path)
  in
  check Alcotest.int "recover: no stream" 0 (List.length c.Corpus.streams);
  (match report.V2.dropped with
  | d :: _ ->
    check Alcotest.(triple int int string) "recover diagnostic" (1, off, reason)
      (d.V2.frame, d.V2.offset, d.V2.reason)
  | [] -> Alcotest.fail "recover: no diagnostic");
  if words > bound then
    Alcotest.failf "recover: %.0f words allocated for a %d-byte file" words size

(* Words allocated per event by a stream's decode ([frame_stream]) and by
   its index ([Stream.index]), each call measured alone in a fold over a
   generated corpus, after one warm-up fold (the first meets every
   signature and stack for the first time). Both must stay under bounds
   a little above what is reached: 11.9 and 4.4 words per event on this
   corpus, minor and major. *)
let test_words_per_event () =
  Fixtures.with_file (V2_frames.encode (gen_corpus ~scale:0.2 ())) @@ fun path ->
  let fold () =
    let decode = ref 0. and index = ref 0. and events = ref 0 in
    let step _ f =
      let st, d = Fixtures.words_allocated (fun () -> V2.frame_stream f) in
      let _, i = Fixtures.words_allocated (fun () -> Stream.index st) in
      decode := !decode +. d;
      index := !index +. i;
      events := !events + Stream.event_count st
    in
    ignore (V2.fold ~step ~consume:(fun () -> None) path);
    let per_event w = w /. float_of_int !events in
    (per_event !decode, per_event !index)
  in
  ignore (fold ());
  let decode, index = fold () in
  Printf.printf "words per event: decode %.2f, index %.2f\n" decode index;
  if decode > 13. then Alcotest.failf "decode: %.2f words per event" decode;
  if index > 5. then Alcotest.failf "index: %.2f words per event" index

(* Words allocated per event by [Codec.read] over a generated corpus's
   text, streams built and dropped, after one warm-up read: 38.8 here,
   against 114.3 when every line was split into a list. *)
let test_text_words_per_event () =
  let corpus = gen_corpus ~scale:0.2 () in
  let events =
    List.fold_left (fun n st -> n + Stream.event_count st) 0 corpus.Corpus.streams
  in
  Fixtures.with_file (text_of corpus) @@ fun path ->
  let read () = ignore (Codec.read path (fun _ _ -> ())) in
  read ();
  let (), words = Fixtures.words_allocated read in
  let per_event = words /. float_of_int events in
  Printf.printf "text read: %.1f words per event\n" per_event;
  if per_event >= 60. then Alcotest.failf "%.1f words per event" per_event

let test_v2_save_load () =
  let c = gen_corpus ~scale:0.01 () in
  let path = Filename.temp_file "driveperf" ".dpf" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  V2.save path c;
  let loaded, report = V2_frames.load path in
  check Alcotest.string "load round trip" (text_of c) (text_of loaded);
  check Alcotest.int "clean" 0 (List.length report.V2.dropped)

let () =
  Alcotest.run "codec"
    [
      ( "text escaping",
        [
          Alcotest.test_case "hostile spec names rejected" `Quick
            test_text_rejects_hostile_spec_names;
          Alcotest.test_case "hostile frame signatures rejected" `Quick
            test_text_rejects_hostile_frame_signatures;
          Alcotest.test_case "accepted names round-trip" `Quick
            test_text_hostile_names_never_corrupt_silently;
          Alcotest.test_case "binary-mode save/load" `Quick
            test_text_binary_mode_roundtrip;
        ] );
      ( "text reader",
        [
          Alcotest.test_case "words per event" `Quick test_text_words_per_event;
        ] );
      ( "binary hardening",
        [
          Alcotest.test_case "varint extremes round-trip" `Quick
            test_varint_roundtrip_extremes;
          Alcotest.test_case "varint overflow rejected" `Quick
            test_varint_overflow_rejected;
          Alcotest.test_case "huge string length refused" `Quick
            test_huge_length_refused;
          Alcotest.test_case "smuggled negative ts rejected" `Quick
            test_binary_rejects_smuggled_negative_ts;
          Alcotest.test_case "backwards instance rejected" `Quick
            test_binary_rejects_backwards_instance;
          Alcotest.test_case "hostile names round-trip" `Quick
            test_binary_hostile_names_roundtrip;
          QCheck_alcotest.to_alcotest prop_codec_roundtrip_any_seed;
        ] );
      ( "framed v2",
        [
          Alcotest.test_case "round trip" `Quick test_v2_roundtrip;
          Alcotest.test_case "magic" `Quick test_v2_magic;
          Alcotest.test_case "truncation at every boundary" `Quick
            test_v2_truncation_at_every_boundary;
          Alcotest.test_case "single bad frame recovery" `Quick
            test_v2_single_bad_frame_recovery;
          QCheck_alcotest.to_alcotest prop_v2_bit_flip;
          QCheck_alcotest.to_alcotest prop_skeleton_walk_matches_decode;
          Alcotest.test_case "pooled load identical" `Quick
            test_v2_pooled_load_identical;
          Alcotest.test_case "header is frame 0" `Quick
            test_v2_header_is_frame_zero;
          Alcotest.test_case "save/load" `Quick test_v2_save_load;
          Alcotest.test_case "overlong frame allocates for the file" `Quick
            test_v2_overlong_frame_bounded;
          Alcotest.test_case "frames_dropped counts each drop" `Quick
            test_v2_frames_dropped_counter;
          Alcotest.test_case "count bounded by the bytes left" `Quick
            test_v2_count_bounded_by_remaining;
          Alcotest.test_case "decoded streams share equal stacks" `Quick
            test_decoded_stacks_shared;
          Alcotest.test_case "decode and index words per event" `Quick
            test_words_per_event;
        ] );
    ]
