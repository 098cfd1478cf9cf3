(* Aiming damage at framed v2 corpora. Every frame's CRC is checked before
   its payload is parsed, so a crafted or mutated stream payload only
   reaches the stream decoder inside a frame whose checksum is correct:
   these helpers walk the frame structure and build or re-seal frames
   accordingly. *)

module V2 = Dptrace.Codec_v2
module Wire = Dptrace.Wire

let marker = "\xf7DP\xf2"

(* [(offset, payload_start, payload_len)] of each frame of a well-formed
   encoding: marker, kind, u32 length, u32 crc, payload. *)
let frame_spans encoded =
  let rec go pos acc =
    if pos >= String.length encoded then List.rev acc
    else
      let len = Wire.r32 { Wire.data = encoded; pos = pos + 5 } in
      let payload = pos + 13 in
      go (payload + len) ((pos, payload, len) :: acc)
  in
  go (String.length V2.magic) []

let crc kind payload =
  Dputil.Crc32.string ~crc:(Dputil.Crc32.string kind) payload

(* One frame around [payload], carrying its true checksum. *)
let frame kind payload =
  let buf = Buffer.create (13 + String.length payload) in
  Buffer.add_string buf marker;
  Buffer.add_string buf kind;
  Wire.w32 buf (String.length payload);
  Wire.w32 buf (crc kind payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

(* A complete corpus: no specs, one stream frame, a matching trailer. *)
let corpus_of_stream_payload payload =
  V2.magic ^ frame "H" "\x00" ^ frame "S" payload ^ frame "E" "\x01"

(* Rewrite the stored CRC of the stream frame whose payload occupies
   [payload, payload + len) of [b], after that payload was edited. *)
let reseal b ~payload ~len =
  Bytes.set_int32_le b (payload - 4)
    (Int32.of_int (crc "S" (Bytes.sub_string b payload len)))

(* The framed encoding of [c], as [V2.save] writes it. *)
let encode ?pool c =
  let path = Filename.temp_file "v2frames" ".dpf" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  V2.save ?pool path c;
  In_channel.with_open_bin path In_channel.input_all

(* The framed file at [path], folded with each stream decoded whole. *)
let load ?mode ?pool path =
  V2.fold ?mode ?pool ~step:(fun _ -> V2.frame_stream) ~consume:Option.some path

(* [data] read the only way the codec reads: from a file. *)
let decode ?mode ?pool data = Fixtures.with_file data (load ?mode ?pool)
