exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun m -> raise (Corrupt m)) fmt

let w8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

(* Unsigned LEB128: 7 bits per byte, high bit = continuation. Most fields
   (tids, stack depths, counts, costs in µs) are small; this is where the
   size win over the text format comes from. *)
let rec wv buf v =
  if v < 0 then corrupt "cannot encode negative varint %d" v;
  if v < 0x80 then w8 buf v
  else begin
    w8 buf (0x80 lor (v land 0x7f));
    wv buf (v lsr 7)
  end

let wstr buf s =
  wv buf (String.length s);
  Buffer.add_string buf s

let w32 buf v = Buffer.add_int32_le buf (Int32.of_int v)

type cursor = { data : string; mutable pos : int }

let cursor data = { data; pos = 0 }
let at_end cur = cur.pos = String.length cur.data

(* Compared as [n] against the bytes left, so a length near [max_int]
   cannot overflow past the check. *)
let need cur n =
  if n > String.length cur.data - cur.pos then
    corrupt "truncated input at byte %d (need %d more)" cur.pos n

let r8 cur =
  need cur 1;
  let v = Char.code cur.data.[cur.pos] in
  cur.pos <- cur.pos + 1;
  v

(* Top-level and tail-recursive, so reading a varint allocates nothing:
   a closure over [cur] would cost every call five words. *)
let rec rv_from cur shift acc =
  let b = r8 cur in
  (* After eight bytes only bits 56..61 of a 63-bit int remain: a ninth
     byte with bit 6 set would land in the sign bit, and a continuation
     would go past it — either way a crafted file could smuggle a
     negative ts/cost/tid past every writer-side invariant. *)
  if shift = 56 && b land 0xc0 <> 0 then
    corrupt "varint overflow at byte %d" (cur.pos - 1);
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else rv_from cur (shift + 7) acc

(* Most varints are one byte: read those inline. *)
let rv cur =
  let pos = cur.pos in
  if pos < String.length cur.data then begin
    let b = Char.code (String.unsafe_get cur.data pos) in
    if b < 0x80 then begin
      cur.pos <- pos + 1;
      b
    end
    else rv_from cur 0 0
  end
  else rv_from cur 0 0

let rstr cur =
  let n = rv cur in
  need cur n;
  let s = String.sub cur.data cur.pos n in
  cur.pos <- cur.pos + n;
  s

let skip_str cur =
  let n = rv cur in
  need cur n;
  cur.pos <- cur.pos + n

let rcount cur =
  let n = rv cur in
  if n > String.length cur.data - cur.pos then
    corrupt "implausible element count %d at byte %d" n cur.pos;
  n

let rlist cur f = List.init (rcount cur) (fun _ -> f cur)

let r32 cur =
  need cur 4;
  let v = Int32.to_int (String.get_int32_le cur.data cur.pos) land 0xffff_ffff in
  cur.pos <- cur.pos + 4;
  v

let crc ?crc cur n =
  Dputil.Crc32.bytes_sub ?crc (Bytes.unsafe_of_string cur.data) ~pos:cur.pos ~len:n

(* --- a window onto a file --- *)

type window = {
  size : int;
  read : int -> Bytes.t -> int -> int -> int;
  mutable buf : Bytes.t;
  mutable base : int;  (* the file offset of [buf]'s first byte *)
  mutable lim : int;  (* the bytes of [buf] read *)
}

let window ~size read =
  { size; read; buf = Bytes.create (Int.min 65536 size); base = 0; lim = 0 }

(* Read behind the resident bytes until [n] of them are there, or the
   file ends, asking for up to [want]. *)
let rec read_to w n want =
  if w.lim < n then
    match w.read (w.base + w.lim) w.buf w.lim (want - w.lim) with
    | 0 -> ()
    | k ->
      w.lim <- w.lim + k;
      read_to w n want

(* Keep the resident bytes from [pos] on, then read behind them up to
   the buffer's end, or at least to [n]. *)
let refill w pos n =
  let keep = if pos >= w.base then Int.max 0 (w.base + w.lim - pos) else 0 in
  let buf =
    if n <= Bytes.length w.buf then w.buf
    else Bytes.create (Int.max n (Int.min (2 * Bytes.length w.buf) w.size))
  in
  if keep > 0 then Bytes.blit w.buf (pos - w.base) buf 0 keep;
  w.buf <- buf;
  w.base <- pos;
  w.lim <- keep;
  read_to w n (Int.min (Bytes.length buf) (w.size - pos))

(* [n] is clamped to the bytes the file has left before anything is
   allocated for it. *)
let fill w pos n =
  let n = Int.min n (w.size - pos) in
  if n <= 0 then 0
  else begin
    if pos < w.base || pos + n > w.base + w.lim then refill w pos n;
    Int.min n (w.base + w.lim - pos)
  end

let at w pos = { data = Bytes.unsafe_to_string w.buf; pos = pos - w.base }
