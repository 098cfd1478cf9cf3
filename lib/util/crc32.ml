(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), the zlib
   convention: chaining [update ~crc] over consecutive chunks equals one
   pass over their concatenation, and the empty string has CRC 0.

   Slice-by-4: [table] holds four 256-entry tables back to back. Table 0
   is the classic bytewise one; entry [n] of table [k] is the register
   after feeding byte [n] followed by [k] zero bytes, so one lookup per
   table folds a whole little-endian 32-bit word into the register. *)

let table =
  let t = Array.make 1024 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for n = 256 to 1023 do
    let prev = t.(n - 256) in
    t.(n) <- t.(prev land 0xff) lxor (prev lsr 8)
  done;
  t

let bytes_sub ?(crc = 0) b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.bytes_sub";
  let t = table in
  let c = ref (crc lxor 0xffffffff) in
  let i = ref pos in
  let stop = pos + len in
  while !i + 4 <= stop do
    let w =
      !c lxor (Int32.to_int (Bytes.get_int32_le b !i) land 0xffffffff)
    in
    c :=
      Array.unsafe_get t (768 + (w land 0xff))
      lxor Array.unsafe_get t (512 + ((w lsr 8) land 0xff))
      lxor Array.unsafe_get t (256 + ((w lsr 16) land 0xff))
      lxor Array.unsafe_get t (w lsr 24);
    i := !i + 4
  done;
  while !i < stop do
    let byte = Char.code (Bytes.unsafe_get b !i) in
    c := Array.unsafe_get t ((!c lxor byte) land 0xff) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xffffffff

let string ?crc s =
  bytes_sub ?crc (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
