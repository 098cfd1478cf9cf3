type 'a t = {
  mutable cells : int array;  (* by cell: 1 + an entry, or 0 when free *)
  mutable keys : string array;  (* by entry *)
  mutable hashes : int array;  (* by entry *)
  mutable vals : 'a array;  (* by entry *)
  mutable n : int;  (* entries *)
  mutable last_hash : int;  (* of the last span [find] missed *)
  mutable last_cell : int;  (* the free cell it stopped at *)
}

let create () =
  { cells = Array.make 16 0; keys = [||]; hashes = [||]; vals = [||]; n = 0;
    last_hash = 0; last_cell = 0 }

(* FNV-1a, folded to the native int. *)
let hash data pos len =
  let h = ref 0x811c9dc5 in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get data i)) * 0x100000001b3
  done;
  !h lxor (!h lsr 29)

let rec same key data pos i =
  i = String.length key
  || (String.unsafe_get key i = String.unsafe_get data (pos + i) && same key data pos (i + 1))

let rec probe t h data pos len c =
  match t.cells.(c) with
  | 0 -> -1 - c
  | e ->
    let e = e - 1 in
    if t.hashes.(e) = h && String.length t.keys.(e) = len && same t.keys.(e) data pos 0
    then e
    else probe t h data pos len ((c + 1) land (Array.length t.cells - 1))

let find t data pos len =
  let h = hash data pos len in
  match probe t h data pos len (h land (Array.length t.cells - 1)) with
  | e when e >= 0 -> e
  | free ->
    t.last_hash <- h;
    t.last_cell <- -1 - free;
    -1

let get t e = t.vals.(e)

let rec free_cell t c =
  if t.cells.(c) = 0 then c else free_cell t ((c + 1) land (Array.length t.cells - 1))

let grow t v =
  let cap = 2 * Array.length t.cells in
  let extend a fill = Array.init (cap / 2) (fun e -> if e < t.n then a.(e) else fill) in
  t.keys <- extend t.keys "";
  t.hashes <- extend t.hashes 0;
  t.vals <- extend t.vals v;
  t.cells <- Array.make cap 0;
  for e = 0 to t.n - 1 do
    t.cells.(free_cell t (t.hashes.(e) land (cap - 1))) <- e + 1
  done;
  t.last_cell <- free_cell t (t.last_hash land (cap - 1))

let add t key v =
  let e = t.n in
  if e = Array.length t.vals then grow t v;
  t.cells.(t.last_cell) <- e + 1;
  t.keys.(e) <- key;
  t.hashes.(e) <- t.last_hash;
  t.vals.(e) <- v;
  t.n <- e + 1
