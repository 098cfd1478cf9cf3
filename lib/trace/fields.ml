exception Parse_error of { line : int; message : string }

let fail line fmt =
  Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

(* Fields past the eighth (no line of either format has more than 7) are
   counted, not kept. Each is a span of [data]: the line for [.dpt], for
   ETW the line without its quotes, in [buf], reused line after line. *)
type t = {
  mutable line : int;
  mutable data : string;
  mutable buf : Bytes.t;
  mutable count : int;
  pos : int array;
  len : int array;
}

(* [String.trim]'s blanks; the bounds of [s]'s span [[pos, stop)] without
   them; the first [c] in it, or [stop]. *)
let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false
let rec first s pos stop = if pos < stop && is_blank s.[pos] then first s (pos + 1) stop else pos
let rec last s pos stop = if stop > pos && is_blank s.[stop - 1] then last s pos (stop - 1) else stop
let rec find c s pos stop = if pos < stop && s.[pos] <> c then find c s (pos + 1) stop else pos

let add t pos len =
  if t.count < 8 then begin
    t.pos.(t.count) <- pos;
    t.len.(t.count) <- len
  end;
  t.count <- t.count + 1

let words t text =
  t.data <- text;
  t.count <- 0;
  let stop = last text 0 (String.length text) in
  let pos = ref (first text 0 stop) in
  while !pos < stop do
    let e = find ' ' text !pos stop in
    if e > !pos then add t !pos (e - !pos);
    pos := e + 1
  done

let trimmed t pos stop =
  let stop = last t.data pos stop in
  let pos = first t.data pos stop in
  add t pos (stop - pos)

let csv t text =
  t.count <- 0;
  let stop = last text 0 (String.length text) in
  let pos = first text 0 stop in
  if pos < stop && text.[pos] <> '#' then begin
    if Bytes.length t.buf < stop then t.buf <- Bytes.create stop;
    t.data <- Bytes.unsafe_to_string t.buf;
    let quoted = ref false and n = ref 0 and from = ref 0 in
    for i = pos to stop - 1 do
      match text.[i] with
      | '"' -> quoted := not !quoted
      | ',' when not !quoted -> trimmed t !from !n; from := !n
      | c -> Bytes.set t.buf !n c; incr n
    done;
    if !quoted then fail t.line "unterminated quote";
    trimmed t !from !n
  end

let read path split f =
  let t =
    { line = 0; data = ""; buf = Bytes.create 256; count = 0;
      pos = Array.make 8 0; len = Array.make 8 0 }
  in
  let next () text =
    t.line <- t.line + 1;
    split t text;
    f t.line t
  in
  In_channel.with_open_bin path (In_channel.fold_lines next ());
  t.line

let text t = t.data
let count t = t.count

let rec same data pos s j =
  j = String.length s || (data.[pos + j] = s.[j] && same data pos s (j + 1))

let is t i s = t.len.(i) = String.length s && same t.data t.pos.(i) s 0
let get t i = String.sub t.data t.pos.(i) t.len.(i)

(* Up to 18 digits after an optional '-' are read in place (no such
   field overflows); anything else is copied for [int_of_string_opt]. *)
let int t what i =
  let data = t.data and pos = t.pos.(i) and len = t.len.(i) in
  let sign = if len > 1 && data.[pos] = '-' then 1 else 0 and v = ref 0 in
  for j = pos + sign to pos + len - 1 do
    v := (match data.[j] with '0' .. '9' as c when !v >= 0 -> (10 * !v) + Char.code c - 48 | _ -> -1)
  done;
  if !v >= 0 && len > sign && len <= 18 then if sign = 1 then - !v else !v
  else
    let s = get t i in
    match int_of_string_opt s with Some v -> v | None -> fail t.line "invalid %s: %S" what s

(* Each domain's stacks so far, keyed on their field's bytes. *)
let stacks = Domain.DLS.new_key Dputil.Span_table.create

let rec frames data pos stop acc =
  let e = find ';' data pos stop in
  let acc = Signature.of_span data ~pos ~len:(e - pos) :: acc in
  if e < stop then frames data (e + 1) stop acc else Callstack.of_list (List.rev acc)

let stack t ~empty i =
  if is t i empty then Callstack.of_list []
  else
    let pos = t.pos.(i) and len = t.len.(i) and seen = Domain.DLS.get stacks in
    match Dputil.Span_table.find seen t.data pos len with
    | -1 ->
      let stack = frames t.data pos (pos + len) [] in
      Dputil.Span_table.add seen (String.sub t.data pos len) stack;
      stack
    | e -> Dputil.Span_table.get seen e
