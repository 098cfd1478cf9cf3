type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Defer of (unit -> t)

let str s = Str s
let int i = Int i
let float f = Float f
let time (t : Time.t) = Int t

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let number buf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" f)
  else if Float.is_finite f then
    (* Shortest representation that round-trips. *)
    let s = Printf.sprintf "%.17g" f in
    let short = Printf.sprintf "%.12g" f in
    Buffer.add_string buf (if float_of_string short = f then short else s)
  else Buffer.add_string buf "null"

(* [spill ()] runs after each array element and object member, so a
   streaming writer can drain [buf] between values. *)
let to_buffer ~minify ~spill buf v =
  let nl indent =
    if not minify then begin
      Buffer.add_char buf '\n';
      for _ = 1 to indent do
        Buffer.add_string buf "  "
      done
    end
  in
  let sep () = if minify then Buffer.add_char buf ':' else Buffer.add_string buf ": " in
  let rec go indent = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> number buf f
    | Str s -> escape buf s
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          nl (indent + 1);
          go (indent + 1) item;
          spill ())
        items;
      nl indent;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj members ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          nl (indent + 1);
          escape buf k;
          sep ();
          go (indent + 1) item;
          spill ())
        members;
      nl indent;
      Buffer.add_char buf '}'
    | Defer f -> go indent (f ())
  in
  go 0 v

let to_string ?(minify = false) v =
  let buf = Buffer.create 4096 in
  to_buffer ~minify ~spill:ignore buf v;
  if not minify then Buffer.add_char buf '\n';
  Buffer.contents buf

let chunk = 65536

(* The same bytes as [to_string], written whenever a chunk fills: the
   buffer holds at most one chunk plus the scalar that overflowed it. *)
let output ?(minify = false) oc v =
  let buf = Buffer.create chunk in
  let spill () =
    if Buffer.length buf >= chunk then begin
      Buffer.output_buffer oc buf;
      Buffer.clear buf
    end
  in
  to_buffer ~minify ~spill buf v;
  if not minify then Buffer.add_char buf '\n';
  Buffer.output_buffer oc buf
