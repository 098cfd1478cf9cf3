type t = int

let interner = Dputil.Interner.create ~capacity:1024 ()

(* Module parts are derived once per distinct signature and memoised by id;
   the arrays below grow in step with the interner. *)
let module_parts : string array ref = ref (Array.make 1024 "")
let function_parts : string array ref = ref (Array.make 1024 "")

let ensure_capacity id =
  let cap = Array.length !module_parts in
  if id >= cap then begin
    let grow arr =
      let fresh = Array.make (max (2 * cap) (id + 1)) "" in
      Array.blit !arr 0 fresh 0 cap;
      arr := fresh
    in
    grow module_parts;
    grow function_parts
  end

(* Interning mutates the process-wide tables, and parallel corpus
   ingestion (Codec_v2 frame decoding on a domain pool) interns from
   several domains at once; serialise the write path. Reads ([name],
   [module_part], …) stay lock-free: an id is only obtainable through
   [of_string], whose lock release/acquire orders the table stores before
   any reader that learned the id. *)
let intern_mutex = Mutex.create ()

let of_string s =
  Mutex.protect intern_mutex @@ fun () ->
  let before = Dputil.Interner.size interner in
  let id = Dputil.Interner.intern interner s in
  if id >= before then begin
    ensure_capacity id;
    (match String.index_opt s '!' with
    | Some i ->
      !module_parts.(id) <- String.sub s 0 i;
      !function_parts.(id) <- String.sub s (i + 1) (String.length s - i - 1)
    | None ->
      !module_parts.(id) <- s;
      !function_parts.(id) <- "")
  end;
  id

(* Each domain's names so far, by their bytes: a name this domain has
   seen is found where it lies, with no copy, lock or closure. A name
   new to the domain is interned through [of_string], so at one domain
   ids are still handed out in first-sighting order. *)
let seen = Domain.DLS.new_key Dputil.Span_table.create

let of_span data ~pos ~len =
  let names = Domain.DLS.get seen in
  match Dputil.Span_table.find names data pos len with
  | -1 ->
    let name = String.sub data pos len in
    let id = of_string name in
    Dputil.Span_table.add names name id;
    id
  | e -> Dputil.Span_table.get names e

let name id = Dputil.Interner.name interner id
let module_part id = !module_parts.(id)
let function_part id = !function_parts.(id)

let make ~module_name ~function_name = of_string (module_name ^ "!" ^ function_name)
let hw_service s = of_string s

let equal = Int.equal
let compare = Int.compare
let to_int id = id
let of_int_unsafe id = id

let matches patterns s = Dputil.Wildcard.matches_any patterns (module_part s)

let interned_count () = Dputil.Interner.size interner
