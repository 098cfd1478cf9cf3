(* The export audit: every value a [lib/] interface exports must have a
   user outside its own module, in [lib/], [bin/], [bench/] or
   [examples/], or be listed in [exports_allowlist] with its reason.

   Uses are found by words, not by the compiler: a value counts as used
   when its name occurs as an identifier-shaped word anywhere in another
   [.ml] of those trees, comments and strings included. That can only
   over-count uses, so every value reported is a real unused export;
   whether a flagged value is used inside its own module is for warning
   32 to say once it leaves the interface.

   An allowlist line is [Module.path.name reason], the reason one of
   - [tested: test_x ...], where test_x.ml uses the value and checks its
     own contract;
   - [interning: ...], a value kept for the names it interns at start-up.
   A line whose value is no longer exported, or now has a user, is stale
   and fails too. *)

let root = if Sys.file_exists "exports_allowlist" then ".." else "."
let allowlist_path = Filename.concat root "test/exports_allowlist"
let user_trees = [ "lib"; "bin"; "bench"; "examples" ]

let rec files dir suffix =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then
           if name.[0] = '_' || name.[0] = '.' then [] else files path suffix
         else if Filename.check_suffix name suffix then [ path ]
         else [])

let read path = In_channel.with_open_bin path In_channel.input_all

let is_word_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* Every identifier-shaped word of [s], in order. *)
let words s =
  let out = ref [] and i = ref 0 and n = String.length s in
  while !i < n do
    if is_word_char s.[!i] then begin
      let j = ref !i in
      while !j < n && is_word_char s.[!j] do incr j done;
      out := String.sub s !i (!j - !i) :: !out;
      i := !j
    end
    else incr i
  done;
  List.rev !out

(* [s] with comments (nested, strings inside them skipped) and string
   literals blanked out, so an interface's words are its declarations. *)
let strip s =
  let b = Buffer.create (String.length s) and n = String.length s in
  let rec string i = if i >= n then i else match s.[i] with
    | '\\' -> string (i + 2)
    | '"' -> i + 1
    | _ -> string (i + 1)
  in
  let rec comment depth i =
    if i >= n then i
    else if s.[i] = '(' && i + 1 < n && s.[i + 1] = '*' then comment (depth + 1) (i + 2)
    else if s.[i] = '*' && i + 1 < n && s.[i + 1] = ')' then
      if depth = 1 then i + 2 else comment (depth - 1) (i + 2)
    else if s.[i] = '"' then comment depth (string (i + 1))
    else comment depth (i + 1)
  in
  let rec go i =
    if i < n then
      if s.[i] = '(' && i + 1 < n && s.[i + 1] = '*' then begin
        Buffer.add_char b ' ';
        go (comment 1 (i + 2))
      end
      else if s.[i] = '"' then begin
        Buffer.add_char b ' ';
        go (string (i + 1))
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

let module_of path = String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* The [val]s of an interface, each as its path: the module, then the
   nested module signatures it sits in (module types are not values). *)
let exported_values mli =
  let top = module_of mli in
  (* [Some name] for a module signature, [None] for a module type's. *)
  let frames = ref [] and pending = ref None and out = ref [] in
  let path () = String.concat "." (top :: List.rev_map (fun f -> Option.get f) !frames) in
  let rec go = function
    | "module" :: "type" :: rest ->
      pending := Some None;
      go rest
    | "module" :: name :: rest ->
      pending := Some (Some name);
      go rest
    | "sig" :: rest ->
      frames := Option.value !pending ~default:None :: !frames;
      pending := None;
      go rest
    | "end" :: rest ->
      (match !frames with _ :: up -> frames := up | [] -> ());
      go rest
    | "val" :: name :: rest ->
      pending := None;
      if List.for_all Option.is_some !frames then out := (path () ^ "." ^ name, name) :: !out;
      go rest
    | ("type" | "exception" | "include" | "open") :: rest ->
      pending := None;
      go rest
    | _ :: rest -> go rest
    | [] -> ()
  in
  go (words (strip (read mli)));
  List.rev !out

(* Word -> the [.ml] files it occurs in. *)
let word_index () =
  let index = Hashtbl.create 4096 in
  List.iter
    (fun tree ->
      List.iter
        (fun ml ->
          List.iter
            (fun w ->
              let fs = Option.value ~default:[] (Hashtbl.find_opt index w) in
              if not (List.mem ml fs) then Hashtbl.replace index w (ml :: fs))
            (words (read ml)))
        (files (Filename.concat root tree) ".ml"))
    user_trees;
  index

(* Exported values with no user outside their own module. *)
let unused_exports () =
  let index = word_index () in
  files (Filename.concat root "lib") ".mli"
  |> List.concat_map (fun mli ->
         let own = Filename.remove_extension mli ^ ".ml" in
         exported_values mli
         |> List.filter (fun (_, name) ->
                List.for_all (String.equal own)
                  (Option.value ~default:[] (Hashtbl.find_opt index name)))
         |> List.map fst)

type entry = { value : string; reason : string; line : int }

let allowlist () =
  String.split_on_char '\n' (read allowlist_path)
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  |> List.map (fun (line, l) ->
         match String.index_opt l ' ' with
         | Some i ->
           { value = String.sub l 0 i; reason = String.trim (String.sub l i (String.length l - i)); line }
         | None -> { value = l; reason = ""; line })

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* Why an allowlist line cannot stand, if it cannot. *)
let malformed e =
  let name = List.nth (List.rev (String.split_on_char '.' e.value)) 0 in
  if starts_with ~prefix:"interning: " e.reason then None
  else if starts_with ~prefix:"tested: test_" e.reason then
    let test = List.hd (words (String.sub e.reason 8 (String.length e.reason - 8))) in
    let path = Filename.concat root ("test/" ^ test ^ ".ml") in
    if not (Sys.file_exists path) then Some (Printf.sprintf "names %s, which is not a test" test)
    else if not (List.mem name (words (read path))) then
      Some (Printf.sprintf "names %s, which does not use %s" test name)
    else None
  else Some "gives no reason (\"tested: test_x ...\" or \"interning: ...\")"

let test_every_export_used () =
  let listed = List.map (fun e -> e.value) (allowlist ()) in
  match List.filter (fun v -> not (List.mem v listed)) (unused_exports ()) with
  | [] -> ()
  | vs ->
    Alcotest.failf
      "exported, with no user outside their module in %s (drop from the .mli, move \
       to test/, or allowlist with a reason):\n  %s"
      (String.concat ", " user_trees) (String.concat "\n  " vs)

let test_allowlist_current () =
  let unused = unused_exports () in
  let exported =
    List.concat_map (fun mli -> List.map fst (exported_values mli))
      (files (Filename.concat root "lib") ".mli")
  in
  let problems =
    List.filter_map
      (fun e ->
        let why =
          if not (List.mem e.value exported) then Some "is not exported"
          else if not (List.mem e.value unused) then Some "has a user now"
          else malformed e
        in
        Option.map (Printf.sprintf "exports_allowlist:%d: %s %s" e.line e.value) why)
      (allowlist ())
  in
  if problems <> [] then Alcotest.failf "stale or unjustified:\n  %s" (String.concat "\n  " problems)

let () =
  Alcotest.run "exports"
    [
      ( "audit",
        [
          Alcotest.test_case "every export has a user or a reason" `Quick test_every_export_used;
          Alcotest.test_case "allowlist is current" `Quick test_allowlist_current;
        ] );
    ]
