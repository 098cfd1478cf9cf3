type format = Text | Framed

let format_name = function Text -> "text v1" | Framed -> "framed v2"

let is_framed_path path = Filename.check_suffix path ".dpf"

let is_corpus_file path =
  is_framed_path path || Filename.check_suffix path ".dpt"

let format_of_path path = if is_framed_path path then Framed else Text

(* Reads close with [close_in_noerr]: a raising close must not mask the
   decode exception as [Fun.Finally_raised]. *)
let sniff_format path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let buf = Bytes.create 7 in
  let n = input ic buf 0 7 in
  let prefix = Bytes.sub_string buf 0 n in
  let starts p = String.starts_with ~prefix:p prefix in
  if starts "DPTF" then Framed
  else if starts "dptrace" then Text
  else format_of_path path

type entry = { e_path : string; e_mtime_ms : int; e_size : int }

let scan dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter is_corpus_file
  |> List.sort compare
  |> List.filter_map (fun name ->
         let path = Filename.concat dir name in
         match Unix.stat path with
         | { Unix.st_kind = Unix.S_REG; st_mtime; st_size; _ } ->
           Some
             {
               e_path = path;
               e_mtime_ms = int_of_float (st_mtime *. 1000.0);
               e_size = st_size;
             }
         | _ -> None
         | exception Unix.Unix_error _ -> None)

type loaded = {
  l_corpus : Corpus.t;
  l_format : format;
  l_bytes : int;
  l_report : Codec_v2.report option;
}

let file_size path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  in_channel_length ic

let fold_corpus ?pool ~step ~consume (c : Corpus.t) =
  let kept = ref [] in
  Dppar.Pool.iter_batched ?pool (step c.Corpus.specs)
    (fun x -> Option.iter (fun st -> kept := st :: !kept) (consume x))
    (fun push -> List.iter push c.Corpus.streams);
  Corpus.create ~streams:(List.rev !kept) ~specs:c.Corpus.specs

(* Sniff [path], then read it with [framed] (returning the corpus and
   the recovery report) or [text] (given the whole text corpus). *)
let read path ~framed ~text =
  match
    (* The open/sniff is the [corpus.open] fault site: transient
       injected errors (and real EINTR/EAGAIN) retry with backoff; a
       spent budget surfaces through the ordinary [Error _] channel so
       callers degrade exactly as they do for a corrupt file. *)
    let fmt, bytes =
      Dpfault.Retry.run Dpfault.Corpus_open (fun () ->
          Dpfault.guard Dpfault.Corpus_open;
          (sniff_format path, file_size path))
    in
    let l_corpus, l_report =
      match fmt with
      | Framed ->
        let corpus, report = framed () in
        (corpus, Some report)
      | Text -> (text (Codec.load path), None)
    in
    { l_corpus; l_format = fmt; l_bytes = bytes; l_report }
  with
  | loaded -> Ok loaded
  | exception Wire.Corrupt m ->
    Error (Printf.sprintf "%s: corrupt corpus: %s" path m)
  | exception Codec.Parse_error { line; message } ->
    Error (Printf.sprintf "%s:%d: %s" path line message)
  | exception Sys_error m -> Error m
  | exception Dpfault.Injected { site; kind } ->
    Error
      (Printf.sprintf "%s: injected %s fault at %s exhausted the retry budget"
         path (Dpfault.kind_name kind) (Dpfault.site_name site))

let fold ?pool ?(mode = `Strict) ~step ~consume path =
  read path
    ~framed:(fun () -> Codec_v2.fold ~mode ?pool ~step ~consume path)
    ~text:(fold_corpus ?pool ~step ~consume)

let load ?pool ?(mode = `Strict) path =
  read path ~framed:(fun () -> Codec_v2.load ~mode ?pool path) ~text:Fun.id

let save ?pool path corpus =
  let fmt = format_of_path path in
  (match fmt with
  | Framed -> Codec_v2.save ?pool path corpus
  | Text -> Codec.save path corpus);
  (fmt, file_size path)
