type format = Text | Framed

let format_name = function Text -> "text v1" | Framed -> "framed v2"

let format_of_path path = if Filename.check_suffix path ".dpf" then Framed else Text
let is_corpus_file path = format_of_path path = Framed || Filename.check_suffix path ".dpt"

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

let fold_streams ?pool ~step ~consume feed =
  let kept = ref [] and specs = ref [] in
  Dppar.Pool.iter_window ?pool
    (fun (specs, st) -> step specs (Codec_v2.resident st))
    (fun x -> Option.iter (fun st -> kept := st :: !kept) (consume x))
    (fun push -> specs := feed (fun specs st -> push (specs, st)));
  Corpus.create ~streams:(List.rev !kept) ~specs:!specs

let fold ?pool ?(mode = `Strict) ~step ~consume path =
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
        let corpus, report = Codec_v2.fold ~mode ?pool ~step ~consume path in
        (corpus, Some report)
      | Text -> (fold_streams ?pool ~step ~consume (Codec.read path), None)
    in
    { l_corpus; l_format = fmt; l_bytes = bytes; l_report }
  with
  | loaded -> Ok loaded
  | exception Wire.Corrupt m ->
    Error (Printf.sprintf "%s: corrupt corpus: %s" path m)
  | exception Fields.Parse_error { line; message } ->
    Error (Printf.sprintf "%s:%d: %s" path line message)
  | exception Sys_error _ when Sys.file_exists path && Sys.is_directory path ->
    Error (path ^ ": is a directory, not a corpus file")
  | exception Sys_error m -> Error m
  | exception Dpfault.Injected { site; kind } ->
    Error
      (Printf.sprintf "%s: injected %s fault at %s exhausted the retry budget"
         path (Dpfault.kind_name kind) (Dpfault.site_name site))

let load ?pool ?mode path =
  fold ?pool ?mode ~step:(fun _ f -> Codec_v2.frame_stream f) ~consume:Option.some path

(* The steps, on pool workers, only look [wanted] up; [consume], on the
   calling domain, marks each key seen. *)
let reload ?pool ?mode path keys =
  let wanted = Hashtbl.of_seq (Seq.map (fun k -> (k, ref false)) (List.to_seq keys)) in
  let step _ f =
    Option.map
      (fun seen -> (seen, Codec_v2.frame_stream f))
      (Hashtbl.find_opt wanted (Codec_v2.frame_key f))
  in
  let consume = function
    | Some (seen, st) when not !seen -> seen := true; Some st
    | _ -> None
  in
  match fold ?pool ?mode ~step ~consume path with
  | Ok l when Hashtbl.fold (fun _ seen all -> all && !seen) wanted true ->
    Ok l.l_corpus.Corpus.streams
  | Ok _ -> Error (path ^ " changed since it was read")
  | Error msg -> Error msg

let save ?pool path corpus =
  let fmt = format_of_path path in
  (match fmt with
  | Framed -> Codec_v2.save ?pool path corpus
  | Text -> Codec.save path corpus);
  (fmt, file_size path)
