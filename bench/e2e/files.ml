(* File-system helpers for the bench's work directory. *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let copy_file src dst =
  let ic = open_in_bin src in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let oc = open_out_bin dst in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  let buf = Bytes.create 65536 in
  let rec go () =
    let n = input ic buf 0 (Bytes.length buf) in
    if n > 0 then (output oc buf 0 n; go ())
  in
  go ()

(* Fresh copy of a flat directory (a snapshot cache holds no subdirs). *)
let copy_dir src dst =
  rm_rf dst;
  Unix.mkdir dst 0o755;
  Array.iter
    (fun n -> copy_file (Filename.concat src n) (Filename.concat dst n))
    (Sys.readdir src)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc contents

let size path = (Unix.stat path).Unix.st_size
let digest path = Digest.to_hex (Digest.file path)
