(* One driveperf invocation: spawn, wait, and measure it from outside.

   Hygiene: the child never sees the knobs that would change what it
   does (DRIVEPERF_DOMAINS, DRIVEPERF_FAULTS, DRIVEPERF_LOG) or how its
   runtime behaves (any inherited OCAMLRUNPARAM); the only variable added
   is OCAMLRUNPARAM=v=0x400, which makes the runtime print its GC
   counters on stderr at exit. Callers always pass an explicit -j. *)

type t = {
  status : int;  (** Exit code; 128 + signal number when killed. *)
  wall_s : float;  (** Spawn to exit. *)
  cpu_s : float;  (** The child's user + sys time. *)
  exit_report : (string * float) list;
      (** The runtime's exit counters (top_heap_words, minor_words, ...). *)
  stdout : string;  (** File holding the child's standard output. *)
  stderr : string;
}

let scrubbed =
  [ "DRIVEPERF_DOMAINS"; "DRIVEPERF_FAULTS"; "DRIVEPERF_LOG"; "OCAMLRUNPARAM";
    "CAMLRUNPARAM" ]

let env =
  lazy
    (Unix.environment () |> Array.to_list
    |> List.filter (fun kv ->
           match String.index_opt kv '=' with
           | Some i -> not (List.mem (String.sub kv 0 i) scrubbed)
           | None -> true)
    |> List.cons "OCAMLRUNPARAM=v=0x400"
    |> Array.of_list)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

(* Lines "name: number" that the v=0x400 exit report prints. *)
let parse_exit_report text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match String.index_opt line ':' with
         | None -> None
         | Some i ->
           let key = String.sub line 0 i in
           let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
           if String.for_all (fun c -> c = '_' || (c >= 'a' && c <= 'z')) key
           then Option.map (fun f -> (key, f)) (float_of_string_opt v)
           else None)

let rec wait pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid

let run ~exe ~out args =
  let open_out path =
    Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644
  in
  let err = out ^ ".err" in
  let fd_in = Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 in
  let fd_out = open_out out and fd_err = open_out err in
  let t0 = Unix.times () in
  let w0 = Unix.gettimeofday () in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ fd_in; fd_out; fd_err ])
      (fun () ->
        Unix.create_process_env exe
          (Array.of_list (exe :: args))
          (Lazy.force env) fd_in fd_out fd_err)
  in
  let status = wait pid in
  let w1 = Unix.gettimeofday () in
  let t1 = Unix.times () in
  let status =
    match status with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + abs s
  in
  {
    status;
    wall_s = w1 -. w0;
    cpu_s =
      t1.Unix.tms_cutime -. t0.Unix.tms_cutime
      +. (t1.Unix.tms_cstime -. t0.Unix.tms_cstime);
    exit_report = parse_exit_report (read_file err);
    stdout = out;
    stderr = err;
  }

let counter t name = List.assoc_opt name t.exit_report
