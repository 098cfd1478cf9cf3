type t = { sock : Unix.file_descr; mutable bound_port : int; mutable open_ : bool }

let parse_spec spec =
  match String.rindex_opt spec ':' with
  | None -> (
    match int_of_string_opt (String.trim spec) with
    | Some port -> (Unix.inet_addr_loopback, port)
    | None -> failwith (Printf.sprintf "monitor: bad --listen %S" spec))
  | Some i -> (
    let host = String.sub spec 0 i in
    let port = String.sub spec (i + 1) (String.length spec - i - 1) in
    match int_of_string_opt port with
    | None -> failwith (Printf.sprintf "monitor: bad --listen port in %S" spec)
    | Some port -> (
      match Unix.inet_addr_of_string host with
      | addr -> (addr, port)
      | exception Failure _ -> (
        match Unix.gethostbyname host with
        | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
          failwith (Printf.sprintf "monitor: cannot resolve %S" host)
        | { Unix.h_addr_list; _ } -> (h_addr_list.(0), port))))

let start spec =
  let addr, port = parse_spec spec in
  (* A scraper that resets mid-response must cost one EPIPE, which
     [respond] absorbs, not the default SIGPIPE action: killing the
     process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (addr, port));
     Unix.listen sock 8
   with Unix.Unix_error (e, _, _) ->
     Unix.close sock;
     failwith
       (Printf.sprintf "monitor: cannot listen on %s: %s" spec
          (Unix.error_message e)));
  let bound_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  { sock; bound_port; open_ = true }

let port t = t.bound_port

(* Read until the blank line ending the request head, bounded in size
   and in time: every read waits in [select] for what is left of
   [deadline], so a client that connects and then sends nothing (or
   trickles) costs the loop at most that long. *)
let read_head fd ~deadline =
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 512 in
  let rec go () =
    let remain = deadline -. Unix.gettimeofday () in
    if Buffer.length buf > 8192 || remain <= 0.0 then None
    else
      match Unix.select [ fd ] [] [] remain with
      | [], _, _ -> None
      | _ :: _, _, _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 ->
          if Buffer.length buf > 0 then Some (Buffer.contents buf) else None
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          let s = Buffer.contents buf in
          let rec has_end i =
            if i + 3 >= String.length s then false
            else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r'
                    && s.[i + 3] = '\n' then true
            else has_end (i + 1)
          in
          if has_end 0 then Some s else go ()
        | exception Unix.Unix_error _ -> None)
      | exception Unix.Unix_error _ -> None
  in
  go ()

let respond fd ~status ~content_type body =
  let head =
    Printf.sprintf
      "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
       Connection: close\r\n\r\n"
      status content_type (String.length body)
  in
  let payload = head ^ body in
  let n = String.length payload in
  let rec write off =
    if off < n then
      match Unix.write_substring fd payload off (n - off) with
      | written -> write (off + written)
      | exception Unix.Unix_error _ -> ()
  in
  write 0

let openmetrics_content_type =
  "application/openmetrics-text; version=1.0.0; charset=utf-8"

let serve_client fd ~deadline ~body =
  match read_head fd ~deadline with
  | None -> respond fd ~status:"400 Bad Request" ~content_type:"text/plain" ""
  | Some head -> (
    let line =
      match String.index_opt head '\r' with
      | Some i -> String.sub head 0 i
      | None -> head
    in
    match String.split_on_char ' ' line with
    | [ "GET"; path; _ ] when path = "/" || path = "/metrics" ->
      respond fd ~status:"200 OK" ~content_type:openmetrics_content_type
        (body ())
    | [ _; _; _ ] ->
      respond fd ~status:"404 Not Found" ~content_type:"text/plain"
        "driveperf monitor serves /metrics\n"
    | _ -> respond fd ~status:"400 Bad Request" ~content_type:"text/plain" "")

let min_head_wait_s = 0.05

let poll t ~timeout_s ~body =
  if not t.open_ then false
  else
    match Unix.select [ t.sock ] [] [] timeout_s with
    | [], _, _ -> false
    | _ :: _, _, _ -> (
      (* [httpd.accept] fault site: injected EINTR (and the real thing)
         retries the accept; an exhausted budget degrades to "no
         connection this poll" — the monitor's tick loop is never
         disturbed by a flaky scrape. *)
      match
        Dpfault.Retry.run_default Dpfault.Httpd_accept
          ~default:(fun () -> None)
          (fun () ->
            Dpfault.guard Dpfault.Httpd_accept;
            Some (Unix.accept t.sock))
      with
      | None -> false
      | Some (fd, _) ->
        (* The request head must arrive within the poll budget, floored
           so a scraper accepted at the very end of one still has time
           to send it. *)
        let deadline =
          Unix.gettimeofday () +. Float.max timeout_s min_head_wait_s
        in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () -> serve_client fd ~deadline ~body);
        true
      | exception Unix.Unix_error _ -> false)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

let stop t =
  if t.open_ then begin
    t.open_ <- false;
    try Unix.close t.sock with Unix.Unix_error _ -> ()
  end
