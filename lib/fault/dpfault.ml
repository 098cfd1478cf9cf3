type site =
  | Corpus_open
  | Corpus_read
  | Snapshot_write
  | Monitor_stat
  | Monitor_tail
  | Monitor_write
  | Httpd_accept
  | Pool_task

let all_sites =
  [
    Corpus_open; Corpus_read; Snapshot_write; Monitor_stat; Monitor_tail;
    Httpd_accept; Pool_task; Monitor_write;
  ]

let site_index = function
  | Corpus_open -> 0
  | Corpus_read -> 1
  | Snapshot_write -> 2
  | Monitor_stat -> 3
  | Monitor_tail -> 4
  | Httpd_accept -> 5
  | Pool_task -> 6
  | Monitor_write -> 7

let n_sites = List.length all_sites

let site_name = function
  | Corpus_open -> "corpus.open"
  | Corpus_read -> "corpus.read"
  | Snapshot_write -> "snapshot.write"
  | Monitor_stat -> "monitor.stat"
  | Monitor_tail -> "monitor.tail"
  | Monitor_write -> "monitor.write"
  | Httpd_accept -> "httpd.accept"
  | Pool_task -> "pool.task"

let site_of_name name =
  List.find_opt (fun s -> site_name s = name) all_sites

type kind =
  | Eintr
  | Eagain
  | Fail
  | Short_read
  | Torn_write
  | Stat_race
  | Latency of int

let kind_name = function
  | Eintr -> "eintr"
  | Eagain -> "eagain"
  | Fail -> "fail"
  | Short_read -> "short"
  | Torn_write -> "torn"
  | Stat_race -> "race"
  | Latency ms -> Printf.sprintf "latency%d" ms

exception Injected of { site : site; kind : kind }

let () =
  Printexc.register_printer (function
    | Injected { site; kind } ->
      Some
        (Printf.sprintf "Dpfault.Injected(%s, %s)" (site_name site)
           (kind_name kind))
    | _ -> None)

type rule = { r_kind : kind; r_prob : float; r_attempts : int option }
type plan = { p_seed : int; p_rules : (site * rule) list; p_spec : string }

(* --- parsing --- *)

let presets =
  [
    ( "io-flaky",
      "corpus.open=eagain@0.2,corpus.read=eintr@0.25,monitor.stat=race@0.2,\
       monitor.tail=eintr@0.2,httpd.accept=eintr@0.3" );
    ("torn-writes", "snapshot.write=torn@0.5");
    ( "slow-disk",
      "corpus.open=latency2@0.5,corpus.read=latency1@0.3,\
       pool.task=latency1@0.2" );
  ]

let kind_of_string s =
  match s with
  | "eintr" -> Some Eintr
  | "eagain" -> Some Eagain
  | "fail" -> Some Fail
  | "short" -> Some Short_read
  | "torn" -> Some Torn_write
  | "race" -> Some Stat_race
  | _ ->
    if String.length s > 7 && String.sub s 0 7 = "latency" then
      match int_of_string_opt (String.sub s 7 (String.length s - 7)) with
      | Some ms when ms >= 0 -> Some (Latency ms)
      | _ -> None
    else None

let parse_clause clause =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match String.index_opt clause '=' with
  | None -> fail "fault clause %S: want site=kind@prob[!attempts]" clause
  | Some eq -> (
    let sname = String.sub clause 0 eq in
    let rest = String.sub clause (eq + 1) (String.length clause - eq - 1) in
    match site_of_name sname with
    | None ->
      fail "unknown fault site %S (known: %s)" sname
        (String.concat ", " (List.map site_name all_sites))
    | Some site -> (
      let rest, attempts =
        match String.index_opt rest '!' with
        | None -> (rest, Ok None)
        | Some bang -> (
          let n = String.sub rest (bang + 1) (String.length rest - bang - 1) in
          ( String.sub rest 0 bang,
            match int_of_string_opt n with
            | Some a when a >= 1 -> Ok (Some a)
            | _ -> fail "fault clause %S: bad attempts %S" clause n ))
      in
      let kname, prob =
        match String.index_opt rest '@' with
        | None -> (rest, Ok 1.0)
        | Some at -> (
          let p = String.sub rest (at + 1) (String.length rest - at - 1) in
          ( String.sub rest 0 at,
            match float_of_string_opt p with
            | Some p when p >= 0.0 && p <= 1.0 -> Ok p
            | _ -> fail "fault clause %S: bad probability %S" clause p ))
      in
      match (kind_of_string kname, prob, attempts) with
      | None, _, _ ->
        fail
          "fault clause %S: unknown kind %S (want eintr, eagain, fail, \
           short, torn, race or latencyN)"
          clause kname
      | _, (Error _ as e), _ | _, _, (Error _ as e) -> e
      | Some kind, Ok prob, Ok attempts ->
        Ok (site, { r_kind = kind; r_prob = prob; r_attempts = attempts })))

let parse text =
  match String.index_opt text ':' with
  | None ->
    Error
      (Printf.sprintf
         "fault plan %S: want SEED:SPEC (SPEC a preset — %s — or \
          site=kind@prob[!attempts] clauses)"
         text
         (String.concat ", " (List.map fst presets)))
  | Some colon -> (
    let seed_s = String.sub text 0 colon in
    let spec = String.sub text (colon + 1) (String.length text - colon - 1) in
    match int_of_string_opt (String.trim seed_s) with
    | None -> Error (Printf.sprintf "fault plan %S: bad seed %S" text seed_s)
    | Some seed -> (
      let spec =
        match List.assoc_opt (String.trim spec) presets with
        | Some expansion -> expansion
        | None -> spec
      in
      let clauses =
        String.split_on_char ',' spec
        |> List.map String.trim
        |> List.filter (fun c -> c <> "")
      in
      if clauses = [] then
        Error (Printf.sprintf "fault plan %S: empty spec" text)
      else
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | c :: rest -> (
            match parse_clause c with
            | Error _ as e -> e
            | Ok ((site, _) as r) ->
              if List.mem_assoc site acc then
                Error
                  (Printf.sprintf "fault plan %S: duplicate site %s" text
                     (site_name site))
              else go (r :: acc) rest)
        in
        match go [] clauses with
        | Error _ as e -> e
        | Ok rules ->
          Ok
            {
              p_seed = seed;
              p_rules = rules;
              p_spec = Printf.sprintf "%d:%s" seed spec;
            }))

(* --- the switch --- *)

let armed_flag = Atomic.make false
let plan_cell : plan option Atomic.t = Atomic.make None
let counters = Array.init n_sites (fun _ -> Atomic.make 0)

let install plan =
  Array.iter (fun c -> Atomic.set c 0) counters;
  Atomic.set plan_cell (Some plan);
  Atomic.set armed_flag true

let clear () =
  Atomic.set armed_flag false;
  Atomic.set plan_cell None

let armed () = Atomic.get armed_flag
let call_count site = Atomic.get counters.(site_index site)

(* --- telemetry (lazy: no registry churn when never armed) --- *)

let injected_c = Dpobs.Metrics.lazy_counter "fault.injected"
let attempts_c = Dpobs.Metrics.lazy_counter "retry.attempts"
let gave_up_c = Dpobs.Metrics.lazy_counter "retry.gave_up"

(* --- the decision function --- *)

(* The draw for call [i] at [site] is a pure function of
   (seed, site, i): a SplitMix64 generator seeded from their mix. The
   golden-ratio multiplier spreads consecutive indices across the seed
   space; [Prng.create] mixes further on every output. *)
let draw plan site i =
  match List.assoc_opt site plan.p_rules with
  | None -> None
  | Some r ->
    let mixed =
      Int64.logxor
        (Int64.mul (Int64.of_int plan.p_seed) 0x9E3779B97F4A7C15L)
        (Int64.of_int (((site_index site + 1) * 0x100000) lxor i))
    in
    let g = Dputil.Prng.create mixed in
    if Dputil.Prng.chance g r.r_prob then Some r.r_kind else None

let check site =
  if not (Atomic.get armed_flag) then None
  else
    match Atomic.get plan_cell with
    | None -> None
    | Some plan -> (
      let i = Atomic.fetch_and_add counters.(site_index site) 1 in
      match draw plan site i with
      | None -> None
      | Some kind ->
        Dpobs.Metrics.incr (injected_c ());
        Some kind)

let act site kind =
  match kind with
  | Latency ms -> if ms > 0 then Unix.sleepf (float_of_int ms /. 1000.0)
  | _ -> raise (Injected { site; kind })

let guard site =
  match check site with None -> () | Some kind -> act site kind

(* --- retry --- *)

module Retry = struct
  (* At the presets' probabilities the chance of a budget of 8
     exhausting is below 1e-4 per call, so default budgets absorb
     [io-flaky] without quarantining anything. *)
  let default_attempts = 8
  let base_backoff_s = 0.0002
  let max_backoff_s = 0.005

  let budget site =
    match Atomic.get plan_cell with
    | None -> default_attempts
    | Some plan -> (
      match List.assoc_opt site plan.p_rules with
      | Some { r_attempts = Some a; _ } -> a
      | _ -> default_attempts)

  let transient = function
    | Injected _ -> true
    | Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      true
    | _ -> false

  (* Exponential backoff with deterministic jitter: attempt [n] sleeps
     [base * 2^n * j] with [j] in [0.5, 1), the jitter drawn from a
     generator seeded by (plan seed, site, attempt) so a replayed plan
     also replays its sleep schedule. *)
  let backoff site attempt =
    let seed =
      match Atomic.get plan_cell with Some p -> p.p_seed | None -> 0
    in
    let g =
      Dputil.Prng.create
        (Int64.logxor
           (Int64.mul (Int64.of_int seed) 0x2545F4914F6CDD1DL)
           (Int64.of_int (((site_index site + 1) * 0x4000) lxor attempt)))
    in
    let jitter = 0.5 +. Dputil.Prng.float g 0.5 in
    Float.min max_backoff_s
      (base_backoff_s *. float_of_int (1 lsl min attempt 10) *. jitter)

  let run site f =
    let budget = budget site in
    let rec go attempt =
      match f () with
      | v -> v
      | exception e when transient e ->
        if attempt + 1 >= budget then begin
          Dpobs.Metrics.incr (gave_up_c ());
          Dpobs.Log.debug "fault: %s gave up after %d attempt(s): %s"
            (site_name site) budget (Printexc.to_string e);
          raise e
        end
        else begin
          Dpobs.Metrics.incr (attempts_c ());
          Unix.sleepf (backoff site attempt);
          go (attempt + 1)
        end
    in
    go 0

  let run_default site ~default f =
    match run site f with v -> v | exception e when transient e -> default ()
end

(* --- describe --- *)

let describe plan =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "plan %s (seed %d)\n" plan.p_spec plan.p_seed);
  Buffer.add_string buf
    (Printf.sprintf "%-16s %-10s %6s %9s\n" "site" "kind" "prob" "attempts");
  List.iter
    (fun site ->
      match List.assoc_opt site plan.p_rules with
      | None -> ()
      | Some r ->
        Buffer.add_string buf
          (Printf.sprintf "%-16s %-10s %6.3f %9d\n" (site_name site)
             (kind_name r.r_kind) r.r_prob
             (match r.r_attempts with
             | Some a -> a
             | None -> Retry.default_attempts)))
    all_sites;
  Buffer.contents buf
