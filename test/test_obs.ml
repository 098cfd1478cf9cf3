(* Tests for the self-telemetry layer (lib/obs): disabled-mode really is
   free, counters stay exact under the domain pool, spans stay
   well-formed under the domain pool, and the Chrome trace export is
   valid JSON with the shape Perfetto expects. *)

module Obs = Dpobs
module Pool = Dppar.Pool

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* The in-test JSON parser lives in Tjson (shared with test_report). *)

module Json = Tjson

(* --- disabled mode --- *)

let test_disabled_records_nothing () =
  Obs.disable ();
  let buffers_before = Obs.Span.buffer_count () in
  let events_before = List.length (Obs.Span.events ()) in
  let c = Obs.Metrics.counter "test.disabled" in
  let v_before = Obs.Metrics.counter_value c in
  for _ = 1 to 1000 do
    Obs.Span.with_span "test.off" (fun () -> ());
    Obs.Metrics.incr c
  done;
  check Alcotest.int "no new buffers" buffers_before (Obs.Span.buffer_count ());
  check Alcotest.int "no new events" events_before
    (List.length (Obs.Span.events ()));
  check Alcotest.int "counter untouched" v_before (Obs.Metrics.counter_value c)

let test_disabled_allocates_nothing () =
  Obs.disable ();
  let f = Sys.opaque_identity (fun () -> ()) in
  (* Warm up so any one-time allocation is out of the way. *)
  for _ = 1 to 100 do
    Obs.Span.with_span "test.alloc" f
  done;
  let iters = 100_000 in
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    Obs.Span.with_span "test.alloc" f
  done;
  let words = Gc.minor_words () -. before in
  (* Zero words per call; allow slack for the Gc.minor_words calls
     themselves, but far below one word per span. *)
  if words > float_of_int (iters / 10) then
    Alcotest.failf "disabled span allocated %.0f minor words over %d calls"
      words iters

let test_disabled_value_passthrough () =
  Obs.disable ();
  check Alcotest.int "result" 42 (Obs.Span.with_span "x" (fun () -> 42));
  Alcotest.check_raises "exception" Exit (fun () ->
      Obs.Span.with_span "x" (fun () -> raise Exit))

(* --- metrics --- *)

let test_counter_atomicity_under_pool () =
  Obs.enable ~spans:false ();
  let c = Obs.Metrics.counter "test.atomic" in
  let v0 = Obs.Metrics.counter_value c in
  let tasks0 = Obs.Metrics.counter_value (Obs.Metrics.counter "pool.tasks") in
  Pool.with_pool ~domains:4 (fun pool ->
      ignore
        (Pool.parallel_map ~chunk:1 pool
           (fun _ ->
             for _ = 1 to 1000 do
               Obs.Metrics.incr c
             done)
           (List.init 100 Fun.id)));
  check Alcotest.int "100 tasks x 1000 increments" (v0 + 100_000)
    (Obs.Metrics.counter_value c);
  let tasks = Obs.Metrics.counter_value (Obs.Metrics.counter "pool.tasks") in
  if tasks <= tasks0 then
    Alcotest.failf "pool.tasks did not advance (%d -> %d)" tasks0 tasks;
  Obs.disable ()

(* The caller sleeps while its oldest item runs on the worker and no
   task is queued: that wait is [pool.wait_us]. Items the worker runs
   take 10 ms, the caller's own none, and the caller pushes an item a
   millisecond, so the worker finds items to run. *)
let test_pool_wait_counted () =
  Obs.enable ~spans:false ();
  let wait () = Obs.Metrics.counter_value (Obs.Metrics.counter "pool.wait_us") in
  let before = wait () and caller = Domain.self () in
  Pool.with_pool ~domains:2 (fun pool ->
      Pool.iter_window ~pool
        (fun _ -> if Domain.self () <> caller then Unix.sleepf 0.01)
        ignore
        (fun push -> for i = 1 to 20 do push i; Unix.sleepf 0.001 done));
  let waited = wait () - before in
  Obs.disable ();
  if waited <= 0 then Alcotest.failf "pool.wait_us did not advance (%d us)" waited

(* Regression: counters registered on first use were [lazy] values, and
   a [lazy] forced by two domains at once raises [Lazy.Undefined]. Forced
   in a pool worker after its job, that killed the worker and hung the
   caller. Each round releases three domains onto a fresh getter at once. *)
let test_lazy_counter_racing_domains () =
  for round = 1 to 200 do
    let name = Printf.sprintf "test.lazy_counter.%d" round in
    let get = Obs.Metrics.lazy_counter name in
    let go = Atomic.make false in
    let race () =
      while not (Atomic.get go) do
        Domain.cpu_relax ()
      done;
      get ()
    in
    let others = List.init 2 (fun _ -> Domain.spawn race) in
    Atomic.set go true;
    let mine = race () in
    List.iter
      (fun d ->
        if Domain.join d != mine then
          Alcotest.failf "round %d: two counters for %s" round name)
      others;
    if Obs.Metrics.counter name != mine then
      Alcotest.failf "round %d: not the registered counter" round
  done

let test_metric_kinds_and_values () =
  Obs.enable ~spans:false ();
  let c = Obs.Metrics.counter "test.kinds.c" in
  Obs.Metrics.add c 7;
  Obs.Metrics.incr c;
  check Alcotest.int "counter" 8 (Obs.Metrics.counter_value c);
  let g = Obs.Metrics.gauge "test.kinds.g" in
  Obs.Metrics.set g 5;
  Obs.Metrics.set_max g 3;
  check Alcotest.int "set_max keeps larger" 5 (Obs.Metrics.gauge_value g);
  Obs.Metrics.set_max g 9;
  check Alcotest.int "set_max raises" 9 (Obs.Metrics.gauge_value g);
  let h = Obs.Metrics.histogram "test.kinds.h" in
  List.iter (Obs.Metrics.observe h) [ 1.0; 2.0; 3.0 ];
  (match Obs.Metrics.dump ~prefix:"test.kinds.h" () with
  | [ (_, Obs.Metrics.Histogram hs) ] ->
    check Alcotest.int "h count" 3 hs.Obs.Metrics.count;
    check (Alcotest.float 1e-9) "h sum" 6.0 hs.Obs.Metrics.sum
  | other -> Alcotest.failf "unexpected dump shape (%d entries)" (List.length other));
  (* Same name, different kind: refused. *)
  (try
     ignore (Obs.Metrics.gauge "test.kinds.c");
     Alcotest.fail "kind mismatch accepted"
   with Invalid_argument _ -> ());
  let rendered = Obs.Metrics.render ~prefix:"test.kinds." () in
  check Alcotest.bool "render has counter line" true
    (contains rendered "test.kinds.c = 8");
  Obs.disable ()

let test_watcher () =
  Obs.enable ~spans:false ();
  let c = Obs.Metrics.counter "test.watch" in
  let seen = ref [] in
  Obs.Metrics.watch c (fun v -> seen := v :: !seen);
  Obs.Metrics.incr c;
  Obs.Metrics.add c 2;
  Obs.Metrics.unwatch c;
  Obs.Metrics.incr c;
  check Alcotest.(list int) "watcher saw each update" [ 3; 1 ] !seen;
  Obs.disable ()

(* --- spans --- *)

let test_span_nesting_and_durations () =
  Obs.enable ~metrics:false ();
  Obs.Span.clear ();
  Obs.Span.with_span "outer" (fun () ->
      Obs.Span.with_span "inner" (fun () -> ());
      Obs.Span.with_span "inner" (fun () -> ()));
  (try Obs.Span.with_span "raiser" (fun () -> raise Exit) with Exit -> ());
  Obs.disable ();
  let durations = Obs.Span.durations () in
  let count name =
    match List.find_opt (fun (n, _, _) -> n = name) durations with
    | Some (_, n, _) -> n
    | None -> 0
  in
  check Alcotest.int "outer once" 1 (count "outer");
  check Alcotest.int "inner twice" 2 (count "inner");
  check Alcotest.int "raising span still closed" 1 (count "raiser");
  let _, _, outer_ns = List.find (fun (n, _, _) -> n = "outer") durations in
  let _, _, inner_ns = List.find (fun (n, _, _) -> n = "inner") durations in
  if Int64.compare outer_ns inner_ns < 0 then
    Alcotest.fail "outer span shorter than the inner spans it contains"

let qcheck_spans_well_formed_under_pool =
  QCheck.Test.make ~count:30 ~name:"span B/E balanced per domain under pool"
    QCheck.(list_of_size (Gen.int_range 1 20) (int_range 1 5))
    (fun depths ->
      Obs.enable ~metrics:false ();
      Obs.Span.clear ();
      let rec nest d =
        if d > 0 then
          Obs.Span.with_span (Printf.sprintf "q%d" d) (fun () -> nest (d - 1))
      in
      Pool.with_pool ~domains:4 (fun pool ->
          ignore (Pool.parallel_map ~chunk:1 pool nest depths));
      Obs.disable ();
      let events = Obs.Span.events () in
      (* Replay each domain's events against a stack: every E must match
         the innermost open B, and nothing may stay open. *)
      let stacks = Hashtbl.create 8 in
      let ok = ref true in
      List.iter
        (fun (ev : Obs.Span.event) ->
          let stack =
            match Hashtbl.find_opt stacks ev.Obs.Span.tid with
            | Some s -> s
            | None ->
              let s = ref [] in
              Hashtbl.add stacks ev.Obs.Span.tid s;
              s
          in
          match ev.Obs.Span.phase with
          | Obs.Span.B -> stack := ev.Obs.Span.name :: !stack
          | Obs.Span.E -> (
            match !stack with
            | top :: rest when top = ev.Obs.Span.name -> stack := rest
            | _ -> ok := false))
        events;
      Hashtbl.iter (fun _ stack -> if !stack <> [] then ok := false) stacks;
      let total_depth = List.fold_left ( + ) 0 depths in
      !ok && List.length events = 2 * total_depth)

(* --- exports --- *)

let test_chrome_trace_valid () =
  Obs.enable ~metrics:false ();
  Obs.Span.clear ();
  Obs.Span.with_span "alpha" (fun () ->
      Obs.Span.with_span ~args:[ ("k", "quote\"back\\slash\n") ] "beta"
        (fun () -> ()));
  Obs.disable ();
  let json = Json.parse (Obs.Export.chrome_trace ()) in
  let events =
    match Json.member "traceEvents" json with
    | Some (Json.Arr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let phase e = Option.bind (Json.member "ph" e) Json.str in
  let bs = List.filter (fun e -> phase e = Some "B") events in
  let es = List.filter (fun e -> phase e = Some "E") events in
  check Alcotest.int "balanced B/E" (List.length bs) (List.length es);
  check Alcotest.int "two spans" 2 (List.length bs);
  List.iter
    (fun e ->
      if Json.member "name" e = None then Alcotest.fail "event without name";
      (match Option.bind (Json.member "pid" e) Json.num with
      | Some 1.0 -> ()
      | _ -> Alcotest.fail "pid must be 1");
      if Option.bind (Json.member "tid" e) Json.num = None then
        Alcotest.fail "event without tid";
      match Option.bind (Json.member "ts" e) Json.num with
      | Some ts when ts >= 0.0 -> ()
      | _ -> Alcotest.fail "ts missing or negative")
    (bs @ es);
  let thread_meta =
    List.exists
      (fun e ->
        phase e = Some "M"
        && Option.bind (Json.member "name" e) Json.str = Some "thread_name")
      events
  in
  check Alcotest.bool "thread_name metadata present" true thread_meta

let test_metrics_json_valid () =
  Obs.enable ~spans:false ();
  Obs.Metrics.add (Obs.Metrics.counter "test.export.c") 11;
  List.iter
    (Obs.Metrics.observe (Obs.Metrics.histogram "test.export.h"))
    [ 1.0; 2.0; 3.0; 4.0 ];
  Obs.disable ();
  let json = Json.parse (Obs.Export.metrics_json ()) in
  (match
     Option.bind (Json.member "counters" json) (Json.member "test.export.c")
   with
  | Some (Json.Num 11.0) -> ()
  | _ -> Alcotest.fail "counter missing from metrics json");
  match
    Option.bind (Json.member "histograms" json) (Json.member "test.export.h")
  with
  | Some h ->
    check
      (Alcotest.option (Alcotest.float 1e-9))
      "histogram count" (Some 4.0)
      (Option.bind (Json.member "count" h) Json.num)
  | None -> Alcotest.fail "histogram missing from metrics json"

(* --- logging --- *)

let test_log_levels_and_sink () =
  let lines = ref [] in
  Dputil.Logf.set_sink (fun level msg ->
      lines := (Dputil.Logf.level_name level, msg) :: !lines);
  Obs.Log.set_level Obs.Log.Info;
  Obs.Log.error "e %d" 1;
  Obs.Log.warn "w";
  Obs.Log.info "i";
  Obs.Log.debug "d(never, costs %s)" (String.make 3 'x');
  Obs.Log.set_level Obs.Log.Warn;
  Obs.Log.info "i2";
  check
    Alcotest.(list (pair string string))
    "info threshold passes error/warn/info only"
    [ ("error", "e 1"); ("warn", "w"); ("info", "i") ]
    (List.rev !lines);
  check Alcotest.bool "level_of_string warning" true
    (Obs.Log.level_of_string "WARNING" = Ok Obs.Log.Warn);
  check Alcotest.bool "level_of_string junk" true
    (match Obs.Log.level_of_string "blah" with Error _ -> true | Ok _ -> false);
  (* Silence the sink for any later logging in this binary. *)
  Dputil.Logf.set_sink (fun _ _ -> ())

let () =
  Alcotest.run "obs"
    [
      ( "disabled",
        [
          Alcotest.test_case "records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "allocates nothing" `Quick
            test_disabled_allocates_nothing;
          Alcotest.test_case "value passthrough" `Quick
            test_disabled_value_passthrough;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter atomicity under pool" `Quick
            test_counter_atomicity_under_pool;
          Alcotest.test_case "pool.wait_us counts the caller's waits" `Quick
            test_pool_wait_counted;
          Alcotest.test_case "lazy counter from racing domains" `Quick
            test_lazy_counter_racing_domains;
          Alcotest.test_case "kinds and values" `Quick
            test_metric_kinds_and_values;
          Alcotest.test_case "watcher" `Quick test_watcher;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and durations" `Quick
            test_span_nesting_and_durations;
          qcheck qcheck_spans_well_formed_under_pool;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace valid" `Quick test_chrome_trace_valid;
          Alcotest.test_case "metrics json valid" `Quick test_metrics_json_valid;
        ] );
      ( "log",
        [ Alcotest.test_case "levels and sink" `Quick test_log_levels_and_sink ] );
    ]
