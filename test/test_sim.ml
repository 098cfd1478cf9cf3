(* Tests for the discrete-event kernel simulator: lock semantics, device
   queueing, service calls, sampling quantisation, determinism, deadlock
   detection — plus a property that randomly generated programs always
   produce structurally valid streams. *)

module P = Dpsim.Program
module Engine = Dpsim.Engine
module Event = Dptrace.Event
module Stream = Dptrace.Stream
module Time = Dputil.Time

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest
let sig_ = Dptrace.Signature.of_string

let run_threads ?(sample_period = Time.ms 1) ?(quantize = true) threads =
  let engine = Engine.create ~sample_period ~quantize_running:quantize ~stream_id:0 () in
  let env_objects = `Engine engine in
  ignore env_objects;
  List.iter
    (fun (name, start_at, base, steps, scenario) ->
      ignore (Engine.spawn engine ?scenario ~start_at ~name ~base_stack:base steps))
    threads;
  Engine.run engine

let events_of_kind st kind =
  Array.to_list st.Stream.events |> List.filter (fun (e : Event.t) -> e.kind = kind)

(* --- running events / quantisation --- *)

let test_compute_emits_running () =
  let st =
    run_threads
      [ ("t", 0, [ sig_ "app!main" ], [ P.compute (Time.ms 5) ], None) ]
  in
  match events_of_kind st Event.Running with
  | [ e ] ->
    check Alcotest.int "cost" (Time.ms 5) e.Event.cost;
    check Alcotest.int "ts" 0 e.Event.ts;
    check (Alcotest.option Alcotest.string) "stack top" (Some "app!main")
      (Option.map Dptrace.Signature.name (Dptrace.Callstack.top e.Event.stack))
  | es -> Alcotest.failf "expected 1 running event, got %d" (List.length es)

let test_quantize_floor () =
  let st =
    run_threads
      [ ("t", 0, [ sig_ "app!m" ], [ P.compute 2_700 ], None) ]
  in
  match events_of_kind st Event.Running with
  | [ e ] -> check Alcotest.int "floored to 2ms" (Time.ms 2) e.Event.cost
  | es -> Alcotest.failf "expected 1 running event, got %d" (List.length es)

let test_quantize_drops_subsample () =
  let st =
    run_threads
      [ ("t", 0, [ sig_ "app!m" ], [ P.compute 400 ], None) ]
  in
  check Alcotest.int "no running event" 0
    (List.length (events_of_kind st Event.Running))

let test_exact_running_when_unquantized () =
  let st =
    run_threads ~quantize:false
      [ ("t", 0, [ sig_ "app!m" ], [ P.compute 431 ], None) ]
  in
  match events_of_kind st Event.Running with
  | [ e ] -> check Alcotest.int "exact" 431 e.Event.cost
  | es -> Alcotest.failf "expected 1 running event, got %d" (List.length es)

let test_compute_frame_pushed () =
  let st =
    run_threads
      [
        ( "t",
          0,
          [ sig_ "app!m" ],
          [ P.compute ~frame:(sig_ "x.sys!Work") (Time.ms 2) ],
          None );
      ]
  in
  let e = List.hd (events_of_kind st Event.Running) in
  check (Alcotest.option Alcotest.string) "frame on top" (Some "x.sys!Work")
    (Option.map Dptrace.Signature.name (Dptrace.Callstack.top e.Event.stack))

let test_call_nesting () =
  let st =
    run_threads
      [
        ( "t",
          0,
          [ sig_ "app!m" ],
          [ P.call (sig_ "a!f") [ P.call (sig_ "b!g") [ P.compute (Time.ms 1) ] ] ],
          None );
      ]
  in
  let e = List.hd (events_of_kind st Event.Running) in
  let frames =
    Dptrace.Callstack.frames e.Event.stack |> Array.to_list
    |> List.map Dptrace.Signature.name
  in
  check (Alcotest.list Alcotest.string) "stack" [ "b!g"; "a!f"; "app!m" ] frames

(* --- locks --- *)

let lock_pair ?(hold_ms = 10) () =
  let engine = Engine.create ~stream_id:0 () in
  let lock = Engine.new_lock engine ~name:"L" in
  let holder =
    Engine.spawn engine ~start_at:0 ~name:"holder" ~base_stack:[ sig_ "app!h" ]
      [ P.locked lock [ P.compute (Time.ms hold_ms) ] ]
  in
  let waiter =
    Engine.spawn engine ~start_at:(Time.ms 1) ~name:"waiter"
      ~base_stack:[ sig_ "app!w" ]
      [ P.locked lock [ P.compute (Time.ms 2) ] ]
  in
  (Engine.run engine, holder, waiter)

let test_lock_uncontended_no_wait () =
  let engine = Engine.create ~stream_id:0 () in
  let lock = Engine.new_lock engine ~name:"L" in
  let _t =
    Engine.spawn engine ~start_at:0 ~name:"t" ~base_stack:[ sig_ "app!m" ]
      [ P.locked lock [ P.compute (Time.ms 1) ] ]
  in
  let st = Engine.run engine in
  check Alcotest.int "no waits" 0 (List.length (events_of_kind st Event.Wait))

let test_lock_contention_wait () =
  let st, holder, waiter = lock_pair () in
  (match events_of_kind st Event.Wait with
  | [ w ] ->
    check Alcotest.int "waiter tid" waiter w.Event.tid;
    check Alcotest.int "wait starts at 1ms" (Time.ms 1) w.Event.ts;
    check Alcotest.int "wait lasts until release" (Time.ms 9) w.Event.cost;
    check (Alcotest.option Alcotest.string) "acquire frame" (Some "kernel!AcquireLock")
      (Option.map Dptrace.Signature.name (Dptrace.Callstack.top w.Event.stack))
  | es -> Alcotest.failf "expected 1 wait, got %d" (List.length es));
  match events_of_kind st Event.Unwait with
  | [ u ] ->
    check Alcotest.int "unwait from holder" holder u.Event.tid;
    check Alcotest.int "unwait targets waiter" waiter u.Event.wtid;
    check Alcotest.int "at release" (Time.ms 10) u.Event.ts
  | es -> Alcotest.failf "expected 1 unwait, got %d" (List.length es)

let test_lock_fifo_order () =
  let engine = Engine.create ~stream_id:0 () in
  let lock = Engine.new_lock engine ~name:"L" in
  let spawn_waiter i =
    Engine.spawn engine
      ~start_at:(Time.ms (1 + i))
      ~name:(Printf.sprintf "w%d" i)
      ~base_stack:[ sig_ "app!w" ]
      [ P.locked lock [ P.compute (Time.ms 5) ] ]
  in
  let _holder =
    Engine.spawn engine ~start_at:0 ~name:"h" ~base_stack:[ sig_ "app!h" ]
      [ P.locked lock [ P.compute (Time.ms 10) ] ]
  in
  let w0 = spawn_waiter 0 and w1 = spawn_waiter 1 and w2 = spawn_waiter 2 in
  let st = Engine.run engine in
  let unwait_targets =
    events_of_kind st Event.Unwait |> List.map (fun (e : Event.t) -> e.wtid)
  in
  check (Alcotest.list Alcotest.int) "FIFO hand-off" [ w0; w1; w2 ] unwait_targets

let test_lock_reentrant_rejected () =
  let engine = Engine.create ~stream_id:0 () in
  let lock = Engine.new_lock engine ~name:"L" in
  let _t =
    Engine.spawn engine ~start_at:0 ~name:"t" ~base_stack:[ sig_ "app!m" ]
      [ P.locked lock [ P.locked lock [ P.compute (Time.ms 1) ] ] ]
  in
  Alcotest.check_raises "re-entry" (Invalid_argument "Engine: re-entrant acquisition of L")
    (fun () -> ignore (Engine.run engine))

let test_foreign_lock_rejected () =
  let other = Engine.create ~stream_id:1 () in
  let foreign = Engine.new_lock other ~name:"F" in
  let engine = Engine.create ~stream_id:0 () in
  let _t =
    Engine.spawn engine ~start_at:0 ~name:"t" ~base_stack:[ sig_ "app!m" ]
      [ P.locked foreign [ P.compute (Time.ms 1) ] ]
  in
  Alcotest.check_raises "foreign" (Invalid_argument "Engine: foreign lock F")
    (fun () -> ignore (Engine.run engine))

(* --- devices --- *)

let test_hw_request () =
  let engine = Engine.create ~stream_id:0 () in
  let disk = Engine.new_device engine ~name:"D" ~signature:(sig_ "DiskService") in
  let t =
    Engine.spawn engine ~start_at:0 ~name:"t" ~base_stack:[ sig_ "fs.sys!Read" ]
      [ P.hw disk (Time.ms 20) ]
  in
  let st = Engine.run engine in
  (match events_of_kind st Event.Hw_service with
  | [ h ] ->
    check Alcotest.int "service cost" (Time.ms 20) h.Event.cost;
    check Alcotest.int "service start" 0 h.Event.ts
  | es -> Alcotest.failf "expected 1 hw event, got %d" (List.length es));
  match events_of_kind st Event.Wait with
  | [ w ] ->
    check Alcotest.int "requester blocked" t w.Event.tid;
    check Alcotest.int "full service time" (Time.ms 20) w.Event.cost
  | es -> Alcotest.failf "expected 1 wait, got %d" (List.length es)

let test_hw_fifo_queueing () =
  let engine = Engine.create ~stream_id:0 () in
  let disk = Engine.new_device engine ~name:"D" ~signature:(sig_ "DiskService") in
  let _a =
    Engine.spawn engine ~start_at:0 ~name:"a" ~base_stack:[ sig_ "fs.sys!Read" ]
      [ P.hw disk (Time.ms 10) ]
  in
  let b =
    Engine.spawn engine ~start_at:(Time.ms 2) ~name:"b"
      ~base_stack:[ sig_ "fs.sys!Read" ]
      [ P.hw disk (Time.ms 10) ]
  in
  let st = Engine.run engine in
  let b_wait =
    events_of_kind st Event.Wait |> List.find (fun (e : Event.t) -> e.tid = b)
  in
  (* b queues behind a: waits from 2 ms until 20 ms (queue) + 10 ms. *)
  check Alcotest.int "queueing delay included" (Time.ms 18) b_wait.Event.cost;
  let hw_spans =
    events_of_kind st Event.Hw_service
    |> List.map (fun (e : Event.t) -> (e.ts, Event.end_ts e))
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "sequential device service"
    [ (0, Time.ms 10); (Time.ms 10, Time.ms 20) ]
    hw_spans

(* --- services --- *)

let test_request_reply () =
  let engine = Engine.create ~stream_id:0 () in
  let svc =
    Engine.new_service engine ~name:"W" ~worker_stack:[ P.kernel_worker ]
  in
  let t =
    Engine.spawn engine ~start_at:0 ~name:"t" ~base_stack:[ sig_ "app!m" ]
      [ P.request svc [ P.compute (Time.ms 7) ] ]
  in
  let st = Engine.run engine in
  (match events_of_kind st Event.Wait with
  | [ w ] ->
    check Alcotest.int "requester waits" t w.Event.tid;
    check Alcotest.int "until worker done" (Time.ms 7) w.Event.cost
  | es -> Alcotest.failf "expected 1 wait, got %d" (List.length es));
  (match events_of_kind st Event.Unwait with
  | [ u ] ->
    check Alcotest.int "reply targets requester" t u.Event.wtid;
    check (Alcotest.option Alcotest.string) "worker stack" (Some "kernel!Worker")
      (Option.map Dptrace.Signature.name (Dptrace.Callstack.top u.Event.stack))
  | es -> Alcotest.failf "expected 1 unwait, got %d" (List.length es));
  (* Worker thread registered with a derived name. *)
  check Alcotest.bool "worker named" true
    (List.exists (fun (_, n) -> n = "W#0") st.Stream.threads)

(* --- idle --- *)

let test_idle_no_events () =
  let st =
    run_threads
      [
        ( "t",
          0,
          [ sig_ "app!m" ],
          [ P.idle (Time.ms 50); P.compute (Time.ms 1) ],
          Some "S" );
      ]
  in
  check Alcotest.int "only the compute event" 1 (Array.length st.Stream.events);
  let i = List.hd st.Stream.instances in
  check Alcotest.int "duration includes idle" (Time.ms 51) (Dptrace.Scenario.duration i)

(* --- instances --- *)

let test_instance_window () =
  let st =
    run_threads
      [
        ("t", Time.ms 5, [ sig_ "app!m" ], [ P.compute (Time.ms 10) ], Some "S");
      ]
  in
  match st.Stream.instances with
  | [ i ] ->
    check Alcotest.string "scenario" "S" i.Dptrace.Scenario.scenario;
    check Alcotest.int "t0 = start_at" (Time.ms 5) i.Dptrace.Scenario.t0;
    check Alcotest.int "t1 = completion" (Time.ms 15) i.Dptrace.Scenario.t1
  | l -> Alcotest.failf "expected 1 instance, got %d" (List.length l)

(* --- deadlock --- *)

let test_deadlock_detected () =
  let engine = Engine.create ~stream_id:0 () in
  let a = Engine.new_lock engine ~name:"A" in
  let b = Engine.new_lock engine ~name:"B" in
  let _t1 =
    Engine.spawn engine ~start_at:0 ~name:"t1" ~base_stack:[ sig_ "app!1" ]
      [
        P.locked a [ P.compute (Time.ms 5); P.locked b [ P.compute (Time.ms 1) ] ];
      ]
  in
  let _t2 =
    Engine.spawn engine ~start_at:0 ~name:"t2" ~base_stack:[ sig_ "app!2" ]
      [
        P.locked b [ P.compute (Time.ms 5); P.locked a [ P.compute (Time.ms 1) ] ];
      ]
  in
  match Engine.run engine with
  | exception Engine.Deadlock _ -> ()
  | _ -> Alcotest.fail "expected Deadlock"

let test_run_twice_rejected () =
  let engine = Engine.create ~stream_id:0 () in
  ignore (Engine.run engine);
  Alcotest.check_raises "already ran" (Invalid_argument "Engine.run: already ran")
    (fun () -> ignore (Engine.run engine))

(* --- determinism --- *)

let scenario_stream () =
  let engine = Engine.create ~stream_id:7 () in
  let env = Dpworkload.Env.create engine in
  let prng = Dputil.Prng.of_int 123 in
  let ctx = { Dpworkload.Motifs.env; prng } in
  let steps =
    (Dpworkload.Scenarios.browser_tab_create).Dpworkload.Scenarios.program ctx
      Dpworkload.Scenarios.Heavy
  in
  ignore
    (Engine.spawn engine ~scenario:"BrowserTabCreate" ~start_at:0 ~name:"ui"
       ~base_stack:[ sig_ "Browser!TabCreate" ]
       steps);
  Engine.run engine

let test_determinism () =
  let a = scenario_stream () and b = scenario_stream () in
  let render st =
    Fixtures.corpus_to_string
      (Dptrace.Corpus.create ~streams:[ st ] ~specs:[])
  in
  check Alcotest.string "identical streams" (render a) (render b)

(* --- Program helpers --- *)

let test_total_compute () =
  let engine = Engine.create ~stream_id:0 () in
  let lock = Engine.new_lock engine ~name:"L" in
  let steps =
    [
      P.compute (Time.ms 3);
      P.call (sig_ "a!f") [ P.compute (Time.ms 2) ];
      P.locked lock [ P.compute (Time.ms 1) ];
      P.idle (Time.ms 100);
    ]
  in
  check Alcotest.int "sums nested computes" (Time.ms 6) (Fixtures.total_compute steps);
  check Alcotest.bool "mentions lock" true (Fixtures.mentions_lock lock steps);
  let other = Engine.new_lock engine ~name:"M" in
  check Alcotest.bool "other lock absent" false (Fixtures.mentions_lock other steps)

(* --- property: random programs yield valid streams --- *)

let gen_program =
  (* Steps over a fixed lock order (acquire in index order only) so the
     generated programs are deadlock-free by construction. Recursive cases
     are eta-expanded: QCheck generators are built eagerly, so writing the
     recursion point-free would loop at construction time. *)
  let open QCheck.Gen in
  (* [min_lock] is the smallest lock index still takeable (strictly above
     any held lock); [locks_ok] is false inside Request bodies — workers
     must never take locks, or two requesters holding different locks
     could deadlock through their workers. *)
  let rec gen_steps depth ~min_lock ~locks_ok st =
    let leaf =
      [
        (4, map (fun d -> `Compute d) (int_range 100 5_000));
        (2, map (fun d -> `Hw d) (int_range 100 5_000));
      ]
    in
    let nested =
      if depth >= 3 then []
      else
        (if locks_ok && min_lock <= 2 then
           [
             ( 2,
               fun st ->
                 let l = int_range min_lock 2 st in
                 `Locked (l, gen_steps (depth + 1) ~min_lock:(l + 1) ~locks_ok st)
             );
           ]
         else [])
        @ [ (2, fun st -> `Call (gen_steps (depth + 1) ~min_lock ~locks_ok st)) ]
        @
        if depth >= 2 then []
        else
          [
            ( 1,
              fun st ->
                `Request (gen_steps (depth + 1) ~min_lock:0 ~locks_ok:false st)
            );
          ]
    in
    list_size (int_range 0 4) (frequency (leaf @ nested)) st
  in
  gen_steps 0 ~min_lock:0 ~locks_ok:true

let arbitrary_workload =
  QCheck.make
    QCheck.Gen.(list_size (int_range 1 4) (pair gen_program (int_range 0 20_000)))

let prop_random_programs_validate =
  QCheck.Test.make ~name:"random programs produce valid streams" ~count:60
    arbitrary_workload (fun threads ->
      let engine = Engine.create ~stream_id:0 () in
      let locks =
        Array.init 3 (fun i -> Engine.new_lock engine ~name:(Printf.sprintf "L%d" i))
      in
      let disk = Engine.new_device engine ~name:"D" ~signature:(sig_ "DiskService") in
      let svc = Engine.new_service engine ~name:"W" ~worker_stack:[ P.kernel_worker ] in
      let rec build steps =
        List.map
          (function
            | `Compute d -> P.compute d
            | `Hw d -> P.hw disk d
            | `Locked (l, body) -> P.locked locks.(l) (P.compute 10 :: build body)
            | `Call body -> P.call (sig_ "x.sys!F") (P.compute 10 :: build body)
            | `Request body -> P.request svc (P.compute 10 :: build body))
          steps
      in
      List.iteri
        (fun i (steps, start_at) ->
          ignore
            (Engine.spawn engine ~scenario:"S" ~start_at
               ~name:(Printf.sprintf "t%d" i)
               ~base_stack:[ sig_ "app!main" ]
               (build steps)))
        threads;
      let st = Engine.run engine in
      Fixtures.is_valid st
      && List.length st.Stream.instances = List.length threads)

(* Conservation: for a single root thread with no contention and
   unbounded CPU, the instance duration equals the sum of every timed
   operation in the program tree (request bodies run while the requester
   waits, so they count fully). *)
let rec program_demand steps =
  List.fold_left
    (fun acc step ->
      acc
      +
      match step with
      | `Compute d | `Hw d -> d
      | `Locked (_, body) | `Call body | `Request body -> program_demand body)
    0 steps

let prop_single_thread_conservation =
  QCheck.Test.make ~name:"single-thread duration = total demand" ~count:80
    (QCheck.make gen_program) (fun steps ->
      let engine = Engine.create ~stream_id:0 () in
      let locks =
        Array.init 3 (fun i -> Engine.new_lock engine ~name:(Printf.sprintf "L%d" i))
      in
      let disk = Engine.new_device engine ~name:"D" ~signature:(sig_ "DiskService") in
      let svc = Engine.new_service engine ~name:"W" ~worker_stack:[ P.kernel_worker ] in
      let rec build steps =
        List.map
          (function
            | `Compute d -> P.compute d
            | `Hw d -> P.hw disk d
            | `Locked (l, body) -> P.locked locks.(l) (build body)
            | `Call body -> P.call (sig_ "x.sys!F") (build body)
            | `Request body -> P.request svc (build body))
          steps
      in
      ignore
        (Engine.spawn engine ~scenario:"S" ~start_at:0 ~name:"t"
           ~base_stack:[ sig_ "app!main" ]
           (build steps));
      let st = Engine.run engine in
      let i = List.hd st.Stream.instances in
      Dptrace.Scenario.duration i = program_demand steps)

(* --- core-limited scheduling --- *)

let test_cores_unbounded_default () =
  (* Two 10 ms computes starting together both finish at 10 ms. *)
  let st =
    run_threads
      [
        ("a", 0, [ sig_ "app!a" ], [ P.compute (Time.ms 10) ], Some "S");
        ("b", 0, [ sig_ "app!b" ], [ P.compute (Time.ms 10) ], Some "S");
      ]
  in
  List.iter
    (fun (i : Dptrace.Scenario.instance) ->
      check Alcotest.int "parallel" (Time.ms 10) (Dptrace.Scenario.duration i))
    st.Stream.instances

let test_single_core_serializes () =
  let engine = Engine.create ~cores:1 ~stream_id:0 () in
  let a =
    Engine.spawn engine ~scenario:"S" ~start_at:0 ~name:"a"
      ~base_stack:[ sig_ "app!a" ]
      [ P.compute (Time.ms 10) ]
  in
  let b =
    Engine.spawn engine ~scenario:"S" ~start_at:0 ~name:"b"
      ~base_stack:[ sig_ "app!b" ]
      [ P.compute (Time.ms 10) ]
  in
  let st = Engine.run engine in
  check Alcotest.bool "valid" true (Fixtures.is_valid st);
  let dur tid =
    let i =
      List.find
        (fun (i : Dptrace.Scenario.instance) -> i.tid = tid)
        st.Stream.instances
    in
    Dptrace.Scenario.duration i
  in
  check Alcotest.int "first thread unslowed" (Time.ms 10) (dur a);
  check Alcotest.int "second thread queued" (Time.ms 20) (dur b);
  (* The queueing delay is a CpuQueue wait, unwaited by the releaser. *)
  let w = events_of_kind st Event.Wait |> List.hd in
  check Alcotest.int "queued thread" b w.Event.tid;
  check Alcotest.int "queue delay" (Time.ms 10) w.Event.cost;
  check (Alcotest.option Alcotest.string) "CpuQueue frame"
    (Some "kernel!CpuQueue")
    (Option.map Dptrace.Signature.name (Dptrace.Callstack.top w.Event.stack));
  let u = events_of_kind st Event.Unwait |> List.hd in
  check Alcotest.int "unwaited by releaser" a u.Event.tid

let test_two_cores_admit_two () =
  let engine = Engine.create ~cores:2 ~stream_id:0 () in
  List.iter
    (fun name ->
      ignore
        (Engine.spawn engine ~scenario:"S" ~start_at:0 ~name
           ~base_stack:[ sig_ ("app!" ^ name) ]
           [ P.compute (Time.ms 10) ]))
    [ "a"; "b"; "c" ];
  let st = Engine.run engine in
  let durations =
    List.map Dptrace.Scenario.duration st.Stream.instances |> List.sort compare
  in
  check (Alcotest.list Alcotest.int) "two parallel, one queued"
    [ Time.ms 10; Time.ms 10; Time.ms 20 ]
    durations

let test_cores_do_not_block_io () =
  (* A blocked-on-disk thread must not occupy the core. *)
  let engine = Engine.create ~cores:1 ~stream_id:0 () in
  let disk = Engine.new_device engine ~name:"D" ~signature:(sig_ "DiskService") in
  let _io =
    Engine.spawn engine ~scenario:"S" ~start_at:0 ~name:"io"
      ~base_stack:[ sig_ "app!io" ]
      [ P.hw disk (Time.ms 50) ]
  in
  let cpu =
    Engine.spawn engine ~scenario:"S" ~start_at:0 ~name:"cpu"
      ~base_stack:[ sig_ "app!cpu" ]
      [ P.compute (Time.ms 5) ]
  in
  let st = Engine.run engine in
  let i =
    List.find (fun (i : Dptrace.Scenario.instance) -> i.tid = cpu) st.Stream.instances
  in
  check Alcotest.int "compute unimpeded by the I/O wait" (Time.ms 5)
    (Dptrace.Scenario.duration i)

let test_cores_validation () =
  Alcotest.check_raises "cores >= 1"
    (Invalid_argument "Engine.create: cores must be >= 1") (fun () ->
      ignore (Engine.create ~cores:0 ~stream_id:0 ()))

let () =
  Alcotest.run "dpsim"
    [
      ( "running",
        [
          Alcotest.test_case "compute emits running" `Quick test_compute_emits_running;
          Alcotest.test_case "quantize floors" `Quick test_quantize_floor;
          Alcotest.test_case "sub-sample dropped" `Quick test_quantize_drops_subsample;
          Alcotest.test_case "exact when unquantized" `Quick
            test_exact_running_when_unquantized;
          Alcotest.test_case "compute frame" `Quick test_compute_frame_pushed;
          Alcotest.test_case "call nesting" `Quick test_call_nesting;
        ] );
      ( "locks",
        [
          Alcotest.test_case "uncontended" `Quick test_lock_uncontended_no_wait;
          Alcotest.test_case "contention" `Quick test_lock_contention_wait;
          Alcotest.test_case "FIFO order" `Quick test_lock_fifo_order;
          Alcotest.test_case "re-entrant rejected" `Quick test_lock_reentrant_rejected;
          Alcotest.test_case "foreign rejected" `Quick test_foreign_lock_rejected;
        ] );
      ( "devices",
        [
          Alcotest.test_case "hw request" `Quick test_hw_request;
          Alcotest.test_case "FIFO queueing" `Quick test_hw_fifo_queueing;
        ] );
      ("services", [ Alcotest.test_case "request/reply" `Quick test_request_reply ]);
      ( "scheduling",
        [
          Alcotest.test_case "idle" `Quick test_idle_no_events;
          Alcotest.test_case "instance window" `Quick test_instance_window;
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
          Alcotest.test_case "run twice rejected" `Quick test_run_twice_rejected;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "program",
        [
          Alcotest.test_case "total_compute/mentions_lock" `Quick test_total_compute;
          qcheck prop_random_programs_validate;
          qcheck prop_single_thread_conservation;
        ] );
      ( "cores",
        [
          Alcotest.test_case "unbounded default" `Quick test_cores_unbounded_default;
          Alcotest.test_case "single core serializes" `Quick test_single_core_serializes;
          Alcotest.test_case "two cores admit two" `Quick test_two_cores_admit_two;
          Alcotest.test_case "I/O frees the core" `Quick test_cores_do_not_block_io;
          Alcotest.test_case "validation" `Quick test_cores_validation;
        ] );
    ]
