(* Tests for Wait Graph construction (Definition 1). *)

module P = Dpsim.Program
module Engine = Dpsim.Engine
module WG = Dpwaitgraph.Wait_graph
module Event = Dptrace.Event
module Stream = Dptrace.Stream
module Time = Dputil.Time

let check = Alcotest.check
let sig_ = Dptrace.Signature.of_string

(* A two-thread contention stream: holder takes L for 10 ms, victim (the
   scenario instance) blocks on L. *)
let contention_stream () =
  let engine = Engine.create ~stream_id:0 () in
  let lock = Engine.new_lock engine ~name:"L" in
  let _holder =
    Engine.spawn engine ~start_at:0 ~name:"holder" ~base_stack:[ sig_ "bg!work" ]
      [ P.locked lock [ P.compute ~frame:(sig_ "d.sys!Hold") (Time.ms 10) ] ]
  in
  let _victim =
    Engine.spawn engine ~scenario:"S" ~start_at:(Time.ms 1) ~name:"victim"
      ~base_stack:[ sig_ "app!op" ]
      [
        P.compute (Time.ms 1);
        P.call (sig_ "d.sys!Get") [ P.locked lock [ P.compute (Time.ms 2) ] ];
      ]
  in
  let st = Engine.run engine in
  (st, List.hd st.Stream.instances)

let test_roots_are_initiating_thread () =
  let st, inst = contention_stream () in
  let g = WG.build st inst in
  List.iter
    (fun n ->
      check Alcotest.int "root tid" inst.Dptrace.Scenario.tid
        n.WG.event.Event.tid)
    g.WG.roots;
  check Alcotest.bool "has roots" true (g.WG.roots <> [])

let test_wait_expansion () =
  let st, inst = contention_stream () in
  let g = WG.build st inst in
  let wait_node =
    List.find (fun n -> Event.is_wait n.WG.event) g.WG.roots
  in
  (* The victim's wait must carry its waker and expose the holder's
     running event as a child. *)
  (match wait_node.WG.waker with
  | Some u -> check Alcotest.int "waker targets victim" inst.Dptrace.Scenario.tid u.Event.wtid
  | None -> Alcotest.fail "wait node has no waker");
  check Alcotest.bool "holder activity visible" true
    (List.exists
       (fun c ->
         Event.is_running c.WG.event
         && Option.map Dptrace.Signature.name (Dptrace.Callstack.top c.WG.event.Event.stack)
            = Some "d.sys!Hold")
       wait_node.WG.children)

let test_no_unwait_nodes () =
  let st, inst = contention_stream () in
  let g = WG.build st inst in
  WG.iter_nodes g (fun n ->
      check Alcotest.bool "no unwait node" false (Event.is_unwait n.WG.event))

let test_iter_nodes_unique () =
  let case = Dpworkload.Motivating_case.build () in
  let g =
    WG.build case.Dpworkload.Motivating_case.stream
      case.Dpworkload.Motivating_case.browser_instance
  in
  let seen = Hashtbl.create 64 in
  WG.iter_nodes g (fun n ->
      check Alcotest.bool "visited once" false (Hashtbl.mem seen n.WG.event.Event.id);
      Hashtbl.replace seen n.WG.event.Event.id ());
  check Alcotest.int "node_count agrees" (Hashtbl.length seen) (WG.node_count g)

let test_motivating_case_depth_and_leaf () =
  let case = Dpworkload.Motivating_case.build () in
  let g =
    WG.build case.Dpworkload.Motivating_case.stream
      case.Dpworkload.Motivating_case.browser_instance
  in
  check Alcotest.bool "deep propagation chain" true (WG.depth g >= 5);
  (* The chain must bottom out in the disk service. *)
  let has_disk = ref false in
  WG.iter_nodes g (fun n ->
      if Fixtures.is_hw_service n.WG.event then has_disk := true);
  check Alcotest.bool "hardware leaf reached" true !has_disk;
  check Alcotest.bool "accumulated wait exceeds instance" true
    (WG.wait_time g
    > Dptrace.Scenario.duration case.Dpworkload.Motivating_case.browser_instance)

let test_instance_window_excludes_outside_events () =
  let engine = Engine.create ~stream_id:0 () in
  let tid =
    Engine.spawn engine ~start_at:0 ~name:"t" ~base_stack:[ sig_ "app!m" ]
      [ P.compute (Time.ms 5); P.idle (Time.ms 100); P.compute (Time.ms 5) ]
  in
  let st = Engine.run engine in
  (* Craft an instance window that covers only the first compute. *)
  let inst = { Dptrace.Scenario.scenario = "S"; tid; t0 = 0; t1 = Time.ms 50 } in
  let g = WG.build st inst in
  check Alcotest.int "only first compute" 1 (WG.node_count g)

let test_shared_event_identity () =
  (* Two instances waiting on the same holder must reference the identical
     holder event (same id) through their graphs. *)
  let engine = Engine.create ~stream_id:0 () in
  let lock = Engine.new_lock engine ~name:"Q" in
  let _holder =
    Engine.spawn engine ~start_at:0 ~name:"h" ~base_stack:[ sig_ "bg!w" ]
      [
        P.locked
          ~acquire_frames:[ sig_ "App!Queue" ]
          lock
          [
            P.call (sig_ "d.sys!Deep")
              [
                P.request
                  (Engine.new_service engine ~name:"W" ~worker_stack:[ P.kernel_worker ])
                  [ P.compute ~frame:(sig_ "d.sys!Work") (Time.ms 30) ];
              ];
          ];
      ]
  in
  let spawn_victim i =
    Engine.spawn engine ~scenario:"S"
      ~start_at:(Time.ms (1 + i))
      ~name:(Printf.sprintf "v%d" i)
      ~base_stack:[ sig_ "app!op" ]
      [
        P.locked ~acquire_frames:[ sig_ "App!Queue" ] lock
          [ P.compute (Time.ms 1) ];
      ]
  in
  let _v0 = spawn_victim 0 and _v1 = spawn_victim 1 in
  let st = Engine.run engine in
  let idx = Stream.index st in
  let graphs =
    List.map (WG.build ~index:idx st) st.Stream.instances
  in
  let driver_wait_ids g =
    let ids = ref [] in
    WG.iter_nodes g (fun n ->
        if
          Event.is_wait n.WG.event
          && Fixtures.stack_contains (sig_ "d.sys!Deep") n.WG.event.Event.stack
        then ids := n.WG.event.Event.id :: !ids);
    List.sort_uniq compare !ids
  in
  match List.map driver_wait_ids graphs with
  | [ a; b ] when a <> [] ->
    check (Alcotest.list Alcotest.int) "same physical wait event" a b
  | _ -> Alcotest.fail "expected the holder's wait in both victim graphs"

let test_truncated_wait_tolerated () =
  (* A wait without its unwait (hand-crafted) must yield a leaf node, not
     an error. *)
  let w =
    {
      Event.id = 0;
      kind = Event.Wait;
      stack = Fixtures.callstack [ "x.sys!F" ];
      ts = 0;
      cost = 100;
      tid = 1;
      wtid = -1;
    }
  in
  let st = Stream.create ~id:0 ~events:[| w |] ~instances:[] ~threads:[] in
  let inst = { Dptrace.Scenario.scenario = "S"; tid = 1; t0 = 0; t1 = 100 } in
  let g = WG.build st inst in
  match g.WG.roots with
  | [ n ] ->
    check Alcotest.bool "no waker" true (n.WG.waker = None);
    check (Alcotest.list Alcotest.int) "no children" []
      (List.map (fun c -> c.WG.event.Event.id) n.WG.children)
  | _ -> Alcotest.fail "expected a single root"

let test_adversarial_unwait_cycle_terminates () =
  (* Streams with nonsensical mutual unwaits must not hang the builder. *)
  let mk kind tid ts cost wtid =
    {
      Event.id = 0;
      kind;
      stack = Fixtures.callstack [ "x.sys!F" ];
      ts;
      cost;
      tid;
      wtid;
    }
  in
  let events =
    [|
      mk Event.Wait 1 0 100 (-1);
      mk Event.Wait 2 0 100 (-1);
      mk Event.Unwait 1 100 0 2;
      mk Event.Unwait 2 100 0 1;
    |]
  in
  let st = Stream.create ~id:0 ~events ~instances:[] ~threads:[] in
  let inst = { Dptrace.Scenario.scenario = "S"; tid = 1; t0 = 0; t1 = 200 } in
  let g = WG.build st inst in
  check Alcotest.bool "terminates with nodes" true (WG.node_count g > 0)

let test_pp_smoke () =
  let st, inst = contention_stream () in
  let g = WG.build st inst in
  let rendered = Format.asprintf "%a" WG.pp g in
  check Alcotest.bool "mentions victim scenario" true (String.length rendered > 40)

(* --- position-indexed marks ≡ the Hashtbl reference --- *)

(* The graph [WG.build] makes and the one the reference makes, compared
   node for node in [iter_nodes] order, as physical DAGs and by depth;
   and [WG.iter_nodes] and [WG.depth] against the reference's on the same
   graph. *)
let agrees ?index st inst =
  let g = WG.build ?index st inst and g' = Waitgraph_reference.build ?index st inst in
  Waitgraph_reference.(listing WG.iter_nodes g = listing iter_nodes g')
  && Waitgraph_reference.(listing WG.iter_nodes g' = listing iter_nodes g')
  && Waitgraph_reference.shape g = Waitgraph_reference.shape g'
  && WG.depth g = Waitgraph_reference.depth g'
  && WG.depth g' = Waitgraph_reference.depth g'

let prop_build_equals_reference =
  QCheck.Test.make ~name:"build = Hashtbl reference (random corpora)" ~count:6
    QCheck.(int_range 1 10_000)
    (fun seed ->
      List.for_all
        (fun (st : Stream.t) ->
          let index = Stream.index st in
          List.for_all (agrees ~index st) st.Stream.instances)
        (Graph_inputs.corpus seed).Dptrace.Corpus.streams)

let test_adversarial_equal_reference () =
  List.iter
    (fun (st : Stream.t) ->
      List.iter
        (fun inst -> check Alcotest.bool "same graph" true (agrees st inst))
        st.Stream.instances)
    (Graph_inputs.adversarial ()).Dptrace.Corpus.streams

let test_depth_cut_not_memoised () =
  let events, d = Graph_inputs.depth_cut_events () in
  let inst = Graph_inputs.instance ~tid:0 ~t0:0 ~t1:1_000 in
  let st = Stream.create ~id:0 ~events ~instances:[ inst ] ~threads:[] in
  let g = WG.build st inst in
  match g.WG.roots with
  | [ w0; y ] ->
    let rec down k (n : WG.node) =
      if k = 0 then n
      else match n.WG.children with [ c ] -> down (k - 1) c | _ -> Alcotest.fail "chain broken"
    in
    let deep = down d w0 in
    check Alcotest.int "deep view is W_d" d deep.WG.event.Event.tid;
    check Alcotest.int "cut beyond max_depth: childless" 0 (List.length deep.WG.children);
    (match y.WG.children with
    | [ shallow ] ->
      check Alcotest.int "same event" deep.WG.event.Event.id shallow.WG.event.Event.id;
      check Alcotest.int "met shallow later: expanded" 1 (List.length shallow.WG.children)
    | _ -> Alcotest.fail "Y should have W_d as its one child");
    check Alcotest.bool "same graph as the reference" true (agrees st inst)
  | _ -> Alcotest.fail "expected roots W_0 and Y"

let () =
  Alcotest.run "dpwaitgraph"
    [
      ( "construction",
        [
          Alcotest.test_case "roots" `Quick test_roots_are_initiating_thread;
          Alcotest.test_case "wait expansion" `Quick test_wait_expansion;
          Alcotest.test_case "no unwait nodes" `Quick test_no_unwait_nodes;
          Alcotest.test_case "iter uniqueness" `Quick test_iter_nodes_unique;
          Alcotest.test_case "motivating case" `Quick test_motivating_case_depth_and_leaf;
          Alcotest.test_case "window filtering" `Quick
            test_instance_window_excludes_outside_events;
          Alcotest.test_case "shared event identity" `Quick test_shared_event_identity;
        ] );
      ( "reference",
        [
          QCheck_alcotest.to_alcotest prop_build_equals_reference;
          Alcotest.test_case "adversarial streams = reference" `Quick
            test_adversarial_equal_reference;
          Alcotest.test_case "depth cut is not memoised" `Quick
            test_depth_cut_not_memoised;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "truncated wait" `Quick test_truncated_wait_tolerated;
          Alcotest.test_case "adversarial cycle" `Quick
            test_adversarial_unwait_cycle_terminates;
          Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
        ] );
    ]
