(* Unit and property tests for the dptrace layer: signatures, callstacks,
   events, streams, corpus, codec, validation. *)

module Signature = Dptrace.Signature
module Callstack = Dptrace.Callstack
module Event = Dptrace.Event
module Scenario = Dptrace.Scenario
module Stream = Dptrace.Stream
module Corpus = Dptrace.Corpus
module Codec = Dptrace.Codec
module Validate = Dptrace.Validate
module Wildcard = Dputil.Wildcard

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let sys_pats = [ Wildcard.compile "*.sys" ]

(* --- Signature --- *)

let test_signature_parts () =
  let s = Signature.of_string "fv.sys!QueryFileTable" in
  check Alcotest.string "module" "fv.sys" (Signature.module_part s);
  check Alcotest.string "function" "QueryFileTable" (Signature.function_part s);
  check Alcotest.string "name" "fv.sys!QueryFileTable" (Signature.name s)

let test_signature_dummy () =
  let s = Signature.hw_service "DiskService" in
  check Alcotest.string "module is whole name" "DiskService" (Signature.module_part s);
  check Alcotest.string "empty function" "" (Signature.function_part s)

let test_signature_interning () =
  let a = Signature.of_string "x.sys!F" in
  let b = Signature.of_string "x.sys!F" in
  check Alcotest.bool "equal" true (Signature.equal a b);
  check Alcotest.int "same id" (Signature.to_int a) (Signature.to_int b);
  check Alcotest.bool "of_int_unsafe inverse" true
    (Signature.equal a (Signature.of_int_unsafe (Signature.to_int a)))

let test_signature_make () =
  let s = Signature.make ~module_name:"se.sys" ~function_name:"Decrypt" in
  check Alcotest.string "name" "se.sys!Decrypt" (Signature.name s)

let test_signature_matches () =
  check Alcotest.bool "driver matches" true
    (Signature.matches sys_pats (Signature.of_string "fv.sys!Q"));
  check Alcotest.bool "kernel does not" false
    (Signature.matches sys_pats (Signature.of_string "kernel!AcquireLock"));
  check Alcotest.bool "dummy does not" false
    (Signature.matches sys_pats (Signature.hw_service "DiskService"))

(* --- Callstack --- *)

let stack = Fixtures.callstack

let test_callstack_basics () =
  let s = stack [ "a.sys!Top"; "b!Mid"; "c!Bottom" ] in
  check Alcotest.int "depth" 3 (Callstack.depth s);
  check (Alcotest.option Alcotest.string) "top" (Some "a.sys!Top")
    (Option.map Signature.name (Callstack.top s));
  check (Alcotest.option Alcotest.string) "empty top" None
    (Option.map Signature.name (Callstack.top (stack [])))

(* An event's signature is its stack's topmost frame whose module
   matches a component pattern. *)
let test_callstack_topmost_matching () =
  let components = Dpcore.Component.of_patterns [ "*.sys" ] in
  let signature frames =
    Option.map Signature.name
      (Dpcore.Component.event_signature components
         { Event.id = 0; kind = Event.Wait; stack = stack frames; ts = 0; cost = 1; tid = 1;
           wtid = -1 })
  in
  let s = [ "kernel!AcquireLock"; "fv.sys!Q"; "fs.sys!R"; "App!Main" ] in
  check (Alcotest.option Alcotest.string) "first driver frame" (Some "fv.sys!Q")
    (signature s);
  check (Alcotest.option Alcotest.string) "no match" None (signature [ "App!Main" ]);
  check Alcotest.bool "stack_relevant" true
    (Fixtures.stack_relevant components (stack s))

let test_callstack_equal () =
  let a = stack [ "x!1"; "y!2" ] and b = stack [ "x!1"; "y!2" ] in
  check Alcotest.bool "equal" true (Callstack.equal a b);
  check Alcotest.bool "differ" false (Callstack.equal a (stack [ "x!1" ]))

(* --- Event --- *)

let mk_event ?(kind = Event.Running) ?(tid = 1) ?(ts = 0) ?(cost = 10)
    ?(wtid = -1) ?(frames = [ "app!f" ]) () =
  { Event.id = 0; kind; stack = stack frames; ts; cost; tid; wtid }

let test_event_end_ts () =
  check Alcotest.int "end_ts" 110 (Event.end_ts (mk_event ~ts:100 ~cost:10 ()))

let test_event_kind_strings () =
  List.iter
    (fun k ->
      check Alcotest.bool "roundtrip" true
        (Event.kind_of_string (Event.kind_to_string k) = Some k))
    [ Event.Running; Event.Wait; Event.Unwait; Event.Hw_service ];
  check Alcotest.bool "unknown" true (Event.kind_of_string "bogus" = None)

(* --- Scenario --- *)

let spec = Scenario.spec ~name:"S" ~tfast:100 ~tslow:200

let inst d = { Scenario.scenario = "S"; tid = 1; t0 = 1_000; t1 = 1_000 + d }

let test_scenario_classify () =
  check Alcotest.bool "fast" true (Scenario.classify spec (inst 99) = Scenario.Fast);
  check Alcotest.bool "boundary tfast is middle" true
    (Scenario.classify spec (inst 100) = Scenario.Middle);
  check Alcotest.bool "boundary tslow is middle" true
    (Scenario.classify spec (inst 200) = Scenario.Middle);
  check Alcotest.bool "slow" true (Scenario.classify spec (inst 201) = Scenario.Slow);
  check Alcotest.int "duration" 150 (Scenario.duration (inst 150))

let test_scenario_spec_validation () =
  Alcotest.check_raises "tfast > tslow"
    (Invalid_argument "Scenario.spec: need 0 < tfast <= tslow") (fun () ->
      ignore (Scenario.spec ~name:"x" ~tfast:10 ~tslow:5));
  Alcotest.check_raises "zero tfast"
    (Invalid_argument "Scenario.spec: need 0 < tfast <= tslow") (fun () ->
      ignore (Scenario.spec ~name:"x" ~tfast:0 ~tslow:5))

(* --- Stream --- *)

let test_stream_sorting () =
  let events =
    [|
      mk_event ~ts:50 ~tid:2 ();
      mk_event ~ts:10 ~tid:1 ();
      mk_event ~ts:30 ~tid:1 ();
    |]
  in
  let st = Stream.create ~id:0 ~events ~instances:[] ~threads:[] in
  let ts = Array.map (fun (e : Event.t) -> e.ts) st.Stream.events in
  check (Alcotest.array Alcotest.int) "sorted" [| 10; 30; 50 |] ts;
  Array.iteri
    (fun i (e : Event.t) -> check Alcotest.int "id = index" i e.id)
    st.Stream.events

let test_stream_zero_cost_first () =
  (* A release (unwait, cost 0) and a compute starting at the same instant
     on the same thread must be ordered unwait-first. *)
  let events =
    [|
      mk_event ~kind:Event.Running ~ts:100 ~cost:20 ~tid:1 ();
      mk_event ~kind:Event.Unwait ~ts:100 ~cost:0 ~tid:1 ~wtid:2 ();
    |]
  in
  let st = Stream.create ~id:0 ~events ~instances:[] ~threads:[] in
  check Alcotest.bool "unwait first" true
    (Event.is_unwait st.Stream.events.(0) && Event.is_running st.Stream.events.(1))

(* Property: the in-order fast path gives what the sort gives. Each event
   is a function of its sort key (ts, tid, zero cost or not), so events
   that tie are interchangeable and both inputs must yield equal arrays,
   ids included. The sorted input with dense ids is kept as it is; with
   stale ids it is renumbered. *)
let prop_create_order_independent =
  QCheck.Test.make ~name:"create: shuffled input = sorted input" ~count:200
    QCheck.(
      list_of_size (Gen.int_range 0 40)
        (triple (int_range 0 20) (int_range 1 3) bool))
    (fun keys ->
      let of_key id (ts, tid, zero) =
        let e =
          if zero then mk_event ~kind:Event.Unwait ~ts ~tid ~cost:0 ~wtid:(tid + 1) ()
          else mk_event ~ts ~tid ~cost:(1 + (ts mod 3)) ~frames:[ Printf.sprintf "m!f%d" tid ] ()
        in
        { e with Event.id }
      in
      let shuffled = Array.of_list (List.mapi (fun i k -> of_key (7 * i) k) keys) in
      let rank (ts, tid, zero) = (ts, tid, if zero then 0 else 1) in
      let sorted_keys =
        List.stable_sort (fun a b -> compare (rank a) (rank b)) keys
      in
      let sorted = Array.of_list (List.mapi of_key sorted_keys) in
      let stale = Array.map (fun e -> { e with Event.id = 0 }) sorted in
      let create events = Stream.create ~id:0 ~events ~instances:[] ~threads:[] in
      let from_shuffled = create shuffled and from_sorted = create sorted in
      from_shuffled.Stream.events = from_sorted.Stream.events
      && from_sorted.Stream.events == sorted
      && (create stale).Stream.events = sorted)

(* Property: the counting index groups what the list-based reference
   groups, per key the same events in the same order, and both answer
   [find_waker] and [map_overlapping] alike. The streams draw their tids
   from one of: dense small tids, sparse ETW-style 4-6 digit tids,
   negative tids (the text codec allows them), or a single thread; an
   unwait may wake tid -1 or a tid with no events. Lengths start at 0. *)
let gen_index_stream =
  let open QCheck.Gen in
  let* tids =
    oneof
      [
        array_size (int_range 1 30) (int_range 0 40);
        array_size (int_range 1 30) (int_range 1000 999_999);
        array_size (int_range 1 8) (int_range (-5) 5);
        map (fun t -> [| t |]) (int_range (-1) 99_999);
      ]
  in
  let event =
    let* kind = oneofl Event.[ Running; Wait; Unwait; Hw_service ] in
    let* tid = oneofa tids and* ts = int_range 0 300 and* cost = int_range 0 20 in
    let+ wtid = frequency [ (1, return (-1)); (6, oneofa tids); (1, int_range (-3) 5) ] in
    if kind = Event.Unwait then mk_event ~kind ~tid ~ts ~cost:0 ~wtid ()
    else mk_event ~kind ~tid ~ts ~cost ()
  in
  let+ events = array_size (int_range 0 200) event in
  (tids, Stream.create ~id:0 ~events ~instances:[] ~threads:[])

let prop_index_matches_reference =
  QCheck.Test.make ~name:"index = list-based reference" ~count:300
    (QCheck.make gen_index_stream)
    (fun (tids, st) ->
      let idx = Stream.index st and ref_idx = Index_reference.index st in
      let ids arr = Array.map (fun (e : Event.t) -> e.Event.id) arr in
      (* Every key either grouped, every tid drawn from, and a few that
         may be absent from both. *)
      let keys = Array.to_list tids @ [ -1; -3; 5; 1_000_001 ] in
      let by_tid k =
        ids (Stream.events_of_thread idx k) = ids (Index_reference.events_of_thread ref_idx k)
      in
      let unwaits k =
        ids (Stream.unwaits_waking idx k) = ids (Index_reference.unwaits_waking ref_idx k)
      in
      let waker_id = Option.map (fun (e : Event.t) -> e.Event.id) in
      let waker (w : Event.t) =
        waker_id (Stream.find_waker idx w) = waker_id (Index_reference.find_waker ref_idx w)
      in
      let window tid from_ts to_ts =
        let keep (e : Event.t) = e.Event.id mod 3 <> 0 and f (e : Event.t) = e.Event.id in
        Stream.map_overlapping idx ~tid ~from_ts ~to_ts ~keep f
        = Index_reference.map_overlapping ref_idx ~tid ~from_ts ~to_ts ~keep f
      in
      let ref_keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl keys in
      List.for_all by_tid (ref_keys ref_idx.Index_reference.by_tid)
      && List.for_all unwaits (ref_keys ref_idx.Index_reference.unwaits_by_wtid)
      && Array.for_all
           (fun (e : Event.t) ->
             waker e
             && waker { e with Event.cost = 0 }
             && waker { e with Event.tid = e.wtid; cost = 5 }
             && window e.tid e.ts (Event.end_ts e)
             && window e.tid (e.ts - 7) (e.ts + 7))
           st.Stream.events)

let test_stream_thread_name () =
  let st = Stream.create ~id:0 ~events:[||] ~instances:[] ~threads:[ (3, "UI") ] in
  check Alcotest.string "named" "UI" (Stream.thread_name st 3);
  check Alcotest.string "fallback" "tid9" (Stream.thread_name st 9)

let test_stream_duration () =
  let st =
    Stream.create ~id:0
      ~events:[| mk_event ~ts:100 ~cost:50 (); mk_event ~ts:400 ~cost:100 ~tid:2 () |]
      ~instances:[] ~threads:[]
  in
  check Alcotest.int "span" 400 (Stream.duration st);
  check Alcotest.int "empty" 0
    (Stream.duration (Stream.create ~id:1 ~events:[||] ~instances:[] ~threads:[]))

let test_stream_overlapping_window () =
  let events =
    [|
      mk_event ~tid:1 ~ts:0 ~cost:100 ();   (* overlaps from before *)
      mk_event ~tid:1 ~ts:150 ~cost:10 ();  (* inside *)
      mk_event ~tid:1 ~ts:400 ~cost:10 ();  (* after *)
      mk_event ~tid:2 ~ts:160 ~cost:5 ();   (* other thread *)
    |]
  in
  let st = Stream.create ~id:0 ~events ~instances:[] ~threads:[] in
  let idx = Stream.index st in
  let got =
    Fixtures.thread_events_overlapping idx ~tid:1 ~from_ts:50 ~to_ts:300
    |> List.map (fun (e : Event.t) -> e.ts)
  in
  check (Alcotest.list Alcotest.int) "window" [ 0; 150 ] got;
  check (Alcotest.list Alcotest.int) "unknown tid" []
    (Fixtures.thread_events_overlapping idx ~tid:42 ~from_ts:0 ~to_ts:1_000
    |> List.map (fun (e : Event.t) -> e.ts))

let test_stream_find_waker () =
  let events =
    [|
      mk_event ~kind:Event.Wait ~tid:1 ~ts:100 ~cost:50 ();
      mk_event ~kind:Event.Unwait ~tid:2 ~ts:150 ~cost:0 ~wtid:1 ();
      mk_event ~kind:Event.Unwait ~tid:2 ~ts:90 ~cost:0 ~wtid:1 ();
      (* before the wait: must not match *)
      mk_event ~kind:Event.Unwait ~tid:3 ~ts:120 ~cost:0 ~wtid:5 ();
      (* targets another thread *)
    |]
  in
  let st = Stream.create ~id:0 ~events ~instances:[] ~threads:[] in
  let idx = Stream.index st in
  let wait = Array.to_list st.Stream.events |> List.find Event.is_wait in
  match Stream.find_waker idx wait with
  | Some u ->
    check Alcotest.int "waker ts" 150 u.Event.ts;
    check Alcotest.int "waker wtid" 1 u.Event.wtid
  | None -> Alcotest.fail "waker not found"

let test_stream_find_waker_missing () =
  let events = [| mk_event ~kind:Event.Wait ~tid:1 ~ts:100 ~cost:50 () |] in
  let st = Stream.create ~id:0 ~events ~instances:[] ~threads:[] in
  let idx = Stream.index st in
  check Alcotest.bool "no waker" true
    (Stream.find_waker idx st.Stream.events.(0) = None)

(* --- Corpus --- *)

let small_corpus () =
  let i1 = { Scenario.scenario = "A"; tid = 1; t0 = 0; t1 = 100 } in
  let i2 = { Scenario.scenario = "B"; tid = 2; t0 = 0; t1 = 200 } in
  let st1 =
    Stream.create ~id:0
      ~events:[| mk_event ~tid:1 () |]
      ~instances:[ i1 ] ~threads:[ (1, "T1") ]
  in
  let st2 =
    Stream.create ~id:1
      ~events:[| mk_event ~tid:2 () |]
      ~instances:[ i2; { i1 with Scenario.tid = 2 } ]
      ~threads:[ (2, "T2") ]
  in
  Corpus.create ~streams:[ st1; st2 ]
    ~specs:[ Scenario.spec ~name:"A" ~tfast:50 ~tslow:150 ]

let test_corpus_queries () =
  let c = small_corpus () in
  check Alcotest.int "streams" 2 (Corpus.stream_count c);
  check Alcotest.int "instances" 3 (Corpus.instance_count c);
  check (Alcotest.list Alcotest.string) "names" [ "A"; "B" ] (Corpus.scenario_names c);
  check Alcotest.int "instances of A" 2 (List.length (Corpus.instances_of c "A"));
  check Alcotest.bool "spec found" true (Corpus.find_spec c "A" <> None);
  check Alcotest.bool "spec missing" true (Corpus.find_spec c "B" = None);
  check Alcotest.int "total time" 400 (Corpus.total_scenario_time c)

(* --- Codec --- *)

let roundtrip c = Fixtures.corpus_of_string (Fixtures.corpus_to_string c)

let corpus_equal (a : Corpus.t) (b : Corpus.t) =
  List.length a.Corpus.streams = List.length b.Corpus.streams
  && List.for_all2
       (fun (x : Stream.t) (y : Stream.t) ->
         x.Stream.id = y.Stream.id
         && x.Stream.instances = y.Stream.instances
         && x.Stream.threads = y.Stream.threads
         && Array.length x.Stream.events = Array.length y.Stream.events
         && Array.for_all2
              (fun (e : Event.t) (f : Event.t) ->
                e.Event.id = f.Event.id && e.Event.kind = f.Event.kind
                && e.Event.ts = f.Event.ts
                && e.Event.cost = f.Event.cost
                && e.Event.tid = f.Event.tid
                && e.Event.wtid = f.Event.wtid
                && Callstack.equal e.Event.stack f.Event.stack)
              x.Stream.events y.Stream.events)
       a.Corpus.streams b.Corpus.streams
  && a.Corpus.specs = b.Corpus.specs

let test_codec_roundtrip () =
  let c = small_corpus () in
  check Alcotest.bool "roundtrip equal" true (corpus_equal c (roundtrip c))

let test_codec_empty_stack () =
  let e = { (mk_event ()) with Event.stack = Callstack.of_list [] } in
  let st = Stream.create ~id:0 ~events:[| e |] ~instances:[] ~threads:[] in
  let c = Corpus.create ~streams:[ st ] ~specs:[] in
  let c' = roundtrip c in
  let e' = (List.hd c'.Corpus.streams).Stream.events.(0) in
  check Alcotest.int "empty stack preserved" 0 (Callstack.depth e'.Event.stack)

let expect_parse_error text =
  match Fixtures.corpus_of_string text with
  | exception Dptrace.Fields.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected Parse_error"

let test_codec_errors () =
  expect_parse_error "";
  expect_parse_error "wrong 1\n";
  expect_parse_error "dptrace 99\n";
  expect_parse_error "dptrace 1\nstream 0\nstream 1\n";
  expect_parse_error "dptrace 1\nevent run 1 0 5 -1 a!b\n";
  (* outside stream *)
  expect_parse_error "dptrace 1\nstream 0\nevent bogus 1 0 5 -1 a!b\nend\n";
  expect_parse_error "dptrace 1\nstream 0\nevent run 1 0 -5 -1 a!b\nend\n";
  (* negative cost *)
  expect_parse_error "dptrace 1\nstream 0\ninstance S 1 100 50\nend\n";
  (* t1 < t0 *)
  expect_parse_error "dptrace 1\nstream 0\n";
  (* unterminated *)
  expect_parse_error "dptrace 1\nfrobnicate\n";
  expect_parse_error "dptrace 1\nspec S 100 50\n";
  (* tfast > tslow *)
  expect_parse_error "dptrace 1\nstream 0\nend\nspec S 50 100\n"
  (* a spec after a stream *)

(* Fuzz safety: mutating a valid corpus text must either parse or raise
   Parse_error — never any other exception. *)
let prop_codec_mutation_safety =
  QCheck.Test.make ~name:"mutated corpus text never crashes" ~count:150
    QCheck.(pair small_int (int_range 0 255))
    (fun (pos_seed, byte) ->
      let base = Fixtures.corpus_to_string (small_corpus ()) in
      let b = Bytes.of_string base in
      let pos = pos_seed mod Bytes.length b in
      Bytes.set b pos (Char.chr byte);
      match Fixtures.corpus_of_string (Bytes.to_string b) with
      | _ -> true
      | exception Dptrace.Fields.Parse_error _ -> true)

let test_codec_rejects_spacey_names () =
  let st =
    Stream.create ~id:0 ~events:[||] ~instances:[] ~threads:[ (1, "has space") ]
  in
  let c = Corpus.create ~streams:[ st ] ~specs:[] in
  (match Fixtures.corpus_to_string c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument");
  (* Every name is checked before the file is created. *)
  let path = "spacey_corpus.dpt" in
  (match Codec.save path c with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected Invalid_argument");
  check Alcotest.bool "no file written" false (Sys.file_exists path);
  (* The framed binary codec handles them fine. *)
  let roundtripped, _ = V2_frames.decode (V2_frames.encode c) in
  check Alcotest.string "binary keeps the name" "has space"
    (Stream.thread_name (List.hd roundtripped.Corpus.streams) 1)

let test_codec_bad_header_bounded () =
  (* A newline-free input is one enormous "first line": the error must
     quote a bounded prefix of it, not the whole input. *)
  match Fixtures.corpus_of_string (String.make 100_000 'x') with
  | exception Dptrace.Fields.Parse_error { line; message } ->
    check Alcotest.int "line" 1 line;
    check Alcotest.bool "message bounded" true (String.length message < 100)
  | _ -> Alcotest.fail "expected Parse_error"

let test_codec_error_line () =
  match Fixtures.corpus_of_string "dptrace 1\nstream 0\njunk here\n" with
  | exception Dptrace.Fields.Parse_error { line; _ } -> check Alcotest.int "line" 3 line
  | _ -> Alcotest.fail "expected Parse_error"

(* --- Validate --- *)

let test_validate_clean () =
  let w = mk_event ~kind:Event.Wait ~tid:1 ~ts:0 ~cost:50 () in
  let u = mk_event ~kind:Event.Unwait ~tid:2 ~ts:50 ~cost:0 ~wtid:1 () in
  let st = Stream.create ~id:0 ~events:[| w; u |] ~instances:[] ~threads:[] in
  check (Alcotest.list Alcotest.string) "no violations" []
    (List.map (fun v -> v.Validate.message) (Validate.check st))

let test_validate_unpaired_wait () =
  let w = mk_event ~kind:Event.Wait ~tid:1 ~ts:0 ~cost:50 () in
  let st = Stream.create ~id:0 ~events:[| w |] ~instances:[] ~threads:[] in
  check Alcotest.bool "caught" true
    (List.exists
       (fun v -> v.Validate.message = "wait event with no pairing unwait")
       (Validate.check st))

let test_validate_overlap () =
  let a = mk_event ~tid:1 ~ts:0 ~cost:100 () in
  let b = mk_event ~tid:1 ~ts:50 ~cost:10 () in
  let st = Stream.create ~id:0 ~events:[| a; b |] ~instances:[] ~threads:[] in
  check Alcotest.bool "overlap caught" true
    (List.exists
       (fun v ->
         String.length v.Validate.message > 6
         && String.sub v.Validate.message 0 6 = "thread")
       (Validate.check st))

let test_validate_bad_unwait () =
  let u = mk_event ~kind:Event.Unwait ~tid:1 ~ts:0 ~cost:5 ~wtid:1 () in
  let st = Stream.create ~id:0 ~events:[| u |] ~instances:[] ~threads:[] in
  let messages = List.map (fun v -> v.Validate.message) (Validate.check st) in
  check Alcotest.bool "non-zero cost caught" true
    (List.mem "unwait with non-zero cost" messages);
  check Alcotest.bool "self target caught" true
    (List.mem "unwait targets itself" messages)

let test_validate_wtid_on_running () =
  let e = mk_event ~kind:Event.Running ~tid:1 ~wtid:2 () in
  let st = Stream.create ~id:0 ~events:[| e |] ~instances:[] ~threads:[] in
  check Alcotest.bool "caught" true
    (List.exists
       (fun v -> v.Validate.message = "wtid set on non-unwait event")
       (Validate.check st))

let test_validate_instance_without_events () =
  let st =
    Stream.create ~id:0 ~events:[||]
      ~instances:[ { Scenario.scenario = "S"; tid = 7; t0 = 0; t1 = 10 } ]
      ~threads:[]
  in
  check Alcotest.bool "caught" true (Validate.check st <> [])

(* Property: streams built from per-thread sequential spans validate. *)
let prop_clean_streams_validate =
  QCheck.Test.make ~name:"constructed clean streams validate" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 20) (pair (int_range 1 4) (int_range 1 50)))
    (fun specs ->
      let next_ts = Hashtbl.create 4 in
      let events =
        Array.of_list @@ List.map
          (fun (tid, dur) ->
            let t0 = Option.value ~default:0 (Hashtbl.find_opt next_ts tid) in
            Hashtbl.replace next_ts tid (t0 + dur);
            mk_event ~tid ~ts:t0 ~cost:dur ())
          specs
      in
      let st = Stream.create ~id:0 ~events ~instances:[] ~threads:[] in
      Fixtures.is_valid st)

(* --- timeline --- *)

let test_timeline_render () =
  let case = Dpworkload.Motivating_case.build () in
  let st = case.Dpworkload.Motivating_case.stream in
  let text =
    Dptrace.Timeline.render_instance st
      case.Dpworkload.Motivating_case.browser_instance
  in
  let lines = String.split_on_char '\n' text in
  (* Header + one row per active thread + legend. *)
  check Alcotest.bool "enough rows" true (List.length lines > 8);
  let row name =
    List.find
      (fun l ->
        String.length l > String.length name && String.sub l 0 (String.length name) = name)
      lines
  in
  let ui = row "Browser.UI" in
  check Alcotest.bool "UI mostly waits" true
    (String.exists (fun c -> c = '.') ui);
  let disk = row "Disk0" in
  check Alcotest.bool "disk serves" true (String.exists (fun c -> c = '~') disk);
  (* All rows equal width between the pipes. *)
  let widths =
    List.filter_map
      (fun l ->
        match String.index_opt l '|' with
        | Some a -> (
          match String.rindex_opt l '|' with
          | Some b when b > a -> Some (b - a)
          | _ -> None)
        | None -> None)
      lines
  in
  check Alcotest.bool "uniform width" true
    (List.length (List.sort_uniq compare widths) <= 1)

let test_timeline_empty_and_window () =
  let empty = Stream.create ~id:0 ~events:[||] ~instances:[] ~threads:[] in
  check Alcotest.string "empty stream" "(empty stream)\n"
    (Dptrace.Timeline.render empty);
  (* Clipping to a window excludes threads without events there. *)
  let events =
    [| mk_event ~tid:1 ~ts:0 ~cost:10 (); mk_event ~tid:2 ~ts:1_000 ~cost:10 () |]
  in
  let st = Stream.create ~id:0 ~events ~instances:[] ~threads:[ (1, "early"); (2, "late") ] in
  let text = Dptrace.Timeline.render ~from_ts:0 ~to_ts:100 st in
  check Alcotest.bool "early present" true
    (List.exists
       (fun l -> String.length l >= 5 && String.sub l 0 5 = "early")
       (String.split_on_char '\n' text));
  check Alcotest.bool "late clipped" false
    (List.exists
       (fun l -> String.length l >= 4 && String.sub l 0 4 = "late")
       (String.split_on_char '\n' text))

(* --- corpus statistics --- *)

let test_corpus_stats () =
  let corpus = Dpworkload.Corpus_gen.generate (Dpworkload.Corpus_gen.scaled 0.02) in
  let s = Dptrace.Corpus_stats.compute corpus in
  check Alcotest.int "streams agree" (Corpus.stream_count corpus)
    s.Dptrace.Corpus_stats.streams;
  check Alcotest.int "instances agree" (Corpus.instance_count corpus)
    s.Dptrace.Corpus_stats.instances;
  let k = s.Dptrace.Corpus_stats.kinds in
  check Alcotest.int "kinds partition events" s.Dptrace.Corpus_stats.events
    (k.Dptrace.Corpus_stats.running + k.Dptrace.Corpus_stats.waits
    + k.Dptrace.Corpus_stats.unwaits
    + k.Dptrace.Corpus_stats.hw_services);
  (* Every wait has an unwait in simulator output. *)
  check Alcotest.bool "waits <= unwaits" true
    (k.Dptrace.Corpus_stats.waits <= k.Dptrace.Corpus_stats.unwaits);
  check Alcotest.bool "signatures counted" true
    (s.Dptrace.Corpus_stats.distinct_signatures > 20);
  check Alcotest.bool "depth sane" true
    (s.Dptrace.Corpus_stats.mean_stack_depth > 1.0
    && s.Dptrace.Corpus_stats.max_stack_depth >= 5);
  (* Per-scenario rows cover every scenario, sorted by volume. *)
  check Alcotest.int "all scenarios present"
    (List.length (Corpus.scenario_names corpus))
    (List.length s.Dptrace.Corpus_stats.per_scenario);
  let rec sorted = function
    | (a : Dptrace.Corpus_stats.scenario_stats)
      :: (b :: _ as rest) ->
      a.Dptrace.Corpus_stats.instances >= b.Dptrace.Corpus_stats.instances
      && sorted rest
    | _ -> true
  in
  check Alcotest.bool "sorted by volume" true (sorted s.Dptrace.Corpus_stats.per_scenario);
  check Alcotest.bool "renders" true
    (String.length (Dptrace.Corpus_stats.render s) > 200)

let test_corpus_stats_empty () =
  let s = Dptrace.Corpus_stats.compute (Corpus.create ~streams:[] ~specs:[]) in
  check Alcotest.int "zeroes" 0
    (s.Dptrace.Corpus_stats.streams + s.Dptrace.Corpus_stats.events);
  check Alcotest.bool "still renders" true
    (String.length (Dptrace.Corpus_stats.render s) > 50)

let () =
  Alcotest.run "dptrace"
    [
      ( "signature",
        [
          Alcotest.test_case "parts" `Quick test_signature_parts;
          Alcotest.test_case "dummy" `Quick test_signature_dummy;
          Alcotest.test_case "interning" `Quick test_signature_interning;
          Alcotest.test_case "make" `Quick test_signature_make;
          Alcotest.test_case "matches" `Quick test_signature_matches;
        ] );
      ( "callstack",
        [
          Alcotest.test_case "basics" `Quick test_callstack_basics;
          Alcotest.test_case "topmost_matching" `Quick test_callstack_topmost_matching;
          Alcotest.test_case "equal" `Quick test_callstack_equal;
        ] );
      ( "event",
        [
          Alcotest.test_case "end_ts" `Quick test_event_end_ts;
          Alcotest.test_case "kind strings" `Quick test_event_kind_strings;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "classify" `Quick test_scenario_classify;
          Alcotest.test_case "spec validation" `Quick test_scenario_spec_validation;
        ] );
      ( "stream",
        [
          Alcotest.test_case "sorting" `Quick test_stream_sorting;
          Alcotest.test_case "zero-cost first" `Quick test_stream_zero_cost_first;
          qcheck prop_create_order_independent;
          qcheck prop_index_matches_reference;
          Alcotest.test_case "thread names" `Quick test_stream_thread_name;
          Alcotest.test_case "duration" `Quick test_stream_duration;
          Alcotest.test_case "overlap window" `Quick test_stream_overlapping_window;
          Alcotest.test_case "find_waker" `Quick test_stream_find_waker;
          Alcotest.test_case "find_waker missing" `Quick test_stream_find_waker_missing;
        ] );
      ("corpus", [ Alcotest.test_case "queries" `Quick test_corpus_queries ]);
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "empty stack" `Quick test_codec_empty_stack;
          Alcotest.test_case "parse errors" `Quick test_codec_errors;
          Alcotest.test_case "error line numbers" `Quick test_codec_error_line;
          Alcotest.test_case "bad header quoted bounded" `Quick
            test_codec_bad_header_bounded;
          Alcotest.test_case "spacey names rejected" `Quick
            test_codec_rejects_spacey_names;
          qcheck prop_codec_mutation_safety;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "figure 1 rendering" `Quick test_timeline_render;
          Alcotest.test_case "empty/window" `Quick test_timeline_empty_and_window;
        ] );
      ( "stats",
        [
          Alcotest.test_case "generated corpus" `Quick test_corpus_stats;
          Alcotest.test_case "empty corpus" `Quick test_corpus_stats_empty;
        ] );
      ( "validate",
        [
          Alcotest.test_case "clean" `Quick test_validate_clean;
          Alcotest.test_case "unpaired wait" `Quick test_validate_unpaired_wait;
          Alcotest.test_case "overlap" `Quick test_validate_overlap;
          Alcotest.test_case "bad unwait" `Quick test_validate_bad_unwait;
          Alcotest.test_case "wtid on running" `Quick test_validate_wtid_on_running;
          Alcotest.test_case "instance without events" `Quick
            test_validate_instance_without_events;
          qcheck prop_clean_streams_validate;
        ] );
    ]
