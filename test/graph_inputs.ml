(* Inputs for the equivalence properties between the analysis and its
   reference oracles: generated corpora, and two hand-made streams that
   exercise the Wait Graph builder's cuts. *)

module Event = Dptrace.Event
module Stream = Dptrace.Stream
module Scenario = Dptrace.Scenario

let corpus seed =
  Dpworkload.Corpus_gen.generate
    { Dpworkload.Corpus_gen.default_config with seed; scale = 0.02 }

let event ?(kind = Event.Wait) tid ts cost wtid =
  { Event.id = 0; kind; stack = Fixtures.callstack [ "x.sys!F" ]; ts; cost; tid; wtid }

(* Two waits on threads 1 and 2, each unwaited by the other: every
   expansion runs into a back edge. *)
let unwait_cycle_events () =
  [|
    event 1 0 100 (-1);
    event 2 0 100 (-1);
    event ~kind:Event.Unwait 1 100 0 2;
    event ~kind:Event.Unwait 2 100 0 1;
  |]

(* A chain of waits W_0 -> ... -> W_d on threads 0..d, where W_d
   ([d = max_depth + 1]) is first met beyond the cut; a second root Y of
   thread 0 then meets W_d at depth 1. W_d's one child, when expanded,
   is a running event on thread d + 1. *)
let depth_cut_events () =
  let d = Dpwaitgraph.Wait_graph.max_depth + 1 in
  let chain =
    List.concat
      (List.init (d + 1) (fun k ->
           [ event k k 10_000 (-1); event ~kind:Event.Unwait (k + 1) (k + 2) 0 k ]))
  in
  ( Array.of_list
      (event ~kind:Event.Running (d + 1) (d + 1) 5 (-1)
      :: event 0 50 100 (-1)
      :: event ~kind:Event.Unwait d (d + 3) 0 0
      :: chain),
    d )

let instance ~tid ~t0 ~t1 = { Scenario.scenario = "S"; tid; t0; t1 }

(* Both streams as one corpus whose spec "S" classifies each stream's
   first instance slow and the cycle's zero-length second one fast. *)
let adversarial () =
  let cycle =
    Stream.create ~id:0 ~events:(unwait_cycle_events ())
      ~instances:[ instance ~tid:1 ~t0:0 ~t1:200; instance ~tid:2 ~t0:0 ~t1:0 ]
      ~threads:[]
  in
  let chain =
    Stream.create ~id:1 ~events:(fst (depth_cut_events ()))
      ~instances:[ instance ~tid:0 ~t0:0 ~t1:1_000 ]
      ~threads:[]
  in
  Dptrace.Corpus.create ~streams:[ cycle; chain ]
    ~specs:[ Scenario.spec ~name:"S" ~tfast:1 ~tslow:1 ]

(* A scale-0.2 generated corpus (seed 42) and its streams' graphs, for
   the provenance words bounds. *)
let words_corpus () =
  let corpus = Dpworkload.Corpus_gen.generate (Dpworkload.Corpus_gen.scaled 0.2) in
  let graphs (st : Stream.t) =
    let index = Stream.index st in
    List.map (Dpwaitgraph.Wait_graph.build ~index st) st.Stream.instances
  in
  (corpus, List.map graphs corpus.Dptrace.Corpus.streams)

(* The words [f] allocates over [items] with provenance off and on, each
   call measured alone, after one warm-up pass in each mode (the first
   meets every signature and stack, and grows every per-domain table). *)
let words_off_on f items =
  let pass prov =
    if prov then Dpcore.Provenance.enable ();
    Fun.protect ~finally:Dpcore.Provenance.disable @@ fun () ->
    List.fold_left
      (fun w x -> w +. snd (Fixtures.words_allocated (fun () -> f x)))
      0. items
  in
  ignore (pass false);
  ignore (pass true);
  let off = pass false in
  (off, pass true)
