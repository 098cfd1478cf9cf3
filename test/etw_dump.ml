(* A stream rendered as the xperf-style dump [Dptrace.Etw] imports, for
   the import tests. Running events become per-period [SampledProfile]
   rows, waits a [CSwitch] (old state [Waiting]) plus the waker's
   [ReadyThread], hardware services [DiskIo] rows, instances [Mark]
   pairs. When the stream's running costs are multiples of
   [sample_period] (the simulator's default), importing the dump back
   reproduces a stream with identical impact metrics. *)

open Dptrace

let quote_stack stack =
  let frames =
    Callstack.frames stack |> Array.to_list |> List.map Signature.name
  in
  "\"" ^ String.concat ";" frames ^ "\""

let to_dump ?(sample_period = Dputil.Time.ms 1) (st : Stream.t) =
  let buf = Buffer.create 65536 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "# xperf-style dump exported by driveperf";
  List.iter (fun (tid, name) -> line "Thread, %d, %s" tid name) st.Stream.threads;
  let index = Stream.index st in
  Array.iter
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Running ->
        (* One sample per period, same stack. *)
        let samples = max 1 (e.Event.cost / sample_period) in
        for i = 0 to samples - 1 do
          line "SampledProfile, %d, %d, %s"
            (e.Event.ts + (i * sample_period))
            e.Event.tid (quote_stack e.Event.stack)
        done
      | Event.Wait ->
        line "CSwitch, %d, 0, %d, Waiting, %s" e.Event.ts e.Event.tid
          (quote_stack e.Event.stack);
        (match Stream.find_waker index e with
        | Some u ->
          line "ReadyThread, %d, %d, %d, %s" u.Event.ts u.Event.tid e.Event.tid
            (quote_stack u.Event.stack)
        | None -> ())
      | Event.Unwait ->
        (* Emitted alongside the wait it closes; unwaits without a blocked
           target carry no information the importer can use. *)
        ()
      | Event.Hw_service ->
        let name =
          match Callstack.top e.Event.stack with
          | Some s -> Signature.name s
          | None -> "HwService"
        in
        line "DiskIo, %d, %d, %s, %d" e.Event.ts e.Event.cost name e.Event.tid)
    st.Stream.events;
  List.iter
    (fun (i : Scenario.instance) ->
      line "Mark, %d, %s, %d, Start" i.Scenario.t0 i.Scenario.scenario i.Scenario.tid;
      line "Mark, %d, %s, %d, Stop" i.Scenario.t1 i.Scenario.scenario i.Scenario.tid)
    st.Stream.instances;
  Buffer.contents buf
