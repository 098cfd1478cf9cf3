open Dptrace

type t = { files : string list; diff : Flame.folded }

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc text)

let write ?(components = Dpcore.Component.drivers) ?slow ?fast ~dir
    (r : Dpcore.Pipeline.scenario_result) =
  let c = r.Dpcore.Pipeline.classification in
  Dputil.Fs.mkdir_p dir;
  let files = ref [] in
  let emit name text =
    let path = Filename.concat dir name in
    write_file path text;
    files := path :: !files
  in
  emit "trace.json"
    (Trace_export.export ~components
       (Trace_export.exemplars_of_classes ?slow ?fast c));
  let slow_pairs = c.Dpcore.Classify.slow
  and fast_pairs = c.Dpcore.Classify.fast in
  let run_slow = Flame.folded_running slow_pairs
  and run_fast = Flame.folded_running fast_pairs in
  emit "flame_running_slow.folded" (Flame.to_folded run_slow);
  emit "flame_running_fast.folded" (Flame.to_folded run_fast);
  emit "flame_running_slow.speedscope.json"
    (Dputil.Jsonw.to_string
       (Flame.to_speedscope
          ~name:(c.Dpcore.Classify.spec.Scenario.name ^ " slow: running time")
          run_slow));
  let f_slow = Flame.folded_awg r.Dpcore.Pipeline.slow_awg
  and f_fast = Flame.folded_awg r.Dpcore.Pipeline.fast_awg in
  emit "flame_awg_slow.folded" (Flame.to_folded f_slow);
  emit "flame_awg_fast.folded" (Flame.to_folded f_fast);
  let diff =
    Flame.diff
      ~slow:(Flame.normalize f_slow ~instances:(List.length slow_pairs))
      ~fast:(Flame.normalize f_fast ~instances:(List.length fast_pairs))
  in
  emit "flame_diff.folded" (Flame.to_folded diff);
  emit "flame_diff.speedscope.json"
    (Dputil.Jsonw.to_string
       (Flame.to_speedscope
          ~name:
            (c.Dpcore.Classify.spec.Scenario.name
            ^ " slow-fast: AWG cost per instance")
          diff));
  { files = List.rev !files; diff }
