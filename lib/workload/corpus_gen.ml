module Engine = Dpsim.Engine
module Prng = Dputil.Prng
module Time = Dputil.Time

type config = {
  seed : int;
  scale : float;
  quantize_running : bool;
  cross_traffic : bool;
  cores : int option;
      (* None = unbounded CPU (the paper-regime default); Some n engages
         the engine's run-queue model for CPU-pressure studies. *)
}

let default_config =
  {
    seed = 42;
    scale = 1.0;
    quantize_running = true;
    cross_traffic = true;
    cores = None;
  }

let scaled scale = { default_config with scale }

(* Table 1 instance counts divided by 10, plus background volume. *)
let target_counts =
  [
    ("AppAccessControl", 155);
    ("AppNonResponsive", 63);
    ("BrowserFrameCreate", 130);
    ("BrowserTabClose", 99);
    ("BrowserTabCreate", 249);
    ("BrowserTabSwitch", 218);
    ("MenuDisplay", 74);
    ("WebPageNavigation", 772);
    ("AvScheduledScan", 30);
    ("CfgRefresh", 20);
    ("SystemMotionGuard", 10);
    ("FileOpen", 110);
    ("FileSave", 85);
    ("AppLaunch", 55);
    ("DocumentLoad", 65);
    ("SearchQuery", 55);
    ("VideoPlayback", 1050);
    ("TextEditing", 1300);
  ]

(* Probability that an episode of the given scenario sees a dp.sys motion
   halt; matched to where Table 4 shows Disk Protection patterns. *)
let motion_guard_prob name =
  match name with
  | "AppNonResponsive" | "MenuDisplay" -> 0.35
  | "BrowserFrameCreate" -> 0.3
  | "WebPageNavigation" -> 0.25
  | _ -> 0.08

let spawn_instance env prng (tpl : Scenarios.template) ~index ~max_start =
  let iprng = Prng.split prng in
  let ctx = { Motifs.env; prng = iprng } in
  let profile =
    if Prng.chance iprng tpl.Scenarios.heavy_prob then Scenarios.Heavy
    else Scenarios.Light
  in
  let start_at = Prng.int iprng (max 1 max_start) in
  let steps = tpl.Scenarios.program ctx profile in
  ignore
    (Engine.spawn env.Env.engine
       ~scenario:tpl.Scenarios.spec.Dptrace.Scenario.name ~start_at
       ~name:(Printf.sprintf "%s.%d" tpl.Scenarios.thread_name index)
       ~base_stack:[ tpl.Scenarios.entry ]
       steps)

(* Unmarked background work contending the same queues: its driver stalls
   are observed (and counted) by every queued scenario instance but are
   never self-counted — the purest form of cost propagation, and the main
   contributor to D_wait / D_waitdist > 1. *)
let spawn_noise env prng ~index =
  let iprng = Prng.split prng in
  let ctx = { Motifs.env; prng = iprng } in
  let open Dpsim.Program in
  let one _ =
    Dputil.Prng.choose_weighted iprng
      [
        (0.45, fun () -> Motifs.av_serialized ctx ~dur:(Motifs.service_ms ctx ~median:35.0));
        ( 0.3,
          fun () ->
            Motifs.app_serialized ctx
              (Motifs.file_table_chain ctx
                 ~inner:
                   (Motifs.mdu_read ctx
                      ~dur:(Motifs.service_ms ctx ~median:30.0)
                      ~encrypted:(Dputil.Prng.chance iprng 0.4))) );
        (0.25, fun () -> Motifs.net_fetch_shared ctx ~dur:(Motifs.ms_in ctx 20.0 90.0));
      ]
      ()
    @ [ idle (Motifs.ms_in ctx 10.0 60.0) ]
  in
  let rounds = Dputil.Prng.int_in iprng 1 3 in
  ignore
    (Engine.spawn env.Env.engine
       ~start_at:(Dputil.Prng.int iprng (Dputil.Time.ms 60))
       ~name:(Printf.sprintf "Svc.Background.%d" index)
       ~base_stack:[ Dptrace.Signature.of_string "Svc!BackgroundWork" ]
       (List.concat_map one (List.init rounds Fun.id)))

let build_episode ?cores ~stream_id ~prng ~quantize ~cross
    (tpl : Scenarios.template) =
  let engine = Engine.create ?cores ~stream_id ~quantize_running:quantize () in
  let env = Env.create engine in
  let lo, hi = tpl.Scenarios.concurrency in
  let n = Prng.int_in prng lo hi in
  let max_start = Time.ms 50 in
  for i = 0 to n - 1 do
    spawn_instance env prng tpl ~index:i ~max_start
  done;
  if cross then begin
    let name = tpl.Scenarios.spec.Dptrace.Scenario.name in
    if Prng.chance prng 0.5 then
      spawn_instance env prng Scenarios.av_scheduled_scan ~index:100
        ~max_start:(Time.ms 100);
    if Prng.chance prng 0.35 then
      spawn_instance env prng Scenarios.cfg_refresh ~index:200
        ~max_start:(Time.ms 100);
    if Prng.chance prng (motion_guard_prob name) then
      spawn_instance env prng Scenarios.motion_guard ~index:300
        ~max_start:(Time.ms 60)
  end;
  let noise = Prng.int_in prng 4 7 in
  for i = 0 to noise - 1 do
    spawn_noise env prng ~index:i
  done;
  Engine.run engine

let count_of_scenario (st : Dptrace.Stream.t) name =
  List.length
    (List.filter
       (fun (i : Dptrace.Scenario.instance) -> i.scenario = name)
       st.Dptrace.Stream.instances)

let generate config =
  let prng = Prng.of_int config.seed in
  let stream_id = ref 0 in
  let streams = ref [] in
  let run_episodes (tpl : Scenarios.template) target cross =
    let name = tpl.Scenarios.spec.Dptrace.Scenario.name in
    let produced = ref 0 in
    while !produced < target do
      let st =
        build_episode ?cores:config.cores ~stream_id:!stream_id
          ~prng:(Prng.split prng) ~quantize:config.quantize_running ~cross tpl
      in
      incr stream_id;
      streams := st :: !streams;
      produced := !produced + count_of_scenario st name
    done
  in
  List.iter
    (fun (tpl : Scenarios.template) ->
      let name = tpl.Scenarios.spec.Dptrace.Scenario.name in
      match List.assoc_opt name target_counts with
      | None -> ()
      | Some count ->
        let target =
          max 1 (int_of_float (Float.round (config.scale *. float_of_int count)))
        in
        let is_named =
          List.exists
            (fun (t : Scenarios.template) ->
              t.Scenarios.spec.Dptrace.Scenario.name = name)
            Scenarios.named
        in
        run_episodes tpl target (config.cross_traffic && is_named))
    Scenarios.all;
  Dptrace.Corpus.create ~streams:(List.rev !streams) ~specs:Scenarios.all_specs
