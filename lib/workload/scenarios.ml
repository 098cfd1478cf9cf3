module P = Dpsim.Program
module M = Motifs
module Time = Dputil.Time
module Prng = Dputil.Prng
module Signature = Dptrace.Signature

type profile = Light | Heavy

type template = {
  spec : Dptrace.Scenario.spec;
  entry : Signature.t;
  thread_name : string;
  heavy_prob : float;
  concurrency : int * int;
  program : Motifs.ctx -> profile -> P.step list;
}

let spec name tfast_ms tslow_ms =
  Dptrace.Scenario.spec ~name ~tfast:(Time.ms tfast_ms) ~tslow:(Time.ms tslow_ms)

let maybe (ctx : M.ctx) p steps = if Prng.chance ctx.prng p then steps () else []

let pick (ctx : M.ctx) weighted = (Prng.choose_weighted ctx.prng weighted) ()

let think ctx lo hi = [ P.compute (M.ms_in ctx lo hi) ]

(* Calibration notes. The paper's corpus-wide regime is: distinct driver
   waits ≈ 10 % of scenario time, counted ≈ 3.5× each through cost
   propagation (IA_wait ≈ 36 %, IA_opt ≈ 26 %), driver CPU ≈ 1.6 %.
   Programs therefore spend most of their duration in application compute;
   driver operations are short, and the long driver stalls that do occur
   sit behind application-level queues where several queued instances
   observe (and are charged with) the same wait. *)

(* --- The 8 named scenarios (Table 1) --- *)

let app_access_control =
  {
    spec = spec "AppAccessControl" 200 400;
    entry = Signature.of_string "App!AccessCheck";
    thread_name = "App.AccessCheck";
    heavy_prob = 0.65;
    concurrency = (5, 10);
    program =
      (fun ctx profile ->
        match profile with
        | Light ->
          P.seq
            [
              M.policy_check ctx;
              maybe ctx 0.35 (fun () ->
                  M.av_serialized ctx ~dur:(M.service_ms ctx ~median:18.0));
              think ctx 20.0 80.0;
            ]
        | Heavy ->
          P.seq
            [
              think ctx 25.0 60.0;
              M.av_serialized ctx ~dur:(M.service_ms ctx ~median:40.0);
              think ctx 30.0 70.0;
              M.av_serialized ctx ~dur:(M.service_ms ctx ~median:30.0);
              maybe ctx 0.15 (fun () -> M.cache_lookup ctx);
              think ctx 40.0 110.0;
            ]);
  }

let app_non_responsive =
  {
    spec = spec "AppNonResponsive" 1000 2000;
    entry = Signature.of_string "App!MessagePump";
    thread_name = "App.Main";
    heavy_prob = 0.78;
    concurrency = (3, 5);
    program =
      (fun ctx profile ->
        match profile with
        | Light ->
          P.seq
            [
              think ctx 200.0 500.0;
              M.cache_lookup ctx;
              maybe ctx 0.25 (fun () ->
                  M.av_serialized ctx ~dur:(M.service_ms ctx ~median:70.0));
              think ctx 150.0 350.0;
            ]
        | Heavy ->
          let main =
            pick ctx
              [
                ( 0.15,
                  fun () -> M.hard_fault_page_read ctx ~dur:(M.ms_in ctx 700.0 2600.0) );
                (0.35, fun () -> M.av_serialized ctx ~dur:(M.ms_in ctx 300.0 1000.0));
                ( 0.20,
                  fun () ->
                    M.app_serialized ctx
                      (M.file_table_chain ctx
                         ~inner:
                           (M.mdu_read ctx ~dur:(M.ms_in ctx 250.0 800.0) ~encrypted:true))
                );
                (0.10, fun () -> M.guarded_disk_read ctx ~dur:(M.ms_in ctx 120.0 350.0));
                (0.05, fun () -> M.av_serialized ctx ~dur:(M.ms_in ctx 250.0 700.0));
                (0.10, fun () -> M.net_fetch_shared ctx ~dur:(M.ms_in ctx 300.0 1000.0));
                (0.05, fun () -> M.acpi_transition ctx);
              ]
          in
          P.seq
            [
              think ctx 60.0 150.0;
              main;
              maybe ctx 0.4 (fun () ->
                  M.av_serialized ctx ~dur:(M.service_ms ctx ~median:250.0));
              think ctx 350.0 800.0;
            ]);
  }

let browser_frame_create =
  {
    spec = spec "BrowserFrameCreate" 250 450;
    entry = Signature.of_string "Browser!FrameCreate";
    thread_name = "Browser.Frame";
    heavy_prob = 0.68;
    concurrency = (5, 10);
    program =
      (fun ctx profile ->
        match profile with
        | Light ->
          P.seq [ think ctx 40.0 110.0; M.cached_file_open ctx; think ctx 50.0 120.0 ]
        | Heavy ->
          P.seq
            [
              think ctx 15.0 40.0;
              M.app_serialized ctx
                (P.seq
                   [
                     maybe ctx 0.4 (fun () ->
                         M.av_serialized ctx ~dur:(M.ms_in ctx 30.0 120.0));
                     M.file_table_chain ctx
                       ~inner:
                         (M.mdu_read ctx
                            ~dur:(M.service_ms ctx ~median:95.0)
                            ~encrypted:(Prng.chance ctx.M.prng 0.4));
                   ]);
              maybe ctx 0.25 (fun () -> M.guarded_disk_read ctx ~dur:(M.ms_in ctx 30.0 110.0));
              maybe ctx 0.25 (fun () -> M.net_fetch_shared ctx ~dur:(M.ms_in ctx 40.0 130.0));
              think ctx 90.0 220.0;
            ]);
  }

let browser_tab_close =
  {
    spec = spec "BrowserTabClose" 150 300;
    entry = Signature.of_string "Browser!TabClose";
    thread_name = "Browser.TabClose";
    heavy_prob = 0.74;
    concurrency = (5, 10);
    program =
      (fun ctx profile ->
        match profile with
        | Light -> P.seq [ think ctx 25.0 70.0; M.cache_lookup ctx; think ctx 25.0 70.0 ]
        | Heavy ->
          P.seq
            [
              think ctx 25.0 60.0;
              M.app_serialized ctx
                (P.seq
                   [
                     M.backup_copy_on_write ctx ~dur:(M.service_ms ctx ~median:95.0);
                     maybe ctx 0.6 (fun () ->
                         M.file_table_chain ctx
                           ~inner:
                             (M.mdu_write ctx
                                ~dur:(M.service_ms ctx ~median:45.0)
                                ~encrypted:true));
                   ]);
              maybe ctx 0.35 (fun () -> M.av_serialized ctx ~dur:(M.ms_in ctx 25.0 100.0));
              think ctx 30.0 80.0;
            ]);
  }

let browser_tab_create =
  {
    spec = spec "BrowserTabCreate" 300 500;
    entry = Signature.of_string "Browser!TabCreate";
    thread_name = "Browser.UI";
    heavy_prob = 0.72;
    concurrency = (7, 13);
    program =
      (fun ctx profile ->
        match profile with
        | Light ->
          P.seq
            [
              think ctx 50.0 110.0;
              M.cached_file_open ctx;
              maybe ctx 0.4 (fun () -> M.net_fetch_shared ctx ~dur:(M.ms_in ctx 10.0 40.0));
              think ctx 60.0 140.0;
            ]
        | Heavy ->
          P.seq
            [
              think ctx 15.0 40.0;
              M.app_serialized ctx
                (P.seq
                   [
                     maybe ctx 0.5 (fun () ->
                         M.av_serialized ctx ~dur:(M.ms_in ctx 25.0 90.0));
                     M.file_table_chain ctx
                       ~inner:
                         (M.mdu_read ctx
                            ~dur:(M.service_ms ctx ~median:95.0)
                            ~encrypted:(Prng.chance ctx.M.prng 0.6));
                   ]);
              think ctx 15.0 45.0;
              M.app_serialized ctx
                (P.seq
                   [
                     M.file_table_chain ctx
                       ~inner:
                         (M.mdu_read ctx
                            ~dur:(M.service_ms ctx ~median:75.0)
                            ~encrypted:(Prng.chance ctx.M.prng 0.5));
                     maybe ctx 0.5 (fun () ->
                         M.net_fetch_shared ctx ~dur:(M.ms_in ctx 30.0 120.0));
                   ]);
              maybe ctx 0.2 (fun () -> M.gpu_render ctx ~dur:(M.ms_in ctx 15.0 60.0));
              maybe ctx 0.15 (fun () -> M.mouse_input ctx);
              think ctx 120.0 240.0;
            ]);
  }

let browser_tab_switch =
  {
    spec = spec "BrowserTabSwitch" 100 250;
    entry = Signature.of_string "Browser!TabSwitch";
    thread_name = "Browser.UI";
    heavy_prob = 0.55;
    concurrency = (5, 10);
    program =
      (fun ctx profile ->
        match profile with
        | Light ->
          P.seq
            [
              think ctx 8.0 22.0;
              M.cache_lookup ctx;
              maybe ctx 0.5 (fun () -> M.direct_gpu_wait ctx ~dur:(M.ms_in ctx 3.0 14.0));
              think ctx 8.0 24.0;
            ]
        | Heavy ->
          P.seq
            [
              think ctx 20.0 50.0;
              (* Large direct-hardware share: the paper reports 66.6 % of
                 TabSwitch driver cost as non-optimisable. *)
              M.direct_gpu_wait ctx ~dur:(M.ms_in ctx 55.0 180.0);
              maybe ctx 0.7 (fun () -> M.direct_disk_read ctx ~dur:(M.ms_in ctx 35.0 130.0));
              maybe ctx 0.55 (fun () -> M.gpu_render ctx ~dur:(M.ms_in ctx 20.0 70.0));
              maybe ctx 0.5 (fun () ->
                  M.app_serialized ctx
                    (M.file_table_chain ctx
                       ~inner:
                         (M.mdu_read ctx ~dur:(M.service_ms ctx ~median:35.0)
                            ~encrypted:(Prng.chance ctx.M.prng 0.3))));
              maybe ctx 0.3 (fun () -> M.net_fetch_shared ctx ~dur:(M.ms_in ctx 20.0 80.0));
              think ctx 25.0 60.0;
            ]);
  }

let menu_display =
  {
    spec = spec "MenuDisplay" 150 350;
    entry = Signature.of_string "App!MenuDisplay";
    thread_name = "App.Menu";
    heavy_prob = 0.72;
    concurrency = (4, 8);
    program =
      (fun ctx profile ->
        match profile with
        | Light ->
          P.seq
            [
              think ctx 20.0 60.0;
              M.cache_lookup ctx;
              maybe ctx 0.4 (fun () -> M.net_fetch_shared ctx ~dur:(M.ms_in ctx 12.0 45.0));
              think ctx 20.0 70.0;
            ]
        | Heavy ->
          P.seq
            [
              think ctx 20.0 50.0;
              M.dns_resolve ctx;
              M.net_fetch_shared ctx ~dur:(M.service_ms ctx ~median:140.0);
              maybe ctx 0.6 (fun () -> M.net_fetch_shared ctx ~dur:(M.ms_in ctx 30.0 110.0));
              maybe ctx 0.35 (fun () -> M.net_fetch_shared ctx ~dur:(M.ms_in ctx 25.0 90.0));
              maybe ctx 0.3 (fun () -> M.guarded_disk_read ctx ~dur:(M.ms_in ctx 20.0 80.0));
              maybe ctx 0.15 (fun () ->
                  M.app_serialized ctx
                    (M.file_table_chain ctx
                       ~inner:
                         (M.mdu_read ctx ~dur:(M.service_ms ctx ~median:25.0) ~encrypted:false)));
              think ctx 25.0 70.0;
            ]);
  }

let web_page_navigation =
  {
    spec = spec "WebPageNavigation" 500 1000;
    entry = Signature.of_string "Browser!Navigate";
    thread_name = "Browser.Nav";
    heavy_prob = 0.34;
    concurrency = (7, 13);
    program =
      (fun ctx profile ->
        match profile with
        | Light ->
          P.seq
            [
              think ctx 15.0 40.0;
              M.net_fetch_shared ctx ~dur:(M.ms_in ctx 10.0 45.0);
              maybe ctx 0.12 (fun () ->
                  M.app_serialized ctx
                    (M.file_table_chain ctx
                       ~inner:(M.mdu_read ctx ~dur:(M.service_ms ctx ~median:18.0) ~encrypted:false)));
              think ctx 50.0 120.0;
              M.cache_lookup ctx;
            ]
        | Heavy ->
          P.seq
            [
              think ctx 20.0 50.0;
              M.dns_resolve ctx;
              M.app_serialized ctx
                (P.seq
                   [
                     M.net_fetch_shared ctx ~dur:(M.service_ms ctx ~median:220.0);
                     maybe ctx 0.5 (fun () ->
                         M.file_table_chain ctx
                           ~inner:
                             (M.mdu_read ctx ~dur:(M.service_ms ctx ~median:100.0)
                                ~encrypted:(Prng.chance ctx.M.prng 0.4)));
                   ]);
              think ctx 30.0 80.0;
              M.app_serialized ctx
                (M.net_fetch_shared ctx ~dur:(M.service_ms ctx ~median:160.0));
              maybe ctx 0.4 (fun () -> M.av_serialized ctx ~dur:(M.ms_in ctx 40.0 170.0));
              maybe ctx 0.25 (fun () -> M.guarded_disk_read ctx ~dur:(M.ms_in ctx 25.0 90.0));
              think ctx 220.0 480.0;
            ]);
  }

let named =
  [
    app_access_control;
    app_non_responsive;
    browser_frame_create;
    browser_tab_close;
    browser_tab_create;
    browser_tab_switch;
    menu_display;
    web_page_navigation;
  ]

(* --- Background scenarios --- *)

let av_scheduled_scan =
  {
    spec = spec "AvScheduledScan" 500 1500;
    entry = Signature.of_string "AntiVirus!ScheduledScan";
    thread_name = "AV.Worker";
    heavy_prob = 0.8;
    concurrency = (1, 2);
    program =
      (fun ctx profile ->
        let files =
          match profile with Light -> 1 | Heavy -> Prng.int_in ctx.M.prng 2 3
        in
        let scan _ =
          P.seq
            [
              M.av_serialized ctx ~dur:(M.service_ms ctx ~median:110.0);
              think ctx 60.0 150.0;
            ]
        in
        P.seq (think ctx 40.0 100.0 :: List.init files scan));
  }

let cfg_refresh =
  {
    spec = spec "CfgRefresh" 200 600;
    entry = Signature.of_string "ConfigMgr!Refresh";
    thread_name = "CM.Worker";
    heavy_prob = 0.7;
    concurrency = (1, 2);
    program =
      (fun ctx profile ->
        match profile with
        | Light -> P.seq [ think ctx 40.0 110.0; M.cache_lookup ctx ]
        | Heavy ->
          P.seq
            [
              think ctx 30.0 80.0;
              M.mdu_read ctx
                ~dur:(M.service_ms ctx ~median:110.0)
                ~encrypted:(Prng.chance ctx.M.prng 0.4);
              maybe ctx 0.5 (fun () -> M.av_serialized ctx ~dur:(M.service_ms ctx ~median:60.0));
              think ctx 40.0 100.0;
            ]);
  }

let motion_guard =
  {
    spec = spec "SystemMotionGuard" 100 400;
    entry = Signature.of_string "System!MotionSensor";
    thread_name = "Sys.MotionGuard";
    heavy_prob = 0.85;
    concurrency = (1, 1);
    program =
      (fun ctx profile ->
        match profile with
        | Light -> M.disk_protection_halt ctx ~dur:(M.ms_in ctx 20.0 80.0)
        | Heavy -> M.disk_protection_halt ctx ~dur:(M.ms_in ctx 100.0 350.0));
  }

let file_open =
  {
    spec = spec "FileOpen" 100 250;
    entry = Signature.of_string "App!FileOpen";
    thread_name = "App.FileOpen";
    heavy_prob = 0.45;
    concurrency = (5, 8);
    program =
      (fun ctx profile ->
        match profile with
        | Light -> P.seq [ M.cached_file_open ctx; think ctx 25.0 70.0 ]
        | Heavy ->
          P.seq
            [
              think ctx 15.0 40.0;
              M.app_serialized ctx
                (M.file_table_chain ctx
                   ~inner:
                     (M.mdu_read ctx ~dur:(M.service_ms ctx ~median:40.0) ~encrypted:false));
              maybe ctx 0.5 (fun () -> M.av_serialized ctx ~dur:(M.ms_in ctx 20.0 90.0));
              think ctx 20.0 50.0;
            ]);
  }

let file_save =
  {
    spec = spec "FileSave" 150 400;
    entry = Signature.of_string "App!FileSave";
    thread_name = "App.FileSave";
    heavy_prob = 0.5;
    concurrency = (4, 7);
    program =
      (fun ctx profile ->
        match profile with
        | Light -> P.seq [ think ctx 30.0 80.0; M.cache_lookup ctx; think ctx 20.0 60.0 ]
        | Heavy ->
          P.seq
            [
              think ctx 25.0 60.0;
              M.app_serialized ctx
                (M.mdu_write ctx
                   ~dur:(M.service_ms ctx ~median:60.0)
                   ~encrypted:(Prng.chance ctx.M.prng 0.6));
              maybe ctx 0.3 (fun () ->
                  M.backup_copy_on_write ctx ~dur:(M.service_ms ctx ~median:40.0));
              think ctx 30.0 80.0;
            ]);
  }

let app_launch =
  {
    spec = spec "AppLaunch" 400 900;
    entry = Signature.of_string "Shell!LaunchApp";
    thread_name = "Shell.Launch";
    heavy_prob = 0.5;
    concurrency = (2, 4);
    program =
      (fun ctx profile ->
        match profile with
        | Light ->
          P.seq
            [
              think ctx 120.0 260.0;
              M.app_serialized ctx (M.disk_read ctx ~dur:(M.service_ms ctx ~median:40.0));
              think ctx 100.0 220.0;
            ]
        | Heavy ->
          P.seq
            [
              think ctx 100.0 220.0;
              M.app_serialized ctx (M.disk_read ctx ~dur:(M.service_ms ctx ~median:90.0));
              M.av_serialized ctx ~dur:(M.ms_in ctx 60.0 220.0);
              maybe ctx 0.4 (fun () -> M.net_fetch_shared ctx ~dur:(M.ms_in ctx 40.0 160.0));
              think ctx 150.0 320.0;
            ]);
  }

let document_load =
  {
    spec = spec "DocumentLoad" 300 700;
    entry = Signature.of_string "App!DocumentLoad";
    thread_name = "App.DocLoad";
    heavy_prob = 0.5;
    concurrency = (4, 7);
    program =
      (fun ctx profile ->
        match profile with
        | Light ->
          P.seq
            [
              think ctx 80.0 180.0;
              M.app_serialized ctx (M.disk_read ctx ~dur:(M.service_ms ctx ~median:35.0));
              think ctx 70.0 160.0;
            ]
        | Heavy ->
          P.seq
            [
              think ctx 70.0 160.0;
              M.app_serialized ctx
                (M.file_table_chain ctx
                   ~inner:
                     (M.mdu_read ctx ~dur:(M.service_ms ctx ~median:100.0) ~encrypted:true));
              maybe ctx 0.3 (fun () -> M.direct_disk_read ctx ~dur:(M.ms_in ctx 25.0 90.0));
              think ctx 90.0 200.0;
            ]);
  }

let search_query =
  {
    spec = spec "SearchQuery" 200 500;
    entry = Signature.of_string "App!SearchQuery";
    thread_name = "App.Search";
    heavy_prob = 0.45;
    concurrency = (3, 5);
    program =
      (fun ctx profile ->
        match profile with
        | Light -> P.seq [ think ctx 50.0 120.0; M.cache_lookup ctx; think ctx 30.0 80.0 ]
        | Heavy ->
          P.seq
            [
              think ctx 40.0 100.0;
              M.net_fetch_shared ctx ~dur:(M.ms_in ctx 90.0 320.0);
              maybe ctx 0.4 (fun () -> M.cache_lookup ctx);
              think ctx 50.0 120.0;
            ]);
  }

(* Long, driver-light scenarios standing in for the corpus's
   1,364-scenario tail: they dominate wall-clock time while touching
   drivers rarely, which is what keeps the corpus-wide impact
   percentages at the paper's levels. *)
let video_playback =
  {
    spec = spec "VideoPlayback" 2000 4000;
    entry = Signature.of_string "Player!RenderLoop";
    thread_name = "Player.Render";
    heavy_prob = 0.25;
    concurrency = (1, 2);
    program =
      (fun ctx profile ->
        match profile with
        | Light ->
          P.seq
            [
              think ctx 500.0 1100.0;
              maybe ctx 0.5 (fun () -> M.direct_gpu_wait ctx ~dur:(M.ms_in ctx 5.0 20.0));
              think ctx 500.0 1000.0;
            ]
        | Heavy ->
          P.seq
            [
              think ctx 700.0 1400.0;
              M.app_serialized ctx (M.disk_read ctx ~dur:(M.service_ms ctx ~median:60.0));
              maybe ctx 0.5 (fun () -> M.direct_gpu_wait ctx ~dur:(M.ms_in ctx 10.0 40.0));
              think ctx 900.0 1800.0;
            ]);
  }

let text_editing =
  {
    spec = spec "TextEditing" 1000 2500;
    entry = Signature.of_string "Editor!KeystrokeBatch";
    thread_name = "Editor.Main";
    heavy_prob = 0.3;
    concurrency = (1, 3);
    program =
      (fun ctx profile ->
        match profile with
        | Light ->
          P.seq
            [
              think ctx 300.0 700.0;
              M.cache_lookup ctx;
              think ctx 250.0 600.0;
            ]
        | Heavy ->
          P.seq
            [
              think ctx 350.0 700.0;
              M.app_serialized ctx
                (M.mdu_write ctx
                   ~dur:(M.service_ms ctx ~median:40.0)
                   ~encrypted:(Prng.chance ctx.M.prng 0.3));
              think ctx 400.0 900.0;
            ]);
  }

let background =
  [
    av_scheduled_scan;
    cfg_refresh;
    motion_guard;
    file_open;
    file_save;
    app_launch;
    document_load;
    search_query;
    video_playback;
    text_editing;
  ]

let all = named @ background

let find name =
  List.find_opt (fun t -> t.spec.Dptrace.Scenario.name = name) all

let all_specs = List.map (fun t -> t.spec) all
