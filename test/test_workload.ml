(* Tests for the workload layer: taxonomy, motifs, scenario templates, the
   corpus generator and the motivating case. *)

module Engine = Dpsim.Engine
module Time = Dputil.Time
module Prng = Dputil.Prng
module T = Dpworkload.Taxonomy
module Scenarios = Dpworkload.Scenarios
module Corpus_gen = Dpworkload.Corpus_gen
module MC = Dpworkload.Motivating_case

let check = Alcotest.check

(* --- taxonomy --- *)

let test_taxonomy_modules () =
  check Alcotest.bool "fv.sys is a filter" true
    (T.type_of_module "fv.sys" = Some T.Fs_filter);
  check Alcotest.bool "case-insensitive" true
    (T.type_of_module "FV.SYS" = Some T.Fs_filter);
  check Alcotest.bool "se.sys is encryption" true
    (T.type_of_module "se.sys" = Some T.Storage_encryption);
  check Alcotest.bool "unknown module" true (T.type_of_module "foo.dll" = None)

let test_taxonomy_signatures () =
  check (Alcotest.option Alcotest.string) "fs read" (Some "FileSystem/Storage")
    (T.type_name_of_signature T.fs_read);
  check (Alcotest.option Alcotest.string) "graphics" (Some "Graphics")
    (T.type_name_of_signature T.gfx_render);
  check (Alcotest.option Alcotest.string) "hw dummy untyped" None
    (T.type_name_of_signature T.disk_service);
  check (Alcotest.option Alcotest.string) "kernel untyped" None
    (T.type_name_of_signature Dpsim.Program.kernel_worker)

let test_taxonomy_covers_table4 () =
  check Alcotest.int "ten types" 10 (List.length T.all_types);
  let names = List.map T.type_name T.all_types in
  check Alcotest.int "distinct names" 10 (List.length (List.sort_uniq compare names))

(* --- scenario templates all run --- *)

let run_template (tpl : Scenarios.template) profile seed =
  let engine = Engine.create ~stream_id:0 () in
  let env = Dpworkload.Env.create engine in
  let ctx = { Dpworkload.Motifs.env; prng = Prng.of_int seed } in
  let steps = tpl.Scenarios.program ctx profile in
  ignore
    (Engine.spawn engine ~scenario:tpl.Scenarios.spec.Dptrace.Scenario.name
       ~start_at:0 ~name:"t"
       ~base_stack:[ tpl.Scenarios.entry ]
       steps);
  Engine.run engine

let test_all_templates_run () =
  List.iter
    (fun (tpl : Scenarios.template) ->
      List.iter
        (fun profile ->
          List.iter
            (fun seed ->
              let st = run_template tpl profile seed in
              check Alcotest.bool
                (tpl.Scenarios.spec.Dptrace.Scenario.name ^ " valid")
                true
                (Fixtures.is_valid st);
              check Alcotest.int
                (tpl.Scenarios.spec.Dptrace.Scenario.name ^ " one instance")
                1
                (List.length st.Dptrace.Stream.instances))
            [ 1; 2; 3 ])
        [ Scenarios.Light; Scenarios.Heavy ])
    Scenarios.all

let test_light_solo_is_fast () =
  (* Under zero load, light profiles must classify fast for the named
     scenarios (slowness is meant to be emergent, not built-in). *)
  List.iter
    (fun (tpl : Scenarios.template) ->
      let st = run_template tpl Scenarios.Light 5 in
      let i = List.hd st.Dptrace.Stream.instances in
      check Alcotest.bool
        (tpl.Scenarios.spec.Dptrace.Scenario.name ^ " light solo fast")
        true
        (Dptrace.Scenario.classify tpl.Scenarios.spec i = Dptrace.Scenario.Fast))
    Scenarios.named

let test_find_and_specs () =
  let named name =
    List.exists (fun t -> t.Scenarios.spec.Dptrace.Scenario.name = name) Scenarios.all
  in
  check Alcotest.bool "find hit" true (named "BrowserTabCreate");
  check Alcotest.bool "find miss" false (named "NoSuch");
  check Alcotest.int "all specs" (List.length Scenarios.all)
    (List.length Scenarios.all_specs);
  check Alcotest.int "eight named" 8 (List.length Scenarios.named)

(* --- motifs produce the driver modules Table 4 expects --- *)

let modules_of_motif build =
  (* Unquantised running events: sub-millisecond driver computes must
     still leave their signatures visible to this test. *)
  let engine = Engine.create ~quantize_running:false ~stream_id:0 () in
  let env = Dpworkload.Env.create engine in
  let ctx = { Dpworkload.Motifs.env; prng = Prng.of_int 11 } in
  ignore
    (Engine.spawn engine ~start_at:0 ~name:"t"
       ~base_stack:[ Dptrace.Signature.of_string "app!main" ]
       (build ctx));
  let st = Engine.run engine in
  let mods = ref [] in
  Array.iter
    (fun (e : Dptrace.Event.t) ->
      Array.iter
        (fun s -> mods := Dptrace.Signature.module_part s :: !mods)
        (Dptrace.Callstack.frames e.Dptrace.Event.stack))
    st.Dptrace.Stream.events;
  List.sort_uniq compare !mods

let test_motif_modules () =
  let module M = Dpworkload.Motifs in
  let expects =
    [
      ("cached_file_open", (fun ctx -> M.cached_file_open ctx), [ "fv.sys" ]);
      ("cache_lookup", (fun ctx -> M.cache_lookup ctx), [ "ioc.sys" ]);
      ("mouse_input", (fun ctx -> M.mouse_input ctx), [ "mou.sys" ]);
      ("disk_read", (fun ctx -> M.disk_read ctx ~dur:(Time.ms 20)), [ "fs.sys" ]);
      ( "encrypted_disk_read",
        (fun ctx -> M.encrypted_disk_read ctx ~dur:(Time.ms 20)),
        [ "fs.sys"; "se.sys" ] );
      ( "mdu_read",
        (fun ctx -> M.mdu_read ctx ~dur:(Time.ms 20) ~encrypted:true),
        [ "fs.sys"; "se.sys" ] );
      ( "mdu_write",
        (fun ctx -> M.mdu_write ctx ~dur:(Time.ms 20) ~encrypted:true),
        [ "fs.sys"; "se.sys" ] );
      ( "net_fetch_served",
        (fun ctx -> M.net_fetch_served ctx ~dur:(Time.ms 20)),
        [ "net.sys"; "tcpip.sys" ] );
      ("dns_resolve", (fun ctx -> M.dns_resolve ctx), [ "net.sys" ]);
      ( "file_table_chain",
        (fun ctx ->
          M.file_table_chain ctx ~inner:(M.disk_read ctx ~dur:(Time.ms 10))),
        [ "fv.sys"; "fs.sys" ] );
      ("av_inspection", (fun ctx -> M.av_inspection ctx ~dur:(Time.ms 20)), [ "av.sys"; "fs.sys" ]);
      ("av_serialized", (fun ctx -> M.av_serialized ctx ~dur:(Time.ms 20)), [ "av.sys" ]);
      ("gpu_render", (fun ctx -> M.gpu_render ctx ~dur:(Time.ms 20)), [ "graphics.sys" ]);
      ( "hard_fault_page_read",
        (fun ctx -> M.hard_fault_page_read ctx ~dur:(Time.ms 50)),
        [ "graphics.sys"; "se.sys" ] );
      ( "guarded_disk_read",
        (fun ctx -> M.guarded_disk_read ctx ~dur:(Time.ms 20)),
        [ "dp.sys"; "fs.sys" ] );
      ( "disk_protection_halt",
        (fun ctx -> M.disk_protection_halt ctx ~dur:(Time.ms 20)),
        [ "dp.sys" ] );
      ( "backup_copy_on_write",
        (fun ctx -> M.backup_copy_on_write ctx ~dur:(Time.ms 20)),
        [ "bk.sys"; "fs.sys" ] );
      ("acpi_transition", (fun ctx -> M.acpi_transition ctx), [ "acpi.sys" ]);
      ( "direct_disk_read",
        (fun ctx -> M.direct_disk_read ctx ~dur:(Time.ms 20)),
        [ "fs.sys" ] );
      ( "direct_gpu_wait",
        (fun ctx -> M.direct_gpu_wait ctx ~dur:(Time.ms 20)),
        [ "graphics.sys" ] );
    ]
  in
  List.iter
    (fun (name, build, expected_modules) ->
      let mods = modules_of_motif build in
      List.iter
        (fun m ->
          check Alcotest.bool
            (Printf.sprintf "%s mentions %s" name m)
            true (List.mem m mods))
        expected_modules)
    expects

(* --- corpus generation --- *)

let small_config = { Corpus_gen.default_config with Corpus_gen.scale = 0.03 }

let test_corpus_valid () =
  let corpus = Corpus_gen.generate small_config in
  check (Alcotest.list Alcotest.string) "no violations" []
    (List.map
       (fun (sid, v) ->
         Format.asprintf "s%d: %a" sid Dptrace.Validate.pp_violation v)
       (Dptrace.Validate.check_corpus corpus))

let test_corpus_targets () =
  let corpus = Corpus_gen.generate small_config in
  List.iter
    (fun (name, target) ->
      let want =
        max 1
          (int_of_float
             (Float.round (small_config.Corpus_gen.scale *. float_of_int target)))
      in
      let got = List.length (Dptrace.Corpus.instances_of corpus name) in
      check Alcotest.bool (name ^ " reaches target") true (got >= want))
    Corpus_gen.target_counts

let test_corpus_deterministic () =
  let a = Corpus_gen.generate small_config in
  let b = Corpus_gen.generate small_config in
  check Alcotest.string "same corpus"
    (Fixtures.corpus_to_string a)
    (Fixtures.corpus_to_string b)

let test_corpus_seed_sensitive () =
  let a = Corpus_gen.generate small_config in
  let b = Corpus_gen.generate { small_config with Corpus_gen.seed = 77 } in
  check Alcotest.bool "different corpora" true
    (Fixtures.corpus_to_string a <> Fixtures.corpus_to_string b)

let test_corpus_specs_complete () =
  let corpus = Corpus_gen.generate small_config in
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ " has spec") true
        (Dptrace.Corpus.find_spec corpus name <> None))
    (Dptrace.Corpus.scenario_names corpus)

let test_episode_exposed () =
  let prng = Prng.of_int 3 in
  let st =
    Corpus_gen.build_episode ~stream_id:9 ~prng ~quantize:true ~cross:true
      Scenarios.browser_tab_create
  in
  check Alcotest.int "stream id" 9 st.Dptrace.Stream.id;
  check Alcotest.bool "has tab-create instances" true
    (List.exists
       (fun (i : Dptrace.Scenario.instance) -> i.scenario = "BrowserTabCreate")
       st.Dptrace.Stream.instances);
  check Alcotest.bool "valid" true (Fixtures.is_valid st)

(* --- motivating case --- *)

let test_case_exceeds_tslow () =
  let case = MC.build () in
  let d = Dptrace.Scenario.duration case.MC.browser_instance in
  check Alcotest.bool "over 800ms" true (d > Time.ms 800);
  check Alcotest.bool "valid stream" true (Fixtures.is_valid case.MC.stream)

let test_case_deterministic () =
  let a = MC.build () and b = MC.build () in
  check Alcotest.int "same duration"
    (Dptrace.Scenario.duration a.MC.browser_instance)
    (Dptrace.Scenario.duration b.MC.browser_instance)

let test_case_corpus_classes () =
  let corpus = MC.corpus ~copies:8 () in
  let c = Dpcore.Classify.classify corpus "BrowserTabCreate" in
  let f, _, s = Dpcore.Classify.counts c in
  check Alcotest.int "8 fast replicas" 8 f;
  check Alcotest.int "8 slow replicas" 8 s

let test_case_pattern_rediscovered () =
  let corpus = MC.corpus ~copies:10 () in
  let r =
    Dpcore.Pipeline.run_scenario Dpcore.Component.drivers corpus
      "BrowserTabCreate"
  in
  match r.Dpcore.Pipeline.mining.Dpcore.Mining.patterns with
  | [] -> Alcotest.fail "no pattern mined"
  | top :: _ ->
    let names =
      List.map Dptrace.Signature.name
        (Dpcore.Tuple.all_signatures top.Dpcore.Mining.tuple)
    in
    List.iter
      (fun expected ->
        check Alcotest.bool (expected ^ " present") true (List.mem expected names))
      MC.expected_pattern_signatures

let () =
  Alcotest.run "dpworkload"
    [
      ( "taxonomy",
        [
          Alcotest.test_case "modules" `Quick test_taxonomy_modules;
          Alcotest.test_case "signatures" `Quick test_taxonomy_signatures;
          Alcotest.test_case "table 4 coverage" `Quick test_taxonomy_covers_table4;
        ] );
      ( "templates",
        [
          Alcotest.test_case "all run and validate" `Slow test_all_templates_run;
          Alcotest.test_case "light solo is fast" `Quick test_light_solo_is_fast;
          Alcotest.test_case "find/specs" `Quick test_find_and_specs;
        ] );
      ( "motifs",
        [ Alcotest.test_case "driver modules" `Quick test_motif_modules ] );
      ( "corpus",
        [
          Alcotest.test_case "valid" `Quick test_corpus_valid;
          Alcotest.test_case "targets reached" `Quick test_corpus_targets;
          Alcotest.test_case "deterministic" `Quick test_corpus_deterministic;
          Alcotest.test_case "seed sensitive" `Quick test_corpus_seed_sensitive;
          Alcotest.test_case "specs complete" `Quick test_corpus_specs_complete;
          Alcotest.test_case "episode exposed" `Quick test_episode_exposed;
        ] );
      ( "motivating case",
        [
          Alcotest.test_case "exceeds tslow" `Quick test_case_exceeds_tslow;
          Alcotest.test_case "deterministic" `Quick test_case_deterministic;
          Alcotest.test_case "corpus classes" `Quick test_case_corpus_classes;
          Alcotest.test_case "pattern rediscovered" `Quick
            test_case_pattern_rediscovered;
        ] );
    ]
