(* Tests for the deterministic fault-injection layer (lib/fault):
   plan parsing, bit-identical replay of (seed, spec) schedules, retry
   budgets, and the graceful-degradation invariants — a screened run
   with nothing quarantined is byte-identical to a fault-free run, and
   analyzed + quarantined always accounts for every stream. *)

module Corpus = Dptrace.Corpus
module Corpus_gen = Dpworkload.Corpus_gen
module Pipeline = Dpcore.Pipeline
module Report = Dpcore.Report

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest
let components = Dpcore.Component.drivers

let gen ?(seed = 42) scale =
  Corpus_gen.generate { Corpus_gen.default_config with seed; scale }

(* Every test that arms a plan must disarm it, pass or fail: a leaked
   plan would poison every later test in the binary. *)
let with_plan spec f =
  match Dpfault.parse spec with
  | Error msg -> Alcotest.failf "parse %S: %s" spec msg
  | Ok plan ->
    Dpfault.install plan;
    Fun.protect ~finally:Dpfault.clear (fun () -> f plan)

let plan_of spec =
  match Dpfault.parse spec with
  | Ok p -> p
  | Error msg -> Alcotest.failf "parse %S: %s" spec msg

(* The full analyst surface as one string — what report --json emits. *)
let doc_of ?coverage corpus =
  let { Pipeline.impact; impact_prov; modules; scenarios; _ } =
    Pipeline.run_report components corpus
  in
  Dputil.Jsonw.to_string
    (Report.Json.document ?coverage ~impact ~impact_prov ~modules ~scenarios ())

let impact_text corpus =
  Dputil.Table.render
    (Report.impact_summary (fst (Pipeline.run_impact_prov components corpus)))

(* --- parsing --- *)

let test_parse_presets () =
  List.iter
    (fun (name, spec) ->
      let p = plan_of ("7:" ^ name) in
      let q = plan_of ("7:" ^ spec) in
      check Alcotest.int "preset seed" 7 p.Dpfault.p_seed;
      check Alcotest.bool
        (name ^ " expands to its spec")
        true
        (p.Dpfault.p_rules = q.Dpfault.p_rules))
    Dpfault.presets

let test_parse_clauses () =
  let p = plan_of "3:corpus.read=eintr@0.25,snapshot.write=torn@0.5!3" in
  check Alcotest.int "seed" 3 p.Dpfault.p_seed;
  check Alcotest.int "two rules" 2 (List.length p.Dpfault.p_rules);
  let r = List.assoc Dpfault.Snapshot_write p.Dpfault.p_rules in
  check Alcotest.bool "torn kind" true (r.Dpfault.r_kind = Dpfault.Torn_write);
  check (Alcotest.float 1e-9) "prob" 0.5 r.Dpfault.r_prob;
  check Alcotest.(option int) "attempts override" (Some 3)
    r.Dpfault.r_attempts;
  (* @prob defaults to 1.0; latencyN carries its milliseconds. *)
  let p = plan_of "1:pool.task=latency2" in
  let r = List.assoc Dpfault.Pool_task p.Dpfault.p_rules in
  check Alcotest.bool "latency kind" true
    (r.Dpfault.r_kind = Dpfault.Latency 2);
  check (Alcotest.float 1e-9) "default prob" 1.0 r.Dpfault.r_prob

let test_parse_rejects () =
  let bad spec =
    match Dpfault.parse spec with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "parse %S should fail" spec
  in
  bad "";
  bad "nocolon";
  bad "x:io-flaky";
  bad "7:";
  bad "7:nosuch.site=eintr@0.5";
  bad "7:corpus.read=nosuchkind@0.5";
  bad "7:corpus.read=eintr@1.5";
  bad "7:corpus.read=eintr@-0.1";
  bad "7:corpus.read=eintr@0.5!0";
  bad "7:corpus.read=eintr@0.5,corpus.read=fail@0.1"

let test_spec_roundtrip () =
  (* The normalised spec reparses to the same plan. *)
  List.iter
    (fun spec ->
      let p = plan_of spec in
      let q = plan_of p.Dpfault.p_spec in
      check Alcotest.bool (spec ^ " roundtrips") true (p = q))
    [ "7:io-flaky"; "0:torn-writes"; "123:slow-disk";
      "5:corpus.open=short@0.125,monitor.stat=race@1.0!2" ]

(* --- deterministic replay --- *)

let prop_draw_replays =
  QCheck.Test.make ~name:"draw: pure function of (seed, site, i)" ~count:50
    QCheck.(pair small_nat (QCheck.float_bound_exclusive 1.0))
    (fun (seed, prob) ->
      let spec =
        Printf.sprintf "%d:corpus.read=eintr@%f,monitor.stat=race@%f" seed
          prob (1.0 -. prob)
      in
      let plan = plan_of spec in
      let seq site =
        List.init 200 (fun i -> Dpfault.draw plan site i)
      in
      seq Dpfault.Corpus_read = seq Dpfault.Corpus_read
      && seq Dpfault.Monitor_stat = seq Dpfault.Monitor_stat
      (* and reparsing the same spec draws the same schedule *)
      && seq Dpfault.Corpus_read
         = List.init 200 (fun i ->
               Dpfault.draw (plan_of spec) Dpfault.Corpus_read i))

let test_check_replays_after_reinstall () =
  let plan = plan_of "11:corpus.read=eintr@0.3" in
  let run () =
    Dpfault.install plan;
    Fun.protect ~finally:Dpfault.clear (fun () ->
        List.init 100 (fun _ -> Dpfault.check Dpfault.Corpus_read))
  in
  let a = run () and b = run () in
  check Alcotest.bool "reinstall replays from call 0" true (a = b);
  check Alcotest.bool "some draws hit" true
    (List.exists (fun k -> k <> None) a);
  check Alcotest.bool "some draws miss" true (List.exists (( = ) None) a)

let test_disarmed_is_free () =
  Dpfault.clear ();
  check Alcotest.bool "disarmed" false (Dpfault.armed ());
  check Alcotest.bool "check returns None" true
    (Dpfault.check Dpfault.Corpus_read = None);
  (* guard must not raise and not count. *)
  Dpfault.guard Dpfault.Snapshot_write;
  check Alcotest.int "no calls counted" 0
    (Dpfault.call_count Dpfault.Snapshot_write)

(* The cost of shipping the guards, measured deterministically: a
   disarmed guard or check is one atomic load and allocates nothing. *)
let test_disarmed_allocates_nothing () =
  Dpfault.clear ();
  let iters = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    Dpfault.guard Dpfault.Corpus_read;
    ignore (Sys.opaque_identity (Dpfault.check Dpfault.Pool_task))
  done;
  let words = Gc.minor_words () -. before in
  (* Zero words per call; the slack covers the Gc.minor_words calls
     themselves, far below one word per guard. *)
  if words > 16.0 then
    Alcotest.failf "disarmed guards allocated %.0f minor words over %d calls"
      words iters

(* --- retry --- *)

let test_retry_absorbs_transients () =
  (* Injected EINTRs below the budget: the call succeeds and the caller
     never sees a fault. *)
  with_plan "5:corpus.open=eintr@0.5" @@ fun _ ->
  for _ = 1 to 50 do
    let r =
      Dpfault.Retry.run Dpfault.Corpus_open (fun () ->
          Dpfault.guard Dpfault.Corpus_open;
          41 + 1)
    in
    check Alcotest.int "retried to success" 42 r
  done

let test_retry_budget_exhausts () =
  with_plan "5:corpus.open=fail@1.0!3" @@ fun _ ->
  check Alcotest.int "budget override visible" 3
    (Dpfault.Retry.budget Dpfault.Corpus_open);
  (match
     Dpfault.Retry.run Dpfault.Corpus_open (fun () ->
         Dpfault.guard Dpfault.Corpus_open;
         ())
   with
  | () -> Alcotest.fail "prob-1.0 fail must exhaust the budget"
  | exception Dpfault.Injected { site = Dpfault.Corpus_open; _ } -> ()
  | exception e -> raise e);
  check Alcotest.int "exactly budget calls consumed" 3
    (Dpfault.call_count Dpfault.Corpus_open)

let test_retry_default_falls_back () =
  with_plan "5:monitor.stat=race@1.0!2" @@ fun _ ->
  let r =
    Dpfault.Retry.run_default Dpfault.Monitor_stat
      ~default:(fun () -> ~-1)
      (fun () ->
        Dpfault.guard Dpfault.Monitor_stat;
        0)
  in
  check Alcotest.int "fail-open default" ~-1 r

let test_retry_passes_other_exceptions () =
  with_plan "5:corpus.open=eintr@0.0" @@ fun _ ->
  match
    Dpfault.Retry.run Dpfault.Corpus_open (fun () -> failwith "real bug")
  with
  | _ -> Alcotest.fail "non-transient exception must pass through"
  | exception Failure msg -> check Alcotest.string "untouched" "real bug" msg

let test_counters_bump () =
  Dpobs.enable ~spans:false ~metrics:true ();
  Fun.protect ~finally:Dpobs.disable @@ fun () ->
  (* Counters are interned by name: this reads the very cells the fault
     layer bumps. *)
  let value name = Dpobs.Metrics.counter_value (Dpobs.Metrics.counter name) in
  let injected0 = value "fault.injected" in
  let gave0 = value "retry.gave_up" in
  with_plan "5:corpus.open=fail@1.0!2" (fun _ ->
      match
        Dpfault.Retry.run Dpfault.Corpus_open (fun () ->
            Dpfault.guard Dpfault.Corpus_open)
      with
      | () -> Alcotest.fail "must exhaust"
      | exception Dpfault.Injected _ -> ());
  check Alcotest.int "fault.injected counted" (injected0 + 2)
    (value "fault.injected");
  check Alcotest.int "retry.gave_up counted" (gave0 + 1)
    (value "retry.gave_up")

(* --- screening / graceful degradation --- *)

let test_screen_disarmed_is_identity () =
  Dpfault.clear ();
  let corpus = gen 0.02 in
  let screened, cov = Pipeline.screen corpus in
  check Alcotest.bool "same corpus value" true (screened == corpus);
  check Alcotest.int "total" (Corpus.stream_count corpus)
    cov.Pipeline.cov_total;
  check Alcotest.int "all analyzed" cov.Pipeline.cov_total
    cov.Pipeline.cov_analyzed;
  check Alcotest.bool "nothing quarantined" true
    (cov.Pipeline.cov_quarantined = [])

let test_screen_quarantines_on_exhaustion () =
  let corpus = gen 0.02 in
  let n = Corpus.stream_count corpus in
  with_plan "9:corpus.read=fail@1.0!2" @@ fun _ ->
  let screened, cov = Pipeline.screen corpus in
  check Alcotest.int "everything quarantined" n
    (List.length cov.Pipeline.cov_quarantined);
  check Alcotest.int "nothing analyzed" 0 cov.Pipeline.cov_analyzed;
  check Alcotest.int "screened corpus empty" 0
    (Corpus.stream_count screened);
  (* Reasons name the site and the spent budget. *)
  List.iter
    (fun (_, reason) ->
      check Alcotest.string "reason" reason
        "injected fail at corpus.read exhausted 2 attempt(s)")
    cov.Pipeline.cov_quarantined

let test_corpus_open_exhaustion_is_an_error () =
  let corpus = gen 0.02 in
  let path = "fault_corpus.dpt" in
  Dptrace.Codec.save path corpus;
  with_plan "9:corpus.open=fail@1.0!2" @@ fun _ ->
  match Dptrace.Corpus_dir.load path with
  | Error msg ->
    check Alcotest.bool "error names the injection" true
      (let has needle =
         let n = String.length needle and m = String.length msg in
         let rec go i =
           i + n <= m && (String.sub msg i n = needle || go (i + 1))
         in
         go 0
       in
       has "injected" && has "corpus.open")
  | Ok _ -> Alcotest.fail "prob-1.0 corpus.open must exhaust into Error"

let prop_coverage_accounts_every_stream =
  QCheck.Test.make
    ~name:"screen: analyzed + quarantined = total (any plan)" ~count:20
    QCheck.(
      triple (int_range 0 1000)
        (QCheck.float_bound_exclusive 1.0)
        (int_range 1 4))
    (fun (seed, prob, attempts) ->
      let corpus = gen 0.02 in
      let spec =
        Printf.sprintf "%d:corpus.read=fail@%f!%d" seed prob attempts
      in
      with_plan spec @@ fun _ ->
      let screened, cov = Pipeline.screen corpus in
      cov.Pipeline.cov_total = Corpus.stream_count corpus
      && cov.Pipeline.cov_analyzed = Corpus.stream_count screened
      && cov.Pipeline.cov_analyzed
         + List.length cov.Pipeline.cov_quarantined
         = cov.Pipeline.cov_total)

(* A fault-free run's JSON document and text tables; the screen's
   coverage under the plan [seed:io-flaky]; and, when it quarantined
   nothing, the document and tables of the run under that plan. *)
let flaky_run seed =
  let corpus = gen ~seed:(1 + (seed mod 7)) 0.02 in
  let plain = (doc_of corpus, impact_text corpus) in
  with_plan (Printf.sprintf "%d:io-flaky" seed) @@ fun _ ->
  let screened, cov = Pipeline.screen corpus in
  ( plain,
    cov,
    if cov.Pipeline.cov_quarantined = [] then
      Some (doc_of ~coverage:cov screened, impact_text screened)
    else None )

let prop_zero_quarantine_byte_identical =
  (* Whatever the plan draws: a run that quarantines nothing prints, as
     text tables and as the JSON document, exactly what a fault-free run
     prints. (Transient faults under the default budget usually
     quarantine nothing, but not always; see the pinned plans below.) *)
  QCheck.Test.make ~name:"zero quarantines => byte-identical output"
    ~count:4
    QCheck.(int_range 0 1000)
    (fun seed ->
      match flaky_run seed with
      | _, _, None -> true
      | plain, _, Some faulty -> faulty = plain)

let test_pinned_flaky_plans () =
  List.iter
    (fun seed ->
      let plain, cov, faulty = flaky_run seed in
      check Alcotest.int (Printf.sprintf "plan %d: budget holds" seed) 0
        (List.length cov.Pipeline.cov_quarantined);
      check Alcotest.bool (Printf.sprintf "plan %d: byte-identical" seed) true
        (faulty = Some plain))
    [ 0; 1; 5; 123 ];
  (* Plan 874 draws more transient faults for stream 17's reads than the
     default budget of 8 attempts absorbs. *)
  let _, cov, _ = flaky_run 874 in
  check
    Alcotest.(list (pair int string))
    "plan 874: the quarantine is reported"
    [ (17, "injected eintr at corpus.read exhausted 8 attempt(s)") ]
    cov.Pipeline.cov_quarantined

let prop_screen_replays =
  QCheck.Test.make ~name:"screen: same plan => same quarantine set"
    ~count:10
    QCheck.(pair (int_range 0 1000) (QCheck.float_bound_exclusive 1.0))
    (fun (seed, prob) ->
      let corpus = gen 0.02 in
      let spec = Printf.sprintf "%d:corpus.read=fail@%f!1" seed prob in
      let run () =
        with_plan spec @@ fun _ ->
        let _, cov = Pipeline.screen corpus in
        cov
      in
      run () = run ())

let test_coverage_table_lists_quarantined () =
  let corpus = gen 0.02 in
  with_plan "9:corpus.read=fail@1.0!1" @@ fun _ ->
  let _, cov = Pipeline.screen corpus in
  let table = Dputil.Table.render (Report.stream_coverage cov) in
  check Alcotest.bool "row per stream" true
    (List.length (String.split_on_char '\n' (String.trim table))
    > List.length cov.Pipeline.cov_quarantined)

let () =
  Alcotest.run "fault"
    [
      ( "parse",
        [
          Alcotest.test_case "presets expand" `Quick test_parse_presets;
          Alcotest.test_case "clauses, budgets, latency" `Quick
            test_parse_clauses;
          Alcotest.test_case "malformed specs rejected" `Quick
            test_parse_rejects;
          Alcotest.test_case "normalised spec roundtrips" `Quick
            test_spec_roundtrip;
        ] );
      ( "replay",
        [
          qcheck prop_draw_replays;
          Alcotest.test_case "check replays after reinstall" `Quick
            test_check_replays_after_reinstall;
          Alcotest.test_case "disarmed guard is free" `Quick
            test_disarmed_is_free;
          Alcotest.test_case "disarmed guard allocates nothing" `Quick
            test_disarmed_allocates_nothing;
        ] );
      ( "retry",
        [
          Alcotest.test_case "transients absorbed" `Quick
            test_retry_absorbs_transients;
          Alcotest.test_case "budget exhausts deterministically" `Quick
            test_retry_budget_exhausts;
          Alcotest.test_case "fail-open default" `Quick
            test_retry_default_falls_back;
          Alcotest.test_case "other exceptions pass through" `Quick
            test_retry_passes_other_exceptions;
          Alcotest.test_case "telemetry counters bump" `Quick
            test_counters_bump;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "disarmed screen is the identity" `Quick
            test_screen_disarmed_is_identity;
          Alcotest.test_case "exhausted budget quarantines" `Quick
            test_screen_quarantines_on_exhaustion;
          Alcotest.test_case "corpus.open exhaustion surfaces as Error"
            `Quick test_corpus_open_exhaustion_is_an_error;
          qcheck prop_coverage_accounts_every_stream;
          qcheck prop_zero_quarantine_byte_identical;
          Alcotest.test_case "pinned io-flaky plans: budget holds, 874 quarantines"
            `Quick test_pinned_flaky_plans;
          qcheck prop_screen_replays;
          Alcotest.test_case "coverage table lists the quarantined" `Quick
            test_coverage_table_lists_quarantined;
        ] );
    ]
