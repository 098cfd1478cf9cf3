(* Tests for the incremental snapshot cache: cached re-analysis must be
   bit-identical to from-scratch analysis in every cache state (cold,
   warm, delta, corrupted), the config fingerprint must isolate
   configurations, and damage must degrade to misses, never errors. *)

module Corpus = Dptrace.Corpus
module Corpus_gen = Dpworkload.Corpus_gen
module Pipeline = Dpcore.Pipeline
module Snapshot = Dpcore.Snapshot
module Impact = Dpcore.Impact
module Report = Dpcore.Report

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest
let components = Dpcore.Component.drivers

let gen ?(seed = 42) scale =
  Corpus_gen.generate { Corpus_gen.default_config with seed; scale }

let with_prov on f =
  let was = Dpcore.Provenance.enabled () in
  if on then Dpcore.Provenance.enable () else Dpcore.Provenance.disable ();
  Fun.protect
    ~finally:(fun () ->
      if was then Dpcore.Provenance.enable ()
      else Dpcore.Provenance.disable ())
    f

(* Fresh directory per use, under the test sandbox cwd. *)
let dir_ctr = ref 0

let fresh_dir () =
  incr dir_ctr;
  let dir = Printf.sprintf "snapcache_%d" !dir_ctr in
  if Sys.file_exists dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir)
  else Sys.mkdir dir 0o755;
  dir

let open_snap ?pool ~dir corpus =
  let fp =
    Snapshot.fingerprint ~components ~specs:corpus.Corpus.specs
      ~k:Dpcore.Mining.default_k ()
  in
  let snap = Snapshot.create ~dir ~fingerprint:fp () in
  Snapshot.ensure ?pool snap components corpus;
  snap

(* The full analyst surface rendered to one string: headline impact with
   provenance, per-module rows, and every scenario's classification, AWGs
   (via mined patterns and witnesses) and coverages. Comparing these
   strings compares everything report --json emits. *)
let render_doc { Pipeline.impact; impact_prov; modules; scenarios; _ } =
  Dputil.Jsonw.to_string
    (Report.Json.document ~impact ~impact_prov ~modules ~scenarios ())

let fresh_doc ?pool corpus =
  render_doc (Pipeline.run_report ?pool components corpus)

let snap_doc ?pool snap corpus =
  render_doc (Pipeline.run_report_snap ?pool snap corpus)

let per_scenario_str l =
  String.concat "\n"
    (List.map
       (fun (n, r) -> Format.asprintf "%s: %a" n Impact.pp r)
       l)

let check_identical ?pool ~msg snap corpus =
  check Alcotest.string (msg ^ ": json document") (fresh_doc ?pool corpus)
    (snap_doc ?pool snap corpus);
  check Alcotest.string
    (msg ^ ": per-scenario impact")
    (per_scenario_str (Pipeline.impact_per_scenario ?pool components corpus))
    (per_scenario_str (Pipeline.impact_per_scenario_snap snap corpus))

(* --- stream identity --- *)

let test_stream_key_stable () =
  let corpus = gen 0.02 in
  let keys = List.map Dptrace.Codec_v2.stream_key corpus.Corpus.streams in
  let path = "snapkey_corpus.dpf" in
  Dptrace.Codec_v2.save path corpus;
  let loaded, _report = Dptrace.Codec_v2.load ~mode:`Strict path in
  let keys' = List.map Dptrace.Codec_v2.stream_key loaded.Corpus.streams in
  check Alcotest.(list string) "keys survive encode/decode" keys keys';
  let distinct = List.sort_uniq compare keys in
  check Alcotest.int "keys are distinct across streams"
    (List.length keys) (List.length distinct)

(* --- cold / warm / delta identity --- *)

let test_cold_and_warm_identical () =
  let corpus = gen 0.05 in
  let dir = fresh_dir () in
  let cold = open_snap ~dir corpus in
  check_identical ~msg:"cold" cold corpus;
  let stats = Snapshot.stats cold in
  check Alcotest.int "cold: no hits" 0 stats.Snapshot.s_hits;
  Snapshot.save cold;
  let warm = open_snap ~dir corpus in
  check_identical ~msg:"warm" warm corpus;
  let stats = Snapshot.stats warm in
  check Alcotest.int "warm: every stream hits"
    (List.length corpus.Corpus.streams)
    stats.Snapshot.s_hits;
  check Alcotest.int "warm: no misses" 0 stats.Snapshot.s_misses

let test_append_delta_identical () =
  let full = gen 0.05 in
  let n = List.length full.Corpus.streams in
  let prefix =
    Corpus.create
      ~streams:(List.filteri (fun i _ -> i < n - 3) full.Corpus.streams)
      ~specs:full.Corpus.specs
  in
  let dir = fresh_dir () in
  let snap = open_snap ~dir prefix in
  Snapshot.save snap;
  (* Re-analysis over the grown corpus: only the appended streams miss. *)
  let snap = open_snap ~dir full in
  let stats = Snapshot.stats snap in
  check Alcotest.int "delta: prefix hits" (n - 3) stats.Snapshot.s_hits;
  check Alcotest.int "delta: appended streams miss" 3 stats.Snapshot.s_misses;
  check_identical ~msg:"delta" snap full

let test_prov_identical () =
  with_prov true @@ fun () ->
  let corpus = gen 0.04 in
  let dir = fresh_dir () in
  let snap = open_snap ~dir corpus in
  check_identical ~msg:"prov cold" snap corpus;
  Snapshot.save snap;
  let warm = open_snap ~dir corpus in
  check_identical ~msg:"prov warm" warm corpus

let test_pooled_identical () =
  Dppar.Pool.with_pool ~domains:4 @@ fun pool ->
  let corpus = gen 0.05 in
  let dir = fresh_dir () in
  (* Misses analysed across 4 domains; compared against the sequential
     from-scratch pipeline and a sequentially-ensured snapshot. *)
  let pooled = open_snap ~pool ~dir corpus in
  check_identical ~msg:"pooled vs sequential-fresh" pooled corpus;
  check Alcotest.string "pooled ensure = sequential ensure"
    (snap_doc (open_snap ~dir:(fresh_dir ()) corpus) corpus)
    (snap_doc ~pool pooled corpus)

(* Scenario mining records: a warm run re-mines nothing; appending one
   stream re-mines only the scenarios that stream contains. *)
let test_mining_cache_reuse () =
  let full = gen 0.05 in
  let n = List.length full.Corpus.streams in
  let has_spec name =
    List.exists
      (fun (s : Dptrace.Scenario.spec) -> s.Dptrace.Scenario.name = name)
      full.Corpus.specs
  in
  let mined_scenarios corpus =
    List.filter has_spec (Corpus.scenario_names corpus)
  in
  let dir = fresh_dir () in
  let cold = open_snap ~dir full in
  ignore (snap_doc cold full);
  let stats = Snapshot.stats cold in
  check Alcotest.int "cold: no mining hits" 0 stats.Snapshot.s_mining_hits;
  check Alcotest.int "cold: every scenario mined"
    (List.length (mined_scenarios full))
    stats.Snapshot.s_mining_misses;
  Snapshot.save cold;
  let warm = open_snap ~dir full in
  ignore (snap_doc warm full);
  let stats = Snapshot.stats warm in
  check Alcotest.int "warm: nothing re-mined" 0 stats.Snapshot.s_mining_misses;
  check Alcotest.int "warm: every scenario reused"
    (List.length (mined_scenarios full))
    stats.Snapshot.s_mining_hits;
  (* Delta: cache the n-1-stream prefix, then analyse the full corpus. *)
  let prefix =
    Corpus.create
      ~streams:(List.filteri (fun i _ -> i < n - 1) full.Corpus.streams)
      ~specs:full.Corpus.specs
  in
  let appended = List.nth full.Corpus.streams (n - 1) in
  let dir = fresh_dir () in
  let snap = open_snap ~dir prefix in
  ignore (snap_doc snap prefix);
  Snapshot.save snap;
  let snap = open_snap ~dir full in
  ignore (snap_doc snap full);
  let stats = Snapshot.stats snap in
  let touched =
    List.sort_uniq compare
      (List.filter_map
         (fun (i : Dptrace.Scenario.instance) ->
           if has_spec i.Dptrace.Scenario.scenario then
             Some i.Dptrace.Scenario.scenario
           else None)
         appended.Dptrace.Stream.instances)
  in
  check Alcotest.bool "delta: only touched scenarios re-mined" true
    (stats.Snapshot.s_mining_misses <= List.length touched);
  check Alcotest.int "delta: the rest reused"
    (List.length (mined_scenarios full) - stats.Snapshot.s_mining_misses)
    stats.Snapshot.s_mining_hits

(* --- robustness --- *)

let test_corrupt_cache_recovers () =
  let corpus = gen 0.04 in
  let dir = fresh_dir () in
  let snap = open_snap ~dir corpus in
  Snapshot.save snap;
  let path =
    match Snapshot.list_files dir with
    | [ p ] -> p
    | l -> Alcotest.failf "expected one cache file, got %d" (List.length l)
  in
  (* Flip bytes through the body: some entries fail their checksum. *)
  let data = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string data in
  let step = max 1 (Bytes.length b / 37) in
  let i = ref 64 in
  while !i < Bytes.length b do
    Bytes.set b !i (Char.chr (Char.code (Bytes.get b !i) lxor 0xff));
    i := !i + step
  done;
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc b);
  let snap = open_snap ~dir corpus in
  let stats = Snapshot.stats snap in
  check Alcotest.bool "some entries were dropped or lost" true
    (stats.Snapshot.s_dropped > 0
    || stats.Snapshot.s_loaded < List.length corpus.Corpus.streams);
  check Alcotest.bool "damage becomes misses" true
    (stats.Snapshot.s_misses > 0);
  check_identical ~msg:"after corruption" snap corpus;
  (* And the file itself is verifiable tooling-side. *)
  let fi = Snapshot.inspect path in
  check Alcotest.bool "inspect sees the damage" true
    (fi.Snapshot.fi_corrupt > 0 || fi.Snapshot.fi_entries < List.length corpus.Corpus.streams)

let test_truncated_and_garbage_files () =
  let corpus = gen 0.02 in
  let dir = fresh_dir () in
  let snap = open_snap ~dir corpus in
  Snapshot.save snap;
  let path = List.hd (Snapshot.list_files dir) in
  let data = In_channel.with_open_bin path In_channel.input_all in
  (* Truncated file: loads a prefix of entries, rest miss. *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub data 0 (String.length data / 2)));
  let snap = open_snap ~dir corpus in
  check_identical ~msg:"truncated" snap corpus;
  (* Garbage file: everything misses, nothing raises. *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "this is not a snapshot");
  let snap = open_snap ~dir corpus in
  let stats = Snapshot.stats snap in
  check Alcotest.int "garbage loads nothing" 0 stats.Snapshot.s_loaded;
  check_identical ~msg:"garbage" snap corpus

let test_fingerprint_isolation () =
  let specs = [ Dptrace.Scenario.spec ~name:"S" ~tfast:100 ~tslow:500 ] in
  let fp ~k () = Snapshot.fingerprint ~components ~specs ~k () in
  let base = fp ~k:5 () in
  check Alcotest.bool "k changes the fingerprint" true (base <> fp ~k:6 ());
  let other =
    Snapshot.fingerprint
      ~components:(Dpcore.Component.of_patterns [ "net.*" ])
      ~specs ~k:5 ()
  in
  check Alcotest.bool "components change the fingerprint" true (base <> other);
  let specs' = [ Dptrace.Scenario.spec ~name:"S" ~tfast:100 ~tslow:501 ] in
  check Alcotest.bool "specs change the fingerprint" true
    (base <> Snapshot.fingerprint ~components ~specs:specs' ~k:5 ());
  with_prov true (fun () ->
      check Alcotest.bool "provenance switch changes the fingerprint" true
        (base <> fp ~k:5 ()));
  (* A cache saved under one fingerprint is invisible to another. *)
  let corpus = gen 0.02 in
  let dir = fresh_dir () in
  let snap = open_snap ~dir corpus in
  Snapshot.save snap;
  let alien = Snapshot.create ~dir ~fingerprint:"0000000000000000" () in
  check Alcotest.int "other fingerprint loads nothing" 0
    (Snapshot.stats alien).Snapshot.s_loaded

let test_stale_entries_counted () =
  let full = gen 0.03 in
  let n = List.length full.Corpus.streams in
  let dir = fresh_dir () in
  let snap = open_snap ~dir full in
  Snapshot.save snap;
  let shrunk =
    Corpus.create
      ~streams:(List.filteri (fun i _ -> i < n - 2) full.Corpus.streams)
      ~specs:full.Corpus.specs
  in
  let snap = open_snap ~dir shrunk in
  let stats = Snapshot.stats snap in
  check Alcotest.int "removed streams are stale" 2 stats.Snapshot.s_stale;
  check Alcotest.int "remaining streams hit" (n - 2) stats.Snapshot.s_hits

(* --- gc --- *)

let test_gc_keeps_newest () =
  let dir = fresh_dir () in
  let corpus = gen 0.02 in
  List.iter
    (fun fingerprint ->
      let snap = Snapshot.create ~dir ~fingerprint () in
      Snapshot.ensure snap components corpus;
      Snapshot.save snap)
    [ "aaaaaaaaaaaaaaaa"; "bbbbbbbbbbbbbbbb"; "cccccccccccccccc" ];
  check Alcotest.int "three files" 3 (List.length (Snapshot.list_files dir));
  let removed, reclaimed = Snapshot.gc ~keep:1 dir in
  check Alcotest.int "two removed" 2 removed;
  check Alcotest.bool "bytes reclaimed" true (reclaimed > 0);
  check Alcotest.int "one kept" 1 (List.length (Snapshot.list_files dir))

(* --- crash consistency: kill points around the tmp+rename save --- *)

let read_bin path = In_channel.with_open_bin path In_channel.input_all

let with_plan spec f =
  match Dpfault.parse spec with
  | Error msg -> Alcotest.failf "parse %S: %s" spec msg
  | Ok plan ->
    Dpfault.install plan;
    Fun.protect ~finally:Dpfault.clear f

(* Kill point 1, a torn tmp write: the injected [Torn_write] persists
   only a prefix of the tmp before failing, so the published cache file
   must never change, the cache must keep serving every entry, and a
   later clean save must recover — the rename is the commit point. *)
let test_torn_write_never_replaces_cache () =
  let corpus = gen 0.03 in
  let dir = fresh_dir () in
  let snap = open_snap ~dir corpus in
  Snapshot.save snap;
  let path =
    match Snapshot.list_files dir with
    | [ p ] -> p
    | l -> Alcotest.failf "expected one cache file, got %d" (List.length l)
  in
  let clean = read_bin path in
  with_plan "1:snapshot.write=torn@1.0!2" (fun () -> Snapshot.save snap);
  check Alcotest.string "published file byte-untouched" clean (read_bin path);
  let tmp = path ^ ".tmp" in
  check Alcotest.bool "torn tmp left behind" true (Sys.file_exists tmp);
  check Alcotest.bool "tmp really holds only a prefix" true
    (String.length (read_bin tmp) < String.length clean);
  (* The authoritative file still serves everything, bit-identically. *)
  let warm = open_snap ~dir corpus in
  let stats = Snapshot.stats warm in
  check Alcotest.int "every stream still hits"
    (List.length corpus.Corpus.streams)
    stats.Snapshot.s_hits;
  check_identical ~msg:"after abandoned save" warm corpus;
  (* Recovery: the next clean save rewrites the tmp from offset 0 and
     commits; the stale torn tmp is consumed by the rename. *)
  Snapshot.save snap;
  check Alcotest.bool "tmp renamed away" false (Sys.file_exists tmp);
  check Alcotest.string "file is a pure function of its entries" clean
    (read_bin path)

(* Kill point 2, torn very first save: nothing gets published at all —
   an absent cache beats a corrupt one. *)
let test_torn_first_save_publishes_nothing () =
  let corpus = gen 0.02 in
  let dir = fresh_dir () in
  let snap = open_snap ~dir corpus in
  with_plan "1:snapshot.write=torn@1.0!3" (fun () -> Snapshot.save snap);
  check Alcotest.(list string) "no cache file published" []
    (Snapshot.list_files dir);
  let reopened = open_snap ~dir corpus in
  let stats = Snapshot.stats reopened in
  check Alcotest.int "nothing to load" 0 stats.Snapshot.s_loaded;
  check_identical ~msg:"absent cache degrades to misses" reopened corpus

(* Kill point 3, a duplicate/garbage tmp from an earlier crash: a clean
   save must simply overwrite it and publish intact data. *)
let test_stale_garbage_tmp_overwritten () =
  let corpus = gen 0.02 in
  let dir = fresh_dir () in
  let snap = open_snap ~dir corpus in
  let fp =
    Snapshot.fingerprint ~components ~specs:corpus.Corpus.specs
      ~k:Dpcore.Mining.default_k ()
  in
  let tmp = Filename.concat dir (fp ^ ".dpsnap.tmp") in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc "leftover garbage from a crash");
  Snapshot.save snap;
  check Alcotest.bool "tmp consumed by the rename" false
    (Sys.file_exists tmp);
  let warm = open_snap ~dir corpus in
  check Alcotest.int "published file loads every entry"
    (List.length corpus.Corpus.streams)
    (Snapshot.stats warm).Snapshot.s_loaded;
  check_identical ~msg:"after overwriting garbage tmp" warm corpus

(* Kill point 4, the missing-rename crash: promote the torn tmp over the
   cache file by hand (as if the machine died mid-publish with a broken
   fs). The loader must drop the cut record, never serve corrupt data,
   and [inspect] — the engine behind `driveperf cache verify` — must
   count the damage. *)
let test_torn_file_verifies_as_corrupt () =
  let corpus = gen 0.03 in
  let dir = fresh_dir () in
  let snap = open_snap ~dir corpus in
  Snapshot.save snap;
  let path = List.hd (Snapshot.list_files dir) in
  with_plan "1:snapshot.write=torn@1.0!1" (fun () -> Snapshot.save snap);
  Sys.rename (path ^ ".tmp") path;
  let fi = Snapshot.inspect path in
  check Alcotest.bool "cache verify counts the torn record" true
    (fi.Snapshot.fi_corrupt > 0
    || fi.Snapshot.fi_entries < List.length corpus.Corpus.streams);
  let snap = open_snap ~dir corpus in
  let stats = Snapshot.stats snap in
  check Alcotest.bool "cut entries reanalysed, not served" true
    (stats.Snapshot.s_misses > 0);
  check_identical ~msg:"torn file never corrupts results" snap corpus

(* --- property: cached delta = from-scratch, random corpora and splits --- *)

let prop_cached_equals_fresh =
  QCheck.Test.make ~name:"cached delta run = from-scratch (random corpora)"
    ~count:4
    QCheck.(
      triple (int_range 1 1000) (int_range 0 100) bool)
    (fun (seed, split_pct, prov) ->
      with_prov prov @@ fun () ->
      let full = gen ~seed 0.03 in
      let n = List.length full.Corpus.streams in
      let keep = max 1 (n * split_pct / 100) in
      let prefix =
        Corpus.create
          ~streams:(List.filteri (fun i _ -> i < keep) full.Corpus.streams)
          ~specs:full.Corpus.specs
      in
      let dir = fresh_dir () in
      let snap = open_snap ~dir prefix in
      Snapshot.save snap;
      let snap = open_snap ~dir full in
      fresh_doc full = snap_doc snap full
      && per_scenario_str (Pipeline.impact_per_scenario components full)
         = per_scenario_str (Pipeline.impact_per_scenario_snap snap full))

let () =
  Alcotest.run "snapshot"
    [
      ( "identity",
        [
          Alcotest.test_case "stream keys stable and distinct" `Quick
            test_stream_key_stable;
          Alcotest.test_case "cold and warm cache = from-scratch" `Slow
            test_cold_and_warm_identical;
          Alcotest.test_case "append-delta = from-scratch" `Slow
            test_append_delta_identical;
          Alcotest.test_case "provenance on: cached = from-scratch" `Slow
            test_prov_identical;
          Alcotest.test_case "pooled ensure = sequential" `Slow
            test_pooled_identical;
          Alcotest.test_case "mining records reused across runs" `Slow
            test_mining_cache_reuse;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "bit-flipped cache degrades to misses" `Slow
            test_corrupt_cache_recovers;
          Alcotest.test_case "truncated / garbage cache files" `Quick
            test_truncated_and_garbage_files;
          Alcotest.test_case "fingerprint isolates configurations" `Quick
            test_fingerprint_isolation;
          Alcotest.test_case "stale entries counted" `Quick
            test_stale_entries_counted;
          Alcotest.test_case "gc keeps the newest files" `Quick
            test_gc_keeps_newest;
        ] );
      ( "crash consistency",
        [
          Alcotest.test_case "torn write never replaces the cache" `Slow
            test_torn_write_never_replaces_cache;
          Alcotest.test_case "torn first save publishes nothing" `Slow
            test_torn_first_save_publishes_nothing;
          Alcotest.test_case "stale garbage tmp overwritten" `Quick
            test_stale_garbage_tmp_overwritten;
          Alcotest.test_case "torn file counted by cache verify" `Slow
            test_torn_file_verifies_as_corrupt;
        ] );
      ("properties", [ qcheck prop_cached_equals_fresh ]);
    ]
