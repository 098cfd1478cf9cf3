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

let snap_doc ?pool ?scenarios snap corpus =
  render_doc (Pipeline.run_report_snap ?pool ?scenarios snap corpus)

let read_bin path = In_channel.with_open_bin path In_channel.input_all

(* The bytes of the one cache file in [dir]. *)
let saved_bytes dir =
  match Snapshot.list_files dir with
  | [ p ] -> read_bin p
  | l -> Alcotest.failf "expected one cache file, got %d" (List.length l)

(* The file a cold cache writes for [corpus], after a report has stored
   the mining record of every scenario in [scenarios] (default: all). *)
let cold_file ?scenarios corpus =
  let dir = fresh_dir () in
  let snap = open_snap ~dir corpus in
  ignore (snap_doc ?scenarios snap corpus);
  Snapshot.save snap;
  saved_bytes dir

let per_scenario_str l =
  String.concat "\n"
    (List.map
       (fun (n, r) -> Format.asprintf "%s: %a" n Impact.pp r)
       l)

let check_identical ?pool ~msg snap corpus =
  let fresh = Pipeline.run_report ?pool components corpus in
  let cached = Pipeline.run_report_snap ?pool snap corpus in
  check Alcotest.string (msg ^ ": json document") (render_doc fresh)
    (render_doc cached);
  check Alcotest.string
    (msg ^ ": per-scenario impact")
    (per_scenario_str fresh.Pipeline.per_scenario)
    (per_scenario_str cached.Pipeline.per_scenario)

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
  ignore (snap_doc snap prefix);
  Snapshot.save snap;
  (* Re-analysis over the grown corpus: only the appended streams miss. *)
  let snap = open_snap ~dir full in
  let stats = Snapshot.stats snap in
  check Alcotest.int "delta: prefix hits" (n - 3) stats.Snapshot.s_hits;
  check Alcotest.int "delta: appended streams miss" 3 stats.Snapshot.s_misses;
  check_identical ~msg:"delta" snap full;
  (* Untouched records, mining records of the scenarios the appended
     streams leave alone included, are copied verbatim; the file must
     still be the very one a cold cache writes for the grown corpus. *)
  Snapshot.save snap;
  check Alcotest.bool "delta-saved file = cold save on the grown corpus" true
    (saved_bytes dir = cold_file full)

(* A warm run that changes nothing must not rewrite the file: same
   bytes, same inode (no tmp+rename), but a fresh mtime, which is what
   `cache gc` ranks recency by. *)
let test_unchanged_save_only_touches () =
  let corpus = gen 0.03 in
  let dir = fresh_dir () in
  let cold = open_snap ~dir corpus in
  ignore (snap_doc cold corpus);
  Snapshot.save cold;
  let path = List.hd (Snapshot.list_files dir) in
  let before = read_bin path in
  let long_ago = 1.0e9 in
  Unix.utimes path long_ago long_ago;
  let inode = (Unix.stat path).Unix.st_ino in
  let warm = open_snap ~dir corpus in
  check_identical ~msg:"warm" warm corpus;
  Snapshot.save warm;
  let after = Unix.stat path in
  check Alcotest.string "file bytes unchanged" before (read_bin path);
  check Alcotest.int "not rewritten" inode after.Unix.st_ino;
  check Alcotest.bool "mtime refreshed" true (after.Unix.st_mtime > long_ago);
  check Alcotest.bool "no tmp written" false (Sys.file_exists (path ^ ".tmp"))

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

(* Rewrite the file's first record — a per-stream entry, since stream
   keys sort before scenario records — with its payload cut to half and
   its length and checksum resealed: the framing and the CRC hold, and
   only decoding the record can tell it is damaged. *)
let reseal_first_record_truncated path =
  let module Wire = Dptrace.Wire in
  let data = read_bin path in
  let cur = Wire.cursor data in
  cur.Wire.pos <- String.length "DPSN\x01";
  ignore (Wire.rstr cur : string);
  let start = cur.Wire.pos in
  let key = Wire.rstr cur in
  let len = Wire.r32 cur in
  ignore (Wire.r32 cur : int);
  let payload = String.sub data cur.Wire.pos (len / 2) in
  let rest = cur.Wire.pos + len in
  let buf = Buffer.create (String.length data) in
  Buffer.add_string buf (String.sub data 0 start);
  Wire.wstr buf key;
  Wire.w32 buf (String.length payload);
  Wire.w32 buf (Dputil.Crc32.string payload);
  Buffer.add_string buf payload;
  Buffer.add_string buf (String.sub data rest (String.length data - rest));
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc buf)

let test_resealed_record_dropped () =
  let corpus = gen 0.03 in
  let dir = fresh_dir () in
  let snap = open_snap ~dir corpus in
  ignore (snap_doc snap corpus);
  Snapshot.save snap;
  let path = List.hd (Snapshot.list_files dir) in
  let clean = read_bin path in
  reseal_first_record_truncated path;
  let snap = open_snap ~dir corpus in
  let stats = Snapshot.stats snap in
  check Alcotest.int "the resealed record is dropped" 1 stats.Snapshot.s_dropped;
  check Alcotest.int "and its stream re-analysed" 1 stats.Snapshot.s_misses;
  check_identical ~msg:"after a resealed bad record" snap corpus;
  Snapshot.save snap;
  check Alcotest.bool "the next save heals the file" true (read_bin path = clean)

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

(* A random [?scenarios] request over [full]: one scenario loses its spec,
   and the request lists a random subset of the spec'd names in random
   order, plus the spec-less name and a name the corpus lacks. Returns
   the corpus without that spec, the request and the names a report must
   keep, in order. *)
let draw_request rng (full : Corpus.t) =
  let names = Corpus.scenario_names full in
  let spec_less = List.nth names (Random.State.int rng (List.length names)) in
  let corpus =
    Corpus.create ~streams:full.Corpus.streams
      ~specs:
        (List.filter
           (fun (s : Dptrace.Scenario.spec) -> s.Dptrace.Scenario.name <> spec_less)
           full.Corpus.specs)
  in
  let subset =
    List.filter (fun n -> n <> spec_less && Random.State.bool rng) names
  in
  let request =
    List.map (fun n -> (Random.State.bits rng, n))
      (spec_less :: "NoSuchScenario" :: subset)
    |> List.sort compare |> List.map snd
  in
  let kept =
    List.filter (fun n -> Option.is_some (Corpus.find_spec corpus n)) request
  in
  (corpus, request, kept)

let prop_cached_equals_fresh =
  QCheck.Test.make ~name:"cached delta run = from-scratch (random corpora)"
    ~count:4
    QCheck.(
      quad (int_range 1 1000) (int_range 0 100) bool (int_range 0 0xffff))
    (fun (seed, split_pct, prov, pick) ->
      with_prov prov @@ fun () ->
      let full, scenarios, kept =
        draw_request (Random.State.make [| pick |]) (gen ~seed 0.03)
      in
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
      let fresh = Pipeline.run_report ~scenarios components full in
      let cached = Pipeline.run_report_snap ~scenarios snap full in
      Snapshot.save snap;
      List.map fst fresh.Pipeline.scenarios = kept
      && List.map fst cached.Pipeline.scenarios = kept
      && render_doc fresh = render_doc cached
      && per_scenario_str fresh.Pipeline.per_scenario
         = per_scenario_str cached.Pipeline.per_scenario
      && saved_bytes dir = cold_file ~scenarios full)

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
          Alcotest.test_case "unchanged save only refreshes mtime" `Slow
            test_unchanged_save_only_touches;
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
          Alcotest.test_case "resealed undecodable record dropped" `Slow
            test_resealed_record_dropped;
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
