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

(* Every record of a cache file, in file order: [(start, key, payload
   offset, payload)]. *)
let records data =
  let module Wire = Dptrace.Wire in
  let cur = Wire.cursor data in
  cur.Wire.pos <- String.length "DPSN\x01";
  ignore (Wire.rstr cur : string);
  let rec go acc =
    if Wire.at_end cur then List.rev acc
    else begin
      let start = cur.Wire.pos in
      let key = Wire.rstr cur in
      let len = Wire.r32 cur in
      ignore (Wire.r32 cur : int);
      let pos = cur.Wire.pos in
      cur.Wire.pos <- pos + len;
      go ((start, key, pos, String.sub data pos len) :: acc)
    end
  in
  go []

(* The file a cold cache writes for [corpus], after a report over
   [scenarios] (default: all). *)
let cold_file ?scenarios corpus =
  let dir = fresh_dir () in
  let snap = open_snap ~dir corpus in
  ignore (snap_doc ?scenarios snap corpus);
  Snapshot.save snap;
  saved_bytes dir

let per_scenario_str l =
  String.concat "\n"
    (List.map
       (fun (n, r) -> Format.asprintf "%s: %a" n Fixtures.pp_impact r)
       l)

(* A framed corpus folded through the cache in [dir] the way [report
   --cache] runs it: each stream looked up, or stepped on a miss, as it
   is decoded; the snapshot opened by the first step (or after the
   tails, for a corpus with no streams) unless [snap] is given; the
   scenario tails; the save. Returns
   the report, the screening's coverage, the snapshot's stats and the
   frames the read dropped. *)
let fold_ctr = ref 0

let fold_cached ?pool ?scenarios ?(mode = `Strict) ?snap ~dir data =
  incr fold_ctr;
  let path = Printf.sprintf "snapfold_%d.dpf" !fold_ctr in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data);
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let cell = ref snap and lock = Mutex.create () in
  let snapshot specs =
    Mutex.protect lock @@ fun () ->
    match !cell with
    | Some snap -> snap
    | None ->
      let fingerprint =
        Snapshot.fingerprint ~components ~specs ~k:Dpcore.Mining.default_k ()
      in
      let snap = Snapshot.create ~dir ~fingerprint () in
      cell := Some snap;
      snap
  in
  let dropped = ref [] in
  let acc, skeletons, coverage =
    Pipeline.fold_report ?scenarios ~cache:(Some snapshot) components
      (fun ~step ~consume ->
        match Dptrace.Corpus_dir.fold ?pool ~mode ~step ~consume path with
        | Ok l ->
          Option.iter
            (fun r -> dropped := r.Dptrace.Codec_v2.dropped)
            l.Dptrace.Corpus_dir.l_report;
          l.Dptrace.Corpus_dir.l_corpus
        | Error m -> Alcotest.failf "fold: %s" m)
  in
  let report = Pipeline.finish ?pool acc skeletons in
  let snap = snapshot skeletons.Corpus.specs in
  Snapshot.save snap;
  (report, coverage, Snapshot.stats snap, !dropped)

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
  let loaded, _report =
    Dptrace.Codec_v2.fold path ~step:(fun _ -> Dptrace.Codec_v2.frame_stream) ~consume:Option.some
  in
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
  (* Untouched records are copied verbatim; the file must still be the
     very one a cold cache writes for the grown corpus. *)
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

(* The same for a snapshot that took its misses and saved them: a
   second save has nothing new to write, so it keeps the file's inode
   and bytes. *)
let test_second_save_only_touches () =
  let corpus = gen 0.03 in
  let dir = fresh_dir () in
  let snap = open_snap ~dir corpus in
  Snapshot.save snap;
  let path = List.hd (Snapshot.list_files dir) in
  let before = read_bin path in
  let inode = (Unix.stat path).Unix.st_ino in
  Snapshot.save snap;
  check Alcotest.string "file bytes unchanged" before (read_bin path);
  check Alcotest.int "not rewritten" inode (Unix.stat path).Unix.st_ino

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

(* The name predates [dpsnap-3], when the snapshot also cached each
   scenario's mining result; it stays so that the suite's test names do
   not move. The snapshot now caches stream entries only, so cold, warm
   and append-delta [--cache] runs each mine the merged forests: every
   requested scenario gets the from-scratch [Mining.result], the saved
   file holds no scenario record, and the mining counters stay 0. *)
let test_mining_cache_reuse () =
  let full = gen 0.05 in
  let n = List.length full.Corpus.streams in
  let prefix =
    Corpus.create
      ~streams:(List.filteri (fun i _ -> i < n - 1) full.Corpus.streams)
      ~specs:full.Corpus.specs
  in
  let scenarios = List.filteri (fun i _ -> i mod 2 = 0) (Corpus.scenario_names full) in
  let fresh = (Pipeline.run_report ~scenarios components full).Pipeline.scenarios in
  check Alcotest.bool "some scenario is mined" true (fresh <> []);
  let run msg dir =
    let r, _, stats, _ = fold_cached ~scenarios ~dir (V2_frames.encode full) in
    check Alcotest.(list string) (msg ^ ": scenarios") (List.map fst fresh)
      (List.map fst r.Pipeline.scenarios);
    List.iter2
      (fun (name, (f : Pipeline.scenario_result)) (_, (c : Pipeline.scenario_result)) ->
        check Alcotest.bool (msg ^ ": " ^ name ^ " mined as from scratch") true
          (compare f.Pipeline.mining c.Pipeline.mining = 0))
      fresh r.Pipeline.scenarios;
    check Alcotest.(list string) (msg ^ ": the file holds stream entries only")
      (List.sort compare (List.map Dptrace.Codec_v2.stream_key full.Corpus.streams))
      (List.map (fun (_, key, _, _) -> key) (records (saved_bytes dir)));
    check Alcotest.int (msg ^ ": no mining hits") 0 stats.Snapshot.s_mining_hits;
    check Alcotest.int (msg ^ ": no mining misses") 0 stats.Snapshot.s_mining_misses
  in
  let dir = fresh_dir () in
  run "cold" dir;
  run "warm" dir;
  let dir = fresh_dir () in
  ignore (fold_cached ~scenarios ~dir (V2_frames.encode prefix));
  run "delta" dir

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

(* [data] with [payload] in place of the record's, its length and
   checksum resealed: the framing and the CRC hold, and only decoding
   the record can tell it is damaged. *)
let with_payload data (start, key, pos, old) payload =
  let module Wire = Dptrace.Wire in
  let rest = pos + String.length old in
  let buf = Buffer.create (String.length data) in
  Buffer.add_string buf (String.sub data 0 start);
  Wire.wstr buf key;
  Wire.w32 buf (String.length payload);
  Wire.w32 buf (Dputil.Crc32.string payload);
  Buffer.add_string buf payload;
  Buffer.add_string buf (String.sub data rest (String.length data - rest));
  Buffer.contents buf

let write_bin path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

(* Rewrite the file's first record with its payload cut to half. *)
let reseal_first_record_truncated path =
  let data = read_bin path in
  let ((_, _, _, payload) as first) = List.hd (records data) in
  write_bin path (with_payload data first (String.sub payload 0 (String.length payload / 2)))

(* --- the entry's tables, damaged ---

   A payload starts with the stream id, the name table and the instance
   table. These helpers find a name index (the first instance's
   scenario, the first name any entry uses) and an instance index (the
   first wait record of the stream's wait reservoir), and rewrite one
   of them: past its table, or, for the name, to one whose first use
   would come before name 0's. *)

type table_damage = Inst_past | Name_past | Unordered

let damages = [ Inst_past; Name_past; Unordered ]

let damage_name = function
  | Inst_past -> "instance index past the table"
  | Name_past -> "name index past the table"
  | Unordered -> "name table out of first-use order"

(* [payload] with the varint at [pos] replaced by [v]. *)
let set_varint payload pos v =
  let module Wire = Dptrace.Wire in
  let cur = { (Wire.cursor payload) with Wire.pos = pos } in
  ignore (Wire.rv cur : int);
  let b = Buffer.create (String.length payload + 8) in
  Buffer.add_string b (String.sub payload 0 pos);
  Wire.wv b v;
  Buffer.add_string b (String.sub payload cur.Wire.pos (String.length payload - cur.Wire.pos));
  Buffer.contents b

(* The damaged payload and the message both readers refuse it with;
   [None] when the payload has no such field. *)
let damage_tables kind payload =
  let module Wire = Dptrace.Wire in
  let cur = Wire.cursor payload in
  ignore (Wire.rv cur : int);
  let names = Wire.rcount cur in
  for _ = 1 to names do Wire.skip_str cur done;
  let insts = Wire.rcount cur in
  let first_name = cur.Wire.pos in
  for _ = 1 to 4 * insts do ignore (Wire.rv cur : int) done;
  for _ = 1 to 7 do ignore (Wire.rv cur : int) done;
  let first_wait = if Wire.rcount cur > 0 then Some cur.Wire.pos else None in
  match (kind, first_wait) with
  | Inst_past, Some p ->
    Some (set_varint payload p insts,
          Printf.sprintf "entry tables: instance %d past the table of %d" insts insts)
  | Name_past, _ when insts > 0 ->
    Some (set_varint payload first_name names,
          Printf.sprintf "entry tables: name %d past the table of %d" names names)
  | Unordered, _ when insts > 0 && names > 1 ->
    Some (set_varint payload first_name 1, "entry tables: name 1 first used before name 0")
  | _ -> None

(* The first record of [data] that has the field, damaged: the record
   and the damaged payload with its message. *)
let first_damaged kind data =
  List.find_map
    (fun ((_, _, _, payload) as r) -> Option.map (fun d -> (r, d)) (damage_tables kind payload))
    (records data)

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
  check Alcotest.bool "the next save heals the file" true (read_bin path = clean);
  (* A record whose tables are damaged, and resealed, is refused by the
     decode and the walk alike, with the same message: dropped at open,
     counted by [cache verify], and its stream re-analysed. With
     provenance on, records carry wait records to damage. *)
  with_prov true @@ fun () ->
  let dir = fresh_dir () in
  let snap = open_snap ~dir corpus in
  ignore (snap_doc snap corpus);
  Snapshot.save snap;
  let path = List.hd (Snapshot.list_files dir) in
  let clean = read_bin path in
  List.iter
    (fun kind ->
      let case = damage_name kind in
      match first_damaged kind clean with
      | None -> Alcotest.failf "%s: no record to damage" case
      | Some (r, (damaged, msg)) ->
        List.iter
          (fun build ->
            match Snapshot.entry_index ~build damaged with
            | _ -> Alcotest.failf "%s: accepted (build %b)" case build
            | exception Dptrace.Wire.Corrupt m -> check Alcotest.string (case ^ ": message") msg m)
          [ true; false ];
        write_bin path (with_payload clean r damaged);
        check Alcotest.int (case ^ ": cache verify") 1 (Snapshot.inspect path).Snapshot.fi_corrupt;
        let snap = open_snap ~dir corpus in
        check Alcotest.int (case ^ ": dropped") 1 (Snapshot.stats snap).Snapshot.s_dropped;
        check Alcotest.int (case ^ ": re-analysed") 1 (Snapshot.stats snap).Snapshot.s_misses;
        check_identical ~msg:case snap corpus)
    damages

(* --- the entry reader's two modes ---

   [create] validates each entry record with the entry reader run
   without [build], which builds nothing. It must accept exactly the
   records the decode (the same reader with [build]) accepts, refuse the
   rest with the same message, and return the same section index. *)

module Wire = Dptrace.Wire

(* [(offset of its payload, payload)] of every record of a cache file. *)
let entry_records data = List.map (fun (_, _, pos, payload) -> (pos, payload)) (records data)

let verdict ~build payload =
  match Snapshot.entry_index ~build payload with
  | index -> Ok index
  | exception Wire.Corrupt m -> Error m

(* A cache file of a small corpus with provenance on, so its records
   carry reservoirs and witnesses too, and [loaded data]: the stats of a
   [create] over [data] written in its place. *)
let walk_fixture () =
  let corpus = gen 0.02 in
  let base = cold_file corpus in
  let fingerprint =
    Snapshot.fingerprint ~components ~specs:corpus.Corpus.specs
      ~k:Dpcore.Mining.default_k ()
  in
  let dir = fresh_dir () in
  let path = Filename.concat dir (fingerprint ^ ".dpsnap") in
  let loaded data =
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc data);
    Snapshot.stats (Snapshot.create ~dir ~fingerprint ())
  in
  (base, loaded, (loaded (Bytes.of_string base)).Snapshot.s_loaded)

(* One byte of one entry's payload rewritten and its CRC resealed: the
   walk and the decode agree, and [create] drops the record exactly when
   the decode refuses it. *)
let prop_walk_matches_decode =
  with_prov true @@ fun () ->
  let base, loaded, records_in_file = walk_fixture () in
  let records = entry_records base in
  QCheck.Test.make ~name:"entry walk accepts exactly what the decode accepts"
    ~count:200
    QCheck.(triple small_nat (int_bound 1_000_000) (int_range 0 255))
    (fun (record_seed, pos_seed, byte) ->
      let pos, payload = List.nth records (record_seed mod List.length records) in
      let b = Bytes.of_string payload in
      Bytes.set b (pos_seed mod Bytes.length b) (Char.chr byte);
      let payload = Bytes.to_string b in
      let data = Bytes.of_string base in
      Bytes.blit_string payload 0 data pos (String.length payload);
      Bytes.set_int32_le data (pos - 4) (Int32.of_int (Dputil.Crc32.string payload));
      let decoded = verdict ~build:true payload in
      let stats = loaded data in
      decoded = verdict ~build:false payload
      && stats.Snapshot.s_dropped = (if Result.is_ok decoded then 0 else 1)
      && stats.Snapshot.s_loaded + stats.Snapshot.s_dropped = records_in_file)

(* One of the tables' fields of one entry damaged: the walk and the
   decode refuse the record with the damage's message, and [create]
   drops it alone. A record without the field stays as it is and
   loads. *)
let prop_walk_refuses_table_damage =
  with_prov true @@ fun () ->
  let base, loaded, records_in_file = walk_fixture () in
  let framed = records base in
  QCheck.Test.make ~name:"entry walk refuses each table damage as the decode does"
    ~count:100
    QCheck.(pair small_nat (int_bound (List.length damages - 1)))
    (fun (record_seed, kind) ->
      let r = List.nth framed (record_seed mod List.length framed) in
      let _, _, _, payload = r in
      let data, payload, expect =
        match damage_tables (List.nth damages kind) payload with
        | Some (damaged, msg) -> (with_payload base r damaged, damaged, Error msg)
        | None -> (base, payload, verdict ~build:true payload)
      in
      let decoded = verdict ~build:true payload in
      let stats = loaded (Bytes.of_string data) in
      decoded = expect
      && decoded = verdict ~build:false payload
      && stats.Snapshot.s_dropped = (if Result.is_ok decoded then 0 else 1)
      && stats.Snapshot.s_loaded + stats.Snapshot.s_dropped = records_in_file)

module Tables = Dpcore.Provenance.Tables

(* An entry payload of a stream with no instances, with one scenario
   section whose class part has [fast] as its fast forest and an empty
   slow one; every number 0. *)
let entry_with_fast_forest fast =
  let st = Dptrace.Stream.create ~id:0 ~events:[||] ~instances:[] ~threads:[] in
  let b = Buffer.create 64 in
  Wire.wv b 0 (* stream id *);
  Buffer.add_string b
    (Fixtures.with_tables st (fun tabs b ->
         let zeros n = for _ = 1 to n do Wire.wv b 0 done in
         zeros 7 (* impact *);
         zeros 3 (* provenance: two empty reservoirs, no module reservoirs *);
         zeros 1 (* module rows *);
         Wire.wv b 1;
         Tables.wname tabs b "S";
         zeros 7 (* the section's all-instance impact *);
         Wire.w8 b 1;
         zeros 7 (* slow-class impact *);
         zeros 3 (* its provenance *);
         fast tabs b;
         zeros 1 (* the slow forest: no roots *)));
  Buffer.contents b

(* A [Running name] node with no cost or witnesses, over [kids]; with
   [padded] the name's index is a two-byte varint, as no writer emits
   it but the reader accepts. *)
let running_node ?(padded = false) name kids tabs b =
  Wire.w8 b 1;
  let index = Buffer.create 2 in
  Tables.wname tabs index name;
  if padded then begin
    Wire.w8 b (0x80 lor Char.code (Buffer.nth index 0));
    Wire.w8 b 0
  end
  else Buffer.add_buffer b index;
  for _ = 1 to 4 do Wire.wv b 0 done;
  Wire.wv b (List.length kids);
  List.iter (fun k -> k tabs b) kids

let forest roots tabs b =
  Wire.wv b (List.length roots);
  List.iter (fun r -> r tabs b) roots

(* Siblings are stored in strictly increasing name order, so a pair out
   of order is refused, and so is a pair of equal statuses, among
   children and among roots alike, with the same message with and
   without [build]. A padded-length duplicate has bytes of its own but
   the same decoded name, and the order compares decoded names, so it is
   refused too. Siblings in order pass both. *)
let test_walk_padded_duplicates () =
  let a = running_node "a!b" [] and a' = running_node ~padded:true "a!b" [] in
  let c = running_node "a!c" [] in
  check Alcotest.bool "the two encodings differ" true
    (entry_with_fast_forest (forest [ a ]) <> entry_with_fast_forest (forest [ a' ]));
  let refused what =
    Error (Printf.sprintf "Awg.Partial: %s statuses not strictly increasing" what)
  in
  List.iter
    (fun (case, fast, expect) ->
      let payload = entry_with_fast_forest fast in
      let decoded = verdict ~build:true payload in
      (match (decoded, expect) with
      | Ok _, Ok () -> ()
      | Error m, Error m' -> check Alcotest.string (case ^ ": message") m' m
      | Ok _, Error _ -> Alcotest.failf "%s: accepted" case
      | Error m, Ok () -> Alcotest.failf "%s: refused (%s)" case m);
      check Alcotest.bool (case ^ ": walk = decode") true
        (verdict ~build:false payload = decoded))
    [
      ("swapped children", forest [ running_node "m!f" [ c; a ] ], refused "child");
      ("swapped roots", forest [ c; a ], refused "root");
      ("duplicate children", forest [ running_node "m!f" [ a; a ] ], refused "child");
      ("duplicate roots", forest [ a; a ], refused "root");
      ("padded duplicate children", forest [ running_node "m!f" [ a; a' ] ], refused "child");
      ("padded duplicate roots", forest [ a; a' ], refused "root");
      ("children in order", forest [ running_node "m!f" [ a; c ] ], Ok ());
      ("roots in order", forest [ a'; c ], Ok ());
    ]

(* A forest of 100,000 distinct roots, in name order: [m!f0] < [m!f1]
   < ... since a shorter name sorts first. *)
let wide_roots () = List.init 100_000 (fun i -> running_node (Printf.sprintf "m!f%d" i) [])

(* The entry reader's verdict on a forest of [roots], with and without
   [build], each within a 2 s deadline: the order check compares each
   sibling with the one before it, never every pair. *)
let wide_verdicts roots =
  let payload = entry_with_fast_forest (forest roots) in
  List.map
    (fun build ->
      let t0 = Sys.time () in
      let v = verdict ~build payload in
      let elapsed = Sys.time () -. t0 in
      if elapsed > 2.0 then Alcotest.failf "read took %.2fs" elapsed;
      v)
    [ true; false ]

let test_walk_wide_forest () =
  List.iter
    (function
      | Ok index -> check Alcotest.int "one section" 1 (List.length index)
      | Error m -> Alcotest.failf "refused in-order roots: %s" m)
    (wide_verdicts (wide_roots ()))

let test_walk_wide_forest_reversed () =
  match wide_verdicts (List.rev (wide_roots ())) with
  | [ (Error m as decoded); walked ] ->
    check Alcotest.bool ("walk = decode: " ^ m) true (walked = decoded)
  | _ -> Alcotest.fail "reverse-ordered roots accepted"

(* --- witness lists: stored canonical, checked on read ---

   A witness list is a count, then per entry an instance index, a cost
   and a count, each entry strictly after the one before it
   (cost-descending, ties by the instance named). These helpers find
   the lists in real records, so the tests below can damage one. *)

module Prov = Dpcore.Provenance

let skip_varints cur n = for _ = 1 to n do ignore (Wire.rv cur : int) done

(* The witness list at [cur], stepped over: where it starts, and each
   entry's byte span. *)
let witness_list cur =
  let start = cur.Wire.pos in
  let spans = ref [] in
  for _ = 1 to Wire.rcount cur do
    let s = cur.Wire.pos in
    skip_varints cur 3;
    spans := (s, cur.Wire.pos) :: !spans
  done;
  (start, List.rev !spans)

(* A reservoir: per wait record, instance, event, name, ts, te, cost and
   multiplicity. *)
let skip_topk cur = for _ = 1 to Wire.rcount cur do skip_varints cur 7 done

(* The witness lists of a partial's nodes, consed onto [acc]. *)
let rec forest_witnesses acc cur =
  let acc = ref acc in
  for _ = 1 to Wire.rcount cur do
    let tag = Wire.r8 cur in
    skip_varints cur (if tag = 0 then 2 else 1);
    skip_varints cur 3;
    acc := witness_list cur :: !acc;
    acc := forest_witnesses !acc cur
  done;
  !acc

(* The witness lists of an entry payload's class forests: each class
   section holds the all-instance impact, a tag, the slow class's impact
   and provenance, then the two forests. *)
let entry_witnesses payload =
  List.concat_map
    (fun (_, off, has_class) ->
      if not has_class then []
      else begin
        let cur = { (Wire.cursor payload) with Wire.pos = off } in
        skip_varints cur 7;
        ignore (Wire.r8 cur : int);
        skip_varints cur 7;
        skip_topk cur;
        skip_topk cur;
        for _ = 1 to Wire.rcount cur do
          skip_varints cur 1;
          skip_topk cur
        done;
        forest_witnesses (forest_witnesses [] cur) cur
      end)
    (Snapshot.entry_index ~build:false payload)

let span s a b = String.sub s a (b - a)

let swap_first_two s (_, spans) =
  match spans with
  | (s1, e1) :: (s2, e2) :: _ ->
    span s 0 s1 ^ span s s2 e2 ^ span s s1 e1 ^ span s e2 (String.length s)
  | _ -> assert false

let repeat_first s (_, spans) =
  match spans with
  | (s1, e1) :: (_, e2) :: _ ->
    span s 0 s1 ^ span s s1 e1 ^ span s s1 e1 ^ span s e2 (String.length s)
  | _ -> assert false

(* Two entries of a real witness list swapped, or the second replaced
   by a copy of the first, in a stream entry's forest: the reader
   refuses each with [Wire.Corrupt], with and without [build], [cache
   verify] counts the record corrupt, and through the cache it is
   dropped and becomes a miss, with the report unchanged. A capped set
   of more than the cap is refused where the cap is enforced, in
   [Provenance_reference.wset_of_entries]. *)
let test_witness_mutations_refused () =
  with_prov true @@ fun () ->
  let corpus = gen 0.03 in
  let dir = fresh_dir () in
  let snap = open_snap ~dir corpus in
  ignore (snap_doc snap corpus);
  Snapshot.save snap;
  let path = List.hd (Snapshot.list_files dir) in
  let clean = read_bin path in
  (* The first record with a witness list of two entries or more, and
     that list. *)
  let entry =
    match
      List.find_map
        (fun ((_, _, _, payload) as r) ->
          Option.map (fun l -> (r, l))
            (List.find_opt
               (fun (_, spans) -> List.length spans >= 2)
               (entry_witnesses payload)))
        (records clean)
    with
    | Some found -> found
    | None -> Alcotest.fail "no witness list of two entries"
  in
  let unordered = "witnesses: entries not strictly increasing" in
  let refused case msg f =
    match f () with
    | () -> Alcotest.failf "%s: accepted" case
    | exception Wire.Corrupt m -> check Alcotest.string (case ^ ": refused") msg m
  in
  List.iter
    (fun (case, (((_, _, _, payload) as r), l), mutate) ->
      let damaged = mutate payload l in
      List.iter
        (fun build ->
          refused case unordered (fun () -> ignore (Snapshot.entry_index ~build damaged)))
        [ true; false ];
      write_bin path (with_payload clean r damaged);
      check Alcotest.int (case ^ ": cache verify") 1 (Snapshot.inspect path).Snapshot.fi_corrupt;
      let snap = open_snap ~dir corpus in
      check Alcotest.int (case ^ ": dropped") 1 (Snapshot.stats snap).Snapshot.s_dropped;
      check Alcotest.int (case ^ ": stream misses") 1 (Snapshot.stats snap).Snapshot.s_misses;
      check_identical ~msg:case snap corpus)
    [
      ("entry: swapped", entry, swap_first_two);
      ("entry: repeated", entry, repeat_first);
    ];
  refused "over the cap"
    (Printf.sprintf "witnesses: %d entries, above the cap of %d" (Prov.default_k + 1)
       Prov.default_k)
    (fun () ->
      ignore
        (Provenance_reference.wset_of_entries
           (List.init (Prov.default_k + 1) (fun i ->
                ({ Prov.stream_id = i; scenario = "S"; tid = 0; t0 = 0; t1 = 0 }, 1, 1)))
          : Prov.Wset.t))

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

(* A file in the layout before [dpsnap-3]: the [dpsnap-2] fingerprint
   (computed as that version did), one stream entry and one scenario
   mining record under its [scn!] key, each framed with a valid CRC.
   The stream entry is framed in the current layout, so [cache verify]
   reads it intact; the mining record does not read as an entry, so it
   counts corrupt, and nothing raises. A snapshot opened under the current
   fingerprint names another file, so it never reads this one. *)
let test_legacy_file_refused () =
  let corpus = gen 0.02 in
  let specs = corpus.Corpus.specs and k = Dpcore.Mining.default_k in
  let legacy_fp =
    let b = Buffer.create 256 in
    Buffer.add_string b "dpsnap-2\n";
    List.iter (Printf.bprintf b "component:%s\n") (Dpcore.Component.patterns components);
    List.iter
      (fun (sp : Dptrace.Scenario.spec) ->
        Printf.bprintf b "spec:%s:%d:%d\n" sp.Dptrace.Scenario.name sp.Dptrace.Scenario.tfast
          sp.Dptrace.Scenario.tslow)
      specs;
    Printf.bprintf b "k:%d\nprov:%b\n" k (Dpcore.Provenance.enabled ());
    let s = Buffer.contents b in
    Printf.sprintf "%08x%08x"
      (Dputil.Crc32.string s land 0xffffffff)
      (Dputil.Crc32.string (s ^ "#dpsnap") land 0xffffffff)
  in
  let fingerprint = Snapshot.fingerprint ~components ~specs ~k () in
  check Alcotest.bool "the fingerprint moved" true (legacy_fp <> fingerprint);
  let _, key, _, entry = List.hd (records (cold_file corpus)) in
  (* A mining record as [dpsnap-2] wrote it: the scenario digest, no
     contrast metas, no patterns, then the two meta counts. *)
  let mining =
    let b = Buffer.create 32 in
    Wire.wstr b "0123456789abcdef";
    List.iter (Wire.wv b) [ 0; 0; 12; 3 ];
    Buffer.contents b
  in
  let file = Buffer.create 4096 in
  Buffer.add_string file "DPSN\x01";
  Wire.wstr file legacy_fp;
  List.iter
    (fun (key, payload) ->
      Wire.wstr file key;
      Wire.w32 file (String.length payload);
      Wire.w32 file (Dputil.Crc32.string payload);
      Buffer.add_string file payload)
    [ (key, entry); ("scn!" ^ (List.hd specs).Dptrace.Scenario.name, mining) ];
  let dir = fresh_dir () in
  let path = Filename.concat dir (legacy_fp ^ ".dpsnap") in
  write_bin path (Buffer.contents file);
  let fi = Snapshot.inspect path in
  check Alcotest.string "inspect: fingerprint" legacy_fp fi.Snapshot.fi_fingerprint;
  check Alcotest.int "inspect: the stream entry intact" 1 fi.Snapshot.fi_entries;
  check Alcotest.int "inspect: the mining record corrupt" 1 fi.Snapshot.fi_corrupt;
  let snap = Snapshot.create ~dir ~fingerprint () in
  let stats = Snapshot.stats snap in
  check Alcotest.int "create: nothing loaded" 0 stats.Snapshot.s_loaded;
  check Alcotest.int "create: nothing dropped" 0 stats.Snapshot.s_dropped;
  Snapshot.ensure snap components corpus;
  check_identical ~msg:"beside a legacy file" snap corpus;
  Snapshot.save snap;
  check Alcotest.string "the legacy file untouched" (Buffer.contents file) (read_bin path)

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

(* [corpus] without its last stream: a cache saved over it leaves a
   save over [corpus] one entry to write. *)
let all_but_last (corpus : Corpus.t) =
  let n = List.length corpus.Corpus.streams in
  Corpus.create
    ~streams:(List.filteri (fun i _ -> i < n - 1) corpus.Corpus.streams)
    ~specs:corpus.Corpus.specs

(* Kill point 1, a torn tmp write: the injected [Torn_write] persists
   only a prefix of the tmp before failing, so the published cache file
   must never change, the cache must keep serving every entry it holds,
   and a later clean save must recover — the rename is the commit point.
   The published file covers the corpus minus its last stream, so the
   torn save has that stream's entry to write. *)
let test_torn_write_never_replaces_cache () =
  let corpus = gen 0.03 in
  let partial = all_but_last corpus in
  let dir = fresh_dir () in
  Snapshot.save (open_snap ~dir partial);
  let path =
    match Snapshot.list_files dir with
    | [ p ] -> p
    | l -> Alcotest.failf "expected one cache file, got %d" (List.length l)
  in
  let published = read_bin path in
  let snap = open_snap ~dir corpus in
  with_plan "1:snapshot.write=torn@1.0!2" (fun () -> Snapshot.save snap);
  check Alcotest.string "published file byte-untouched" published (read_bin path);
  let tmp = path ^ ".tmp" in
  check Alcotest.bool "torn tmp left behind" true (Sys.file_exists tmp);
  let torn = read_bin tmp in
  (* The authoritative file still serves everything, bit-identically. *)
  let warm = open_snap ~dir partial in
  let stats = Snapshot.stats warm in
  check Alcotest.int "every stream still hits"
    (List.length partial.Corpus.streams)
    stats.Snapshot.s_hits;
  check_identical ~msg:"after abandoned save" warm partial;
  (* Recovery: the next clean save rewrites the tmp from offset 0 and
     commits; the stale torn tmp is consumed by the rename. *)
  Snapshot.save snap;
  check Alcotest.bool "tmp renamed away" false (Sys.file_exists tmp);
  let clean = read_bin path in
  check Alcotest.bool "tmp really held only a prefix" true
    (String.length torn < String.length clean
    && String.starts_with ~prefix:torn clean);
  let cold = fresh_dir () in
  Snapshot.save (open_snap ~dir:cold corpus);
  check Alcotest.string "file is a pure function of its entries" (saved_bytes cold)
    clean

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
   count the damage. The torn save has one new entry to write, as in
   kill point 1. *)
let test_torn_file_verifies_as_corrupt () =
  let corpus = gen 0.03 in
  let dir = fresh_dir () in
  Snapshot.save (open_snap ~dir (all_but_last corpus));
  let snap = open_snap ~dir corpus in
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
      let cold = cold_file ~scenarios full in
      (* The same split folded from framed files: cold, then delta. *)
      let fold_dir = fresh_dir () in
      let encode = V2_frames.encode in
      ignore (fold_cached ~scenarios ~dir:fold_dir (encode prefix));
      let folded, _, _, _ = fold_cached ~scenarios ~dir:fold_dir (encode full) in
      let same r =
        List.map fst r.Pipeline.scenarios = kept
        && render_doc fresh = render_doc r
        && per_scenario_str fresh.Pipeline.per_scenario
           = per_scenario_str r.Pipeline.per_scenario
      in
      List.map fst fresh.Pipeline.scenarios = kept
      && same cached && same folded
      && saved_bytes dir = cold
      && saved_bytes fold_dir = cold)

(* --- the cached fold over damaged, screened and empty corpora --- *)

(* Under [`Recover] the cached fold drops the damaged frames as the
   resident load does — one frame resealed around an undecodable
   payload, one with a bad checksum — sequentially and on two domains,
   cold and then warm, and saves the file a cold cache writes for the
   recovered corpus. *)
let test_fold_recover () =
  let corpus = gen 0.03 in
  let clean = V2_frames.encode corpus in
  let damaged =
    let b = Bytes.of_string clean in
    let spans = V2_frames.frame_spans clean in
    let _, payload, len = List.nth spans 2 in
    Bytes.set b payload '\x00';
    V2_frames.reseal b ~payload ~len;
    let _, payload, len = List.nth spans 5 in
    let at = payload + (len / 2) in
    Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 1));
    Bytes.to_string b
  in
  let recovered, _ = V2_frames.decode ~mode:`Recover damaged in
  check Alcotest.int "two frames dropped" 2
    (List.length corpus.Corpus.streams - List.length recovered.Corpus.streams);
  let fresh = Pipeline.run_report components recovered in
  let cold = cold_file recovered in
  let run ?pool msg =
    let dir = fresh_dir () in
    List.iter
      (fun state ->
        let r, _, _, _ = fold_cached ?pool ~mode:`Recover ~dir damaged in
        check Alcotest.string (msg ^ ", " ^ state ^ ": json document")
          (render_doc fresh) (render_doc r);
        check Alcotest.string (msg ^ ", " ^ state ^ ": per-scenario impact")
          (per_scenario_str fresh.Pipeline.per_scenario)
          (per_scenario_str r.Pipeline.per_scenario);
        check Alcotest.bool (msg ^ ", " ^ state ^ ": saved = cold save") true
          (saved_bytes dir = cold))
      [ "cold"; "warm" ]
  in
  run "-j 1";
  Dppar.Pool.with_pool ~domains:2 (fun pool -> run ~pool "-j 2")

(* A stream that decodes but fails [Validate.check] (a running event
   naming a thread to wake): a strict run caches it like any other, and
   a warm [`Recover] fold still drops it with its diagnostic, on one
   domain and on two. Under [`Recover] a hit's stream is decoded and
   validated, not only walked. *)
let test_fold_recover_validates_hits () =
  let corpus = gen 0.03 in
  let invalid, rest =
    match corpus.Corpus.streams with
    | st :: rest -> (st, rest)
    | [] -> Alcotest.fail "empty corpus"
  in
  let events = Array.copy invalid.Dptrace.Stream.events in
  let i = ref 0 in
  while events.(!i).Dptrace.Event.kind <> Dptrace.Event.Running do incr i done;
  events.(!i) <- { (events.(!i)) with Dptrace.Event.wtid = events.(!i).Dptrace.Event.tid };
  let invalid =
    Dptrace.Stream.create ~id:invalid.Dptrace.Stream.id ~events
      ~instances:invalid.Dptrace.Stream.instances ~threads:invalid.Dptrace.Stream.threads
  in
  check Alcotest.bool "the stream fails validation" false (Fixtures.is_valid invalid);
  let id = invalid.Dptrace.Stream.id in
  let specs = corpus.Corpus.specs in
  let data = V2_frames.encode (Corpus.create ~streams:(invalid :: rest) ~specs) in
  let fresh = Pipeline.run_report components (Corpus.create ~streams:rest ~specs) in
  let run ?pool msg =
    let dir = fresh_dir () in
    let _, _, stats, _ = fold_cached ?pool ~dir data in
    check Alcotest.int (msg ^ ": strict caches every stream")
      (List.length rest + 1) stats.Snapshot.s_misses;
    let r, _, stats, dropped = fold_cached ?pool ~mode:`Recover ~dir data in
    let reasons = List.map (fun d -> d.Dptrace.Codec_v2.reason) dropped in
    check Alcotest.bool
      (msg ^ ": dropped for validation: " ^ String.concat "; " reasons)
      true
      (List.exists
         (String.starts_with
            ~prefix:(Printf.sprintf "decoded stream %d fails validation" id))
         reasons);
    check Alcotest.int (msg ^ ": the others hit") (List.length rest) stats.Snapshot.s_hits;
    check Alcotest.string (msg ^ ": json document") (render_doc fresh) (render_doc r)
  in
  run "-j 1";
  Dppar.Pool.with_pool ~domains:2 (fun pool -> run ~pool "-j 2")

(* A stream the fault plan quarantines is never settled: it leaves no
   entry, so the saved file is a cold save of the screened corpus, and
   the report and coverage are those of the screened run. *)
let test_fold_quarantine () =
  let corpus = gen 0.03 in
  let plan = "5:corpus.read=fail@0.3!1" in
  let screened, coverage = with_plan plan (fun () -> Pipeline.screen corpus) in
  check Alcotest.bool "the plan quarantines some streams, not all" true
    (coverage.Pipeline.cov_quarantined <> []
    && screened.Corpus.streams <> []);
  let dir = fresh_dir () in
  let r, cov, stats, _ =
    with_plan plan (fun () ->
        fold_cached ~dir (V2_frames.encode corpus))
  in
  check Alcotest.bool "same quarantine" true
    (cov.Pipeline.cov_quarantined = coverage.Pipeline.cov_quarantined);
  check Alcotest.int "only kept streams are settled"
    (List.length screened.Corpus.streams)
    (stats.Snapshot.s_hits + stats.Snapshot.s_misses);
  check Alcotest.string "json document"
    (render_doc (Pipeline.run_report components screened))
    (render_doc r);
  check Alcotest.bool "saved = cold save of the screened corpus" true
    (saved_bytes dir = cold_file screened)

(* A corpus whose second stream takes the first's id. The screen
   quarantines the repeat, after its fault probe, so the folded report,
   with a cache and without, at -j 1 and on two domains, is the resident
   report of the screened corpus, in which each id names one stream. *)
let test_fold_repeated_id () =
  let corpus = gen 0.03 in
  let streams, id =
    match corpus.Corpus.streams with
    | a :: b :: rest ->
      let id = a.Dptrace.Stream.id in
      ( a
        :: Dptrace.Stream.create ~id ~events:b.Dptrace.Stream.events
             ~instances:b.Dptrace.Stream.instances ~threads:b.Dptrace.Stream.threads
        :: rest,
        id )
    | _ -> Alcotest.fail "fixture has fewer than two streams"
  in
  let corpus = Corpus.create ~streams ~specs:corpus.Corpus.specs in
  let screened, coverage = Pipeline.screen corpus in
  check
    Alcotest.(list (pair int string))
    "the repeat quarantined"
    [ (id, Printf.sprintf "stream id %d repeats an earlier stream" id) ]
    coverage.Pipeline.cov_quarantined;
  with_prov true @@ fun () ->
  let data = V2_frames.encode corpus in
  let path = "snapfold_repeated.dpf" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data);
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let run ?pool msg =
    let want = render_doc (Pipeline.run_report ?pool components screened) in
    let uncached, cov =
      let acc, skeletons, cov =
        Pipeline.fold_report ~cache:None components (fun ~step ~consume ->
            match Dptrace.Corpus_dir.fold ?pool ~mode:`Strict ~step ~consume path with
            | Ok l -> l.Dptrace.Corpus_dir.l_corpus
            | Error m -> Alcotest.failf "fold: %s" m)
      in
      (Pipeline.finish ?pool acc skeletons, cov)
    in
    let cached, cached_cov, _, _ = fold_cached ?pool ~dir:(fresh_dir ()) data in
    List.iter
      (fun (what, r, (cov : Pipeline.coverage)) ->
        check Alcotest.bool (msg ^ what ^ ": same quarantine") true
          (cov.Pipeline.cov_quarantined = coverage.Pipeline.cov_quarantined);
        check Alcotest.string (msg ^ what ^ ": json document") want (render_doc r))
      [ (" fold", uncached, cov); (" cached fold", cached, cached_cov) ]
  in
  run "-j 1";
  Dppar.Pool.with_pool ~domains:2 (fun pool -> run ~pool "-j 2")

(* A pass's lookups run on pool workers while the caller consumes, so
   the pass settles its entries once its fold is done. Every third
   stream is followed by its twin (same id, same bytes, same key), in
   the same window as it. At -j 2, a fold cold, then over a delta, then
   warm gives -j 1's document, cache bytes and hit/miss counts, and so
   does an ensure, which settles every twin as a hit; the -j 2 passes
   run three times, as interleavings differ from run to run. *)
let test_window_settles_after_fold () =
  let full = gen 0.03 in
  let twins streams =
    Corpus.create ~specs:full.Corpus.specs
      ~streams:(List.concat (List.mapi (fun i st -> if i mod 3 = 0 then [ st; st ] else [ st ]) streams))
  in
  let delta = List.filteri (fun i _ -> i mod 7 <> 3) full.Corpus.streams in
  let runs = [ ("cold", twins delta); ("delta", twins full.Corpus.streams); ("warm", twins full.Corpus.streams) ] in
  with_prov true @@ fun () ->
  let passes ?pool () =
    let dir = fresh_dir () and ensured = fresh_dir () in
    List.map
      (fun (what, corpus) ->
        let report, _, stats, _ = fold_cached ?pool ~dir (V2_frames.encode corpus) in
        let snap = open_snap ?pool ~dir:ensured corpus in
        let ensure_stats = Snapshot.stats snap in
        Snapshot.save snap;
        ( what,
          render_doc report,
          (stats.Snapshot.s_hits, stats.Snapshot.s_misses, saved_bytes dir),
          (ensure_stats.Snapshot.s_hits, ensure_stats.Snapshot.s_misses, saved_bytes ensured) ))
      runs
  in
  let seq = passes () in
  (match List.rev seq with
  | (_, _, (hits, misses, _), (e_hits, _, _)) :: _ ->
    check Alcotest.int "warm: every kept stream hits" (List.length full.Corpus.streams) hits;
    check Alcotest.int "warm: no misses" 0 misses;
    check Alcotest.int "warm ensure: every stream hits"
      (List.length (twins full.Corpus.streams).Corpus.streams) e_hits
  | [] -> assert false);
  Dppar.Pool.with_pool ~domains:2 @@ fun pool ->
  for round = 1 to 3 do
    List.iter2
      (fun (what, doc, (hits, misses, bytes), (e_hits, e_misses, e_bytes))
           (_, doc', (hits', misses', bytes'), (e_hits', e_misses', e_bytes')) ->
        let msg m = Printf.sprintf "round %d, %s: %s" round what m in
        check Alcotest.string (msg "document") doc doc';
        check Alcotest.(pair int int) (msg "fold hits, misses") (hits, misses) (hits', misses');
        check Alcotest.bool (msg "fold cache bytes") true (bytes = bytes');
        check Alcotest.(pair int int) (msg "ensure hits, misses") (e_hits, e_misses)
          (e_hits', e_misses');
        check Alcotest.bool (msg "ensure cache bytes") true (e_bytes = e_bytes'))
      seq (passes ~pool ())
  done

(* A corpus with no streams still opens and saves its cache. *)
let test_fold_empty () =
  let specs = (gen 0.01).Corpus.specs in
  let empty = Corpus.create ~streams:[] ~specs in
  let scenarios = List.map (fun (s : Dptrace.Scenario.spec) -> s.Dptrace.Scenario.name) specs in
  let dir = fresh_dir () in
  let r, _, _, _ = fold_cached ~scenarios ~dir (V2_frames.encode empty) in
  check Alcotest.string "json document"
    (render_doc (Pipeline.run_report ~scenarios components empty))
    (render_doc r);
  check Alcotest.bool "saved = cold save" true
    (saved_bytes dir = cold_file ~scenarios empty)

(* --- the streaming reader: no record is held, no damage is fatal --- *)

let fingerprint_of (corpus : Corpus.t) =
  Snapshot.fingerprint ~components ~specs:corpus.Corpus.specs ~k:Dpcore.Mining.default_k ()

(* A cold cache file's header and first record, then damaged framing:
   a length field claiming 1 GiB in a file of a few KB, a key varint cut
   short, a file cut inside a record header. Each drops the damaged
   record and keeps the first; neither [inspect] nor [create] raises,
   and the open allocates nothing near the claimed length. *)
let test_damaged_framing_dropped () =
  let corpus = gen 0.02 in
  let data = cold_file corpus in
  let prefix =
    match records data with
    | _ :: (second, _, _, _) :: _ -> String.sub data 0 second
    | _ -> Alcotest.fail "fixture has fewer than two records"
  in
  let framed f =
    let b = Buffer.create 256 in
    Wire.wstr b "ffffffff-1";
    f b;
    Buffer.contents b
  in
  let fingerprint = fingerprint_of corpus in
  List.iter
    (fun (what, tail) ->
      let dir = fresh_dir () in
      let path = Filename.concat dir (fingerprint ^ ".dpsnap") in
      write_bin path (prefix ^ tail);
      let fi = Snapshot.inspect path in
      check Alcotest.int (what ^ ": inspect keeps the first record") 1 fi.Snapshot.fi_entries;
      check Alcotest.int (what ^ ": inspect counts the damage") 1 fi.Snapshot.fi_corrupt;
      let before = Gc.allocated_bytes () in
      let snap = Snapshot.create ~dir ~fingerprint () in
      let allocated = Gc.allocated_bytes () -. before in
      if allocated > 1e6 then Alcotest.failf "%s: the open allocated %.0f bytes" what allocated;
      let stats = Snapshot.stats snap in
      check Alcotest.int (what ^ ": the first record loaded") 1 stats.Snapshot.s_loaded;
      check Alcotest.int (what ^ ": the damaged one dropped") 1 stats.Snapshot.s_dropped;
      Snapshot.ensure snap components corpus;
      check_identical ~msg:what snap corpus)
    [
      ( "a 1 GiB length claim",
        framed (fun b ->
            Wire.w32 b (1 lsl 30);
            Wire.w32 b 0;
            Buffer.add_string b (String.make 100 'x')) );
      ("a truncated key varint", "\x80");
      ("a file cut inside a record header", framed (fun b -> Buffer.add_string b "\x10\x00"));
    ]

(* One damaged span is one corrupt count. 5,000 zero bytes after the
   last record parse as hundreds of empty records (a zero key length, a
   zero entry length and the matching checksum of no bytes), yet
   [inspect] reports one, and every entry still loads and serves; a
   flipped payload byte in each of two records apart reports two. *)
let test_damage_counted_per_span () =
  let corpus = gen 0.02 in
  let data = cold_file corpus in
  let fingerprint = fingerprint_of corpus in
  let n = List.length (records data) in
  let with_cache what data f =
    let dir = fresh_dir () in
    write_bin (Filename.concat dir (fingerprint ^ ".dpsnap")) data;
    let fi = Snapshot.inspect (List.hd (Snapshot.list_files dir)) in
    f what dir (fi.Snapshot.fi_entries, fi.Snapshot.fi_corrupt)
  in
  with_cache "zero tail" (data ^ String.make 5000 '\000') (fun what dir counts ->
      check Alcotest.(pair int int) (what ^ ": entries, corrupt") (n, 1) counts;
      let snap = Snapshot.create ~dir ~fingerprint () in
      check Alcotest.int (what ^ ": entries loaded") n (Snapshot.stats snap).Snapshot.s_loaded;
      Snapshot.ensure snap components corpus;
      check_identical ~msg:what snap corpus);
  let b = Bytes.of_string data in
  (match records data with
  | (_, _, first, _) :: _ :: (_, _, third, _) :: _ ->
    List.iter (fun i -> Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff))) [ first; third ]
  | _ -> Alcotest.fail "fixture has fewer than three records");
  with_cache "two flipped records" (Bytes.to_string b) (fun what _ counts ->
      check Alcotest.(pair int int) (what ^ ": entries, corrupt") (n - 2, 2) counts)

exception Deadline

(* [f ()], failed after [seconds] instead of hanging: a read loop that
   spins on a 0-byte read never returns. The alarm fires again every
   second, since the cache reader turns any exception into a dropped
   record and would swallow a single one. *)
let within seconds f =
  let expire _ =
    ignore (Unix.alarm 1 : int);
    raise Deadline
  in
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle expire) in
  ignore (Unix.alarm seconds : int);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0 : int);
      Sys.set_signal Sys.sigalrm previous)
    f

(* The file under an open snapshot changes: truncated in place, or
   replaced by a rename. A fold finishes either way, and its report is
   the fresh one. Hits past the cut are stepped afresh and counted as
   misses, and the next save writes the whole cold file back. A renamed
   file changes nothing: the snapshot reads the inode it opened. *)
let test_file_changed_under_snapshot () =
  let corpus = gen 0.03 in
  let n = List.length corpus.Corpus.streams in
  let data = V2_frames.encode corpus and cold = cold_file corpus in
  let fresh = render_doc (Pipeline.run_report components corpus) in
  let fingerprint = fingerprint_of corpus in
  let opened () =
    let dir = fresh_dir () in
    let path = Filename.concat dir (fingerprint ^ ".dpsnap") in
    write_bin path cold;
    (dir, path, Snapshot.create ~dir ~fingerprint ())
  in
  let path, (r, _, stats, _) =
    match
      within 60 (fun () ->
          let dir, path, snap = opened () in
          Unix.truncate path (String.length cold / 2);
          (path, fold_cached ~snap ~dir data))
    with
    | r -> r
    | exception Deadline -> Alcotest.fail "the open or the fold over a truncated cache hung"
  in
  check Alcotest.string "truncated: report = fresh" fresh (render_doc r);
  check Alcotest.int "truncated: every stream settled" n
    (stats.Snapshot.s_hits + stats.Snapshot.s_misses);
  check Alcotest.bool "truncated: hits before the cut, misses past it" true
    (stats.Snapshot.s_hits > 0 && stats.Snapshot.s_misses > 0);
  let fi = Snapshot.inspect path in
  check Alcotest.int "truncated: the saved file verifies" 0 fi.Snapshot.fi_corrupt;
  check Alcotest.int "truncated: whole" n fi.Snapshot.fi_entries;
  check Alcotest.bool "truncated: saved = cold save" true (read_bin path = cold);
  let dir, path, snap = opened () in
  write_bin (path ^ ".other") "not a snapshot";
  Sys.rename (path ^ ".other") path;
  let r, _, stats, _ = fold_cached ~snap ~dir data in
  check Alcotest.string "renamed over: report = fresh" fresh (render_doc r);
  check Alcotest.int "renamed over: every stream hits" n stats.Snapshot.s_hits

(* [n] streams of one scenario, each of [per] instances whose waker runs
   a frame of its own, so an entry's forests, and its record, grow with
   [per] while its key and section index do not. *)
let growing_corpus ~n ~per =
  let ev kind tid ts cost wtid frame =
    { Dptrace.Event.id = 0; kind; stack = Fixtures.callstack [ frame ]; ts;
      cost; tid; wtid }
  in
  let stream id =
    let events =
      List.concat
        (List.init per (fun i ->
             let t0 = i * 1_000 in
             [
               ev Dptrace.Event.Wait 0 t0 500 (-1) (Printf.sprintf "x.sys!Wait%d" i);
               ev Dptrace.Event.Running 1 (t0 + 100) 300 (-1) (Printf.sprintf "x.sys!Work%d" i);
               ev Dptrace.Event.Unwait 1 (t0 + 500) 0 0 (Printf.sprintf "x.sys!Wake%d" i);
             ]))
    in
    let instances =
      List.init per (fun i ->
          { Dptrace.Scenario.scenario = "S"; tid = 0; t0 = i * 1_000; t1 = (i * 1_000) + 999 })
    in
    Dptrace.Stream.create ~id ~events:(Array.of_list events) ~instances ~threads:[]
  in
  Corpus.create ~streams:(List.init n stream)
    ~specs:[ Dptrace.Scenario.spec ~name:"S" ~tfast:1 ~tslow:500 ]

(* Two cache files of as many entries, records about 10x apart in size:
   the snapshots open over them are the same size. *)
let test_open_cache_holds_no_record_bytes () =
  let opened per =
    let corpus = growing_corpus ~n:50 ~per in
    let dir = fresh_dir () in
    Snapshot.save (open_snap ~dir corpus);
    let snap = Snapshot.create ~dir ~fingerprint:(fingerprint_of corpus) () in
    check Alcotest.int "every record loaded" 50 (Snapshot.stats snap).Snapshot.s_loaded;
    (String.length (saved_bytes dir), Obj.reachable_words (Obj.repr snap))
  in
  let small_bytes, small = opened 4 and large_bytes, large = opened 48 in
  check Alcotest.bool "records about 10x apart" true (large_bytes > 8 * small_bytes);
  if abs (large - small) > 16 then
    Alcotest.failf "open snapshots of %d and %d words over files of %d and %d bytes"
      small large small_bytes large_bytes

(* --- the step's scratch is bounded by the graphs, not the stream --- *)

(* One stream of 200k events and 2k instances. Each instance is a wait
   of thread 0 whose waker, on thread 1, ran a driver frame during the
   wait: two graph nodes. Thread 2 fills every window with 97 short
   events that no graph reaches. *)
let long_stream () =
  let ev kind tid ts cost wtid frame =
    { Dptrace.Event.id = 0; kind; stack = Fixtures.callstack [ frame ]; ts;
      cost; tid; wtid }
  in
  let per_instance i =
    let t0 = i * 1_000 in
    ev Dptrace.Event.Wait 0 t0 500 (-1) "x.sys!Wait"
    :: ev Dptrace.Event.Running 1 (t0 + 100) 300 (-1) "x.sys!Work"
    :: ev Dptrace.Event.Unwait 1 (t0 + 500) 0 0 "x.sys!Wake"
    :: List.init 97 (fun j -> ev Dptrace.Event.Running 2 (t0 + (10 * j)) 5 (-1) "app!Idle")
  in
  let instances =
    List.init 2_000 (fun i ->
        { Dptrace.Scenario.scenario = "S"; tid = 0; t0 = i * 1_000; t1 = (i * 1_000) + 999 })
  in
  Dptrace.Stream.create ~id:0
    ~events:(Array.of_list (List.concat (List.init 2_000 per_instance)))
    ~instances ~threads:[]

(* Words allocated so far, the large arrays made straight in the major
   heap included: a stream-sized array per instance would be those. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

let test_step_allocation_bounded () =
  let st = long_stream () in
  let spec = Dptrace.Scenario.spec ~name:"S" ~tfast:1 ~tslow:999 in
  let components = Dpcore.Component.drivers in
  let before = allocated_words () in
  let _ = Snapshot.stream_step components ~spec_of:(fun _ -> Some spec) st in
  let words = allocated_words () -. before in
  let index = Dptrace.Stream.index st in
  let nodes =
    List.fold_left
      (fun acc i ->
        acc + Dpwaitgraph.Wait_graph.node_count (Dpwaitgraph.Wait_graph.build ~index st i))
      0 st.Dptrace.Stream.instances
  in
  let events = Dptrace.Stream.event_count st in
  check Alcotest.int "events" 200_000 events;
  check Alcotest.int "graph nodes" 4_000 nodes;
  (* About 14 on this input: 8 words per event for the stream index, 2
     for growing the domain's marks on first use, the rest per graph. *)
  let bound = 20. *. float_of_int (events + nodes) in
  if words > bound then
    Alcotest.failf "the step allocated %.0f words, above 20 x (events + nodes) = %.0f"
      words bound

(* --- an entry's head is its stream's skeleton ---

   A strict hit takes its skeleton from its entry and never parses its
   frame: over generated corpora, their streams under their own ids or
   renamed by [with_id], each hit of a warm fold has the skeleton
   [frame_skeleton] walks out of the same frame, in id, instances and
   key. *)
let prop_hit_skeleton_is_frames =
  QCheck.Test.make ~name:"a strict hit's skeleton = frame_skeleton" ~count:6
    QCheck.(pair (int_range 1 10_000) bool)
    (fun (seed, renamed) ->
      let corpus = gen ~seed 0.01 in
      let corpus =
        if not renamed then corpus
        else
          Corpus.create ~specs:corpus.Corpus.specs
            ~streams:
              (List.mapi
                 (fun i st -> Dptrace.Stream.with_id st ((7 * i) + (seed mod 5) + 3))
                 corpus.Corpus.streams)
      in
      let path = Printf.sprintf "snapskel_%d.dpf" seed in
      Dptrace.Codec_v2.save path corpus;
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      let fingerprint =
        Snapshot.fingerprint ~components ~specs:corpus.Corpus.specs
          ~k:Dpcore.Mining.default_k ()
      in
      let snap = Snapshot.create ~fingerprint () in
      let fold step =
        let out = ref [] in
        ignore (Dptrace.Codec_v2.fold path ~step ~consume:(fun x -> out := x :: !out; None));
        List.rev !out
      in
      let step specs f =
        let e, st = Snapshot.lookup_or_step snap components ~specs f in
        Snapshot.settle snap e;
        (st, Dptrace.Codec_v2.frame_skeleton f)
      in
      ignore (fold step);
      let pairs = fold step in
      let same ((a : Dptrace.Stream.t), (b : Dptrace.Stream.t)) =
        a.Dptrace.Stream.id = b.Dptrace.Stream.id
        && a.Dptrace.Stream.instances = b.Dptrace.Stream.instances
        && Option.is_some (Dptrace.Stream.key_memo a)
        && Dptrace.Stream.key_memo a = Dptrace.Stream.key_memo b
      in
      (Snapshot.stats snap).Snapshot.s_hits = List.length pairs && List.for_all same pairs)

(* --- entry size --- *)

(* With provenance on, a cold cache of a generated corpus is at most
   0.4x the corpus's framed file: each entry names its strings and
   instances once, so a ref and a name cost an index. *)
let test_cache_size_bound () =
  with_prov true @@ fun () ->
  let corpus = gen 0.2 in
  let path = "snapsize_corpus.dpf" in
  Dptrace.Codec_v2.save path corpus;
  let dpf = (Unix.stat path).Unix.st_size in
  Sys.remove path;
  let cache = String.length (cold_file corpus) in
  if float_of_int cache > 0.4 *. float_of_int dpf then
    Alcotest.failf "the cache is %d bytes, %.2fx the .dpf's %d" cache
      (float_of_int cache /. float_of_int dpf) dpf

let () =
  Alcotest.run "snapshot"
    [
      ( "scratch",
        [
          Alcotest.test_case "step allocation bounded by graphs, not stream" `Quick
            test_step_allocation_bounded;
        ] );
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
          Alcotest.test_case "a second save of the same entries writes nothing" `Slow
            test_second_save_only_touches;
          Alcotest.test_case "provenance on: cached = from-scratch" `Slow
            test_prov_identical;
          Alcotest.test_case "pooled ensure = sequential" `Slow
            test_pooled_identical;
          Alcotest.test_case "mining records reused across runs" `Slow
            test_mining_cache_reuse;
          Alcotest.test_case "a provenance cache is at most 0.4x its .dpf" `Slow
            test_cache_size_bound;
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
          Alcotest.test_case "pre-dpsnap-3 file refused, never fatal" `Quick
            test_legacy_file_refused;
          Alcotest.test_case "stale entries counted" `Quick
            test_stale_entries_counted;
          Alcotest.test_case "gc keeps the newest files" `Quick
            test_gc_keeps_newest;
          Alcotest.test_case "walk refuses padded duplicate statuses" `Quick
            test_walk_padded_duplicates;
          Alcotest.test_case "walk of 100k sibling statuses" `Quick
            test_walk_wide_forest;
          Alcotest.test_case "damaged witness lists refused, then missed" `Slow
            test_witness_mutations_refused;
          Alcotest.test_case "walk of 100k reversed sibling statuses" `Quick
            test_walk_wide_forest_reversed;
          Alcotest.test_case "a damaged span counts once" `Quick
            test_damage_counted_per_span;
          Alcotest.test_case "damaged framing dropped, never fatal" `Quick
            test_damaged_framing_dropped;
          Alcotest.test_case "file truncated or replaced under an open cache" `Slow
            test_file_changed_under_snapshot;
          Alcotest.test_case "an open cache holds no record bytes" `Quick
            test_open_cache_holds_no_record_bytes;
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
      ( "cached fold",
        [
          Alcotest.test_case "recover: damaged frames dropped" `Slow
            test_fold_recover;
          Alcotest.test_case "recover validates cache hits" `Slow
            test_fold_recover_validates_hits;
          Alcotest.test_case "quarantined streams leave no entry" `Slow
            test_fold_quarantine;
          Alcotest.test_case "a corpus with no streams" `Quick test_fold_empty;
          Alcotest.test_case "-j 2 settles as -j 1: twins, cold, delta, warm" `Slow
            test_window_settles_after_fold;
          Alcotest.test_case "a repeated stream id quarantined" `Slow
            test_fold_repeated_id;
        ] );
      ( "properties",
        [
          qcheck prop_cached_equals_fresh;
          qcheck prop_walk_matches_decode;
          qcheck prop_walk_refuses_table_damage;
          qcheck prop_hit_skeleton_is_frames;
        ] );
    ]
