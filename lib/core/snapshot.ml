(* Incremental snapshot cache. See snapshot.mli for the contract and
   DESIGN.md §11 for the format and the bit-identity argument. *)

module Stream = Dptrace.Stream
module Scenario = Dptrace.Scenario
module Corpus = Dptrace.Corpus
module Codec_v2 = Dptrace.Codec_v2
module Wire = Dptrace.Wire
module Wait_graph = Dpwaitgraph.Wait_graph

(* Bump whenever the analysis semantics or the entry wire form change:
   the version participates in the config fingerprint, so old caches
   degrade to misses instead of deserialising garbage. *)
let code_version = "dpsnap-1"

let magic = "DPSN\x01"

(* Entries above this are rejected as framing damage (same rationale as
   Codec_v2.max_frame_len). *)
let max_entry_len = 1 lsl 30

let hit_c = lazy (Dpobs.Metrics.counter "snapshot.hit")
let miss_c = lazy (Dpobs.Metrics.counter "snapshot.miss")
let stale_c = lazy (Dpobs.Metrics.counter "snapshot.stale")
let bytes_c = lazy (Dpobs.Metrics.counter "snapshot.bytes")
let mining_hit_c = lazy (Dpobs.Metrics.counter "snapshot.mining_hit")
let mining_miss_c = lazy (Dpobs.Metrics.counter "snapshot.mining_miss")

(* --- config fingerprint --- *)

let fingerprint ~components ~specs ~k () =
  let buf = Buffer.create 256 in
  Buffer.add_string buf code_version;
  Buffer.add_char buf '\n';
  List.iter
    (fun p -> Printf.bprintf buf "component:%s\n" p)
    (Component.patterns components);
  List.iter
    (fun (s : Scenario.spec) ->
      Printf.bprintf buf "spec:%s:%d:%d\n" s.Scenario.name s.Scenario.tfast
        s.Scenario.tslow)
    specs;
  Printf.bprintf buf "k:%d\n" k;
  Printf.bprintf buf "prov:%b\n" (Provenance.enabled ());
  let s = Buffer.contents buf in
  (* Two independent CRC passes give 64 fingerprint bits — plenty for the
     handful of distinct configurations a cache directory ever sees. *)
  Printf.sprintf "%08x%08x"
    (Dputil.Crc32.string s land 0xffffffff)
    (Dputil.Crc32.string (s ^ "#dpsnap") land 0xffffffff)

(* --- per-stream entries --- *)

type class_part = {
  cl_slow_impact : Impact.result;
  cl_slow_prov : Provenance.impact;
  cl_fast : Awg.Partial.partial;
  cl_slow : Awg.Partial.partial;
}

type scen_entry = {
  sc_all : Impact.result;  (* over every instance of the scenario here *)
  sc_class : class_part option;  (* present iff the scenario has a spec *)
}

type entry = {
  e_stream_id : int;
  e_impact : Impact.result;
  e_prov : Provenance.impact;
  e_modules : Impact.module_row list;
  e_scenarios : (string * scen_entry) list;  (* first-appearance order *)
}

let entry_part e = (e.e_impact, e.e_prov, e.e_modules)

let entry_scenario_impact e name =
  Option.map (fun s -> s.sc_all) (List.assoc_opt name e.e_scenarios)

let entry_scenario_class e name =
  match List.assoc_opt name e.e_scenarios with
  | Some { sc_class = Some c; _ } ->
    Some (c.cl_slow_impact, c.cl_slow_prov, c.cl_fast, c.cl_slow)
  | Some { sc_class = None; _ } | None -> None

(* --- the per-stream analysis (the unit of caching) ---

   Everything downstream merging needs from one stream, computed from
   the stream's wait graphs built once (and, for the whole-stream
   numbers, traversed once by [Impact.measure]): its contribution to the
   whole-corpus impact (+ provenance), to the per-module breakdown, to
   each scenario's all-instance impact, and — for scenarios with a spec —
   the per-class impact partials and unreduced AWG partial forests. *)

let analyze_stream components ~specs (st : Stream.t) =
  let index = Stream.shared_index st in
  let instances = st.Stream.instances in
  let graphs = List.map (Wait_graph.build ~index st) instances in
  let e_impact, e_prov, e_modules = Impact.measure components graphs in
  (* Group (instance, graph) pairs by scenario name, preserving both the
     within-stream instance order and the names' first-appearance order
     (the entry's wire form must be a pure function of the stream). *)
  let by_name : (string, (Scenario.instance * Wait_graph.t) list ref) Hashtbl.t
      =
    Hashtbl.create 8
  in
  let order = ref [] in
  List.iter2
    (fun (i : Scenario.instance) g ->
      match Hashtbl.find_opt by_name i.Scenario.scenario with
      | Some items -> items := (i, g) :: !items
      | None ->
        let items = ref [ (i, g) ] in
        Hashtbl.replace by_name i.Scenario.scenario items;
        order := (i.Scenario.scenario, items) :: !order)
    instances graphs;
  let spec_of name =
    List.find_opt (fun (s : Scenario.spec) -> s.Scenario.name = name) specs
  in
  let e_scenarios =
    List.rev_map
      (fun (name, items) ->
        let items = List.rev !items in
        let gs = List.map snd items in
        let sc_all = Impact.analyze_graphs components gs in
        let sc_class =
          match spec_of name with
          | None -> None
          | Some spec ->
            let class_of (i, _) = Scenario.classify spec i in
            let fast_gs =
              List.filter_map
                (fun it ->
                  if class_of it = Scenario.Fast then Some (snd it) else None)
                items
            in
            let slow_gs =
              List.filter_map
                (fun it ->
                  if class_of it = Scenario.Slow then Some (snd it) else None)
                items
            in
            let cl_slow_impact, cl_slow_prov =
              Impact.analyze_graphs_prov components slow_gs
            in
            Some
              {
                cl_slow_impact;
                cl_slow_prov;
                cl_fast = Awg.Partial.build components fast_gs;
                cl_slow = Awg.Partial.build components slow_gs;
              }
        in
        (name, { sc_all; sc_class }))
      !order
  in
  {
    e_stream_id = st.Stream.id;
    e_impact;
    e_prov;
    e_modules;
    e_scenarios;
  }

(* --- entry wire form --- *)

let write_impact buf (r : Impact.result) =
  Wire.wv buf r.Impact.d_scn;
  Wire.wv buf r.Impact.d_wait;
  Wire.wv buf r.Impact.d_run;
  Wire.wv buf r.Impact.d_waitdist;
  Wire.wv buf r.Impact.instances;
  Wire.wv buf r.Impact.counted_waits;
  Wire.wv buf r.Impact.counted_runs

let read_impact cur : Impact.result =
  let d_scn = Wire.rv cur in
  let d_wait = Wire.rv cur in
  let d_run = Wire.rv cur in
  let d_waitdist = Wire.rv cur in
  let instances = Wire.rv cur in
  let counted_waits = Wire.rv cur in
  let counted_runs = Wire.rv cur in
  { Impact.d_scn; d_wait; d_run; d_waitdist; instances; counted_waits; counted_runs }

let write_ref buf (r : Provenance.instance_ref) =
  Wire.wv buf r.Provenance.stream_id;
  Wire.wstr buf r.Provenance.scenario;
  Wire.wv buf r.Provenance.tid;
  Wire.wv buf r.Provenance.t0;
  Wire.wv buf r.Provenance.t1

let read_ref cur : Provenance.instance_ref =
  let stream_id = Wire.rv cur in
  let scenario = Wire.rstr cur in
  let tid = Wire.rv cur in
  let t0 = Wire.rv cur in
  let t1 = Wire.rv cur in
  { Provenance.stream_id; scenario; tid; t0; t1 }

let write_wait_record buf (w : Provenance.wait_record) =
  write_ref buf w.Provenance.wr_ref;
  Wire.wv buf w.Provenance.wr_event;
  Wire.wstr buf (Dptrace.Signature.name w.Provenance.wr_signature);
  Wire.wv buf w.Provenance.wr_ts;
  Wire.wv buf w.Provenance.wr_te;
  Wire.wv buf w.Provenance.wr_cost;
  Wire.wv buf w.Provenance.wr_multiplicity

let read_wait_record cur : Provenance.wait_record =
  let wr_ref = read_ref cur in
  let wr_event = Wire.rv cur in
  let wr_signature = Dptrace.Signature.of_string (Wire.rstr cur) in
  let wr_ts = Wire.rv cur in
  let wr_te = Wire.rv cur in
  let wr_cost = Wire.rv cur in
  let wr_multiplicity = Wire.rv cur in
  { Provenance.wr_ref; wr_event; wr_signature; wr_ts; wr_te; wr_cost;
    wr_multiplicity }

let write_topk buf t =
  let items = Provenance.Topk.to_list t in
  Wire.wv buf (List.length items);
  List.iter (write_wait_record buf) items

(* Reservoirs are reconstructed at the pipeline's cap; the serialised
   list is already canonical (best-first, <= cap), so re-adding in order
   reproduces the exact representation. *)
let read_topk cur =
  let n = Wire.rv cur in
  let items = List.init n (fun _ -> read_wait_record cur) in
  Provenance.Topk.add_list
    (Provenance.Topk.create ~cap:Provenance.default_k
       ~compare:Provenance.compare_wait_record)
    items

let write_prov buf (p : Provenance.impact) =
  write_topk buf p.Provenance.top_waits;
  write_topk buf p.Provenance.top_runs;
  Wire.wv buf (List.length p.Provenance.by_module);
  List.iter
    (fun (name, t) ->
      Wire.wstr buf name;
      write_topk buf t)
    p.Provenance.by_module

let read_prov cur : Provenance.impact =
  let top_waits = read_topk cur in
  let top_runs = read_topk cur in
  let n = Wire.rv cur in
  let by_module =
    List.init n (fun _ ->
        let name = Wire.rstr cur in
        let t = read_topk cur in
        (name, t))
  in
  { Provenance.top_waits; top_runs; by_module }

let write_module_row buf (r : Impact.module_row) =
  Wire.wstr buf r.Impact.module_name;
  Wire.wv buf r.Impact.m_wait;
  Wire.wv buf r.Impact.m_waitdist;
  Wire.wv buf r.Impact.m_run;
  Wire.wv buf r.Impact.m_counted_waits;
  Wire.wv buf r.Impact.m_max_wait

let read_module_row cur : Impact.module_row =
  let module_name = Wire.rstr cur in
  let m_wait = Wire.rv cur in
  let m_waitdist = Wire.rv cur in
  let m_run = Wire.rv cur in
  let m_counted_waits = Wire.rv cur in
  let m_max_wait = Wire.rv cur in
  { Impact.module_name; m_wait; m_waitdist; m_run; m_counted_waits; m_max_wait }

(* --- scenario mining records ---

   Mining re-runs cost the same whether the per-stream partials came from
   the cache or not, so a warm re-analysis would be bounded below by the
   miner. The snapshot therefore also caches each scenario's
   {!Mining.result}, keyed by a digest of everything the merged AWGs are a
   deterministic function of beyond the file fingerprint: the ordered
   contributing stream keys, [k] and the [reduce] switch. Appending a
   stream only perturbs the digests of the scenarios that stream actually
   contains — every other scenario's mining result is reused verbatim. *)

let write_f64 buf f =
  let bits = Int64.bits_of_float f in
  for i = 0 to 7 do
    Wire.w8 buf
      (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xFFL))
  done

let read_f64 cur =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits :=
      Int64.logor !bits (Int64.shift_left (Int64.of_int (Wire.r8 cur)) (8 * i))
  done;
  Int64.float_of_bits !bits

let write_signature_set buf (a : Dptrace.Signature.t array) =
  Wire.wv buf (Array.length a);
  Array.iter (fun s -> Wire.wstr buf (Dptrace.Signature.name s)) a

let read_signature_list cur =
  let n = Wire.rv cur in
  List.init n (fun _ -> Dptrace.Signature.of_string (Wire.rstr cur))

let write_tuple buf (t : Tuple.t) =
  write_signature_set buf t.Tuple.waits;
  write_signature_set buf t.Tuple.unwaits;
  write_signature_set buf t.Tuple.runnings

(* [Tuple.make] re-interns under the current process's signature order,
   so the reconstructed tuple is physically the canonical one — mining
   results built from it compare and render identically. *)
let read_tuple cur =
  let waits = read_signature_list cur in
  let unwaits = read_signature_list cur in
  let runnings = read_signature_list cur in
  Tuple.make ~waits ~unwaits ~runnings

let write_wset buf w =
  let entries = Provenance.Wset.entries w in
  Wire.wv buf (List.length entries);
  List.iter
    (fun (r, cost, count) ->
      write_ref buf r;
      Wire.wv buf cost;
      Wire.wv buf count)
    entries

let read_wset cur =
  let n = Wire.rv cur in
  Provenance.Wset.of_entries
    (List.init n (fun _ ->
         let r = read_ref cur in
         let cost = Wire.rv cur in
         let count = Wire.rv cur in
         (r, cost, count)))

let write_meta buf (m : Mining.meta) =
  write_tuple buf m.Mining.tuple;
  Wire.wv buf m.Mining.cost;
  Wire.wv buf m.Mining.count;
  write_wset buf m.Mining.m_witnesses

let read_meta cur : Mining.meta =
  let tuple = read_tuple cur in
  let cost = Wire.rv cur in
  let count = Wire.rv cur in
  let m_witnesses = read_wset cur in
  { Mining.tuple; cost; count; m_witnesses }

let write_contrast buf (c : Mining.contrast_meta) =
  write_meta buf c.Mining.cm_meta;
  (match c.Mining.reason with
  | Mining.Slow_only -> Wire.w8 buf 0
  | Mining.Cost_ratio r ->
    Wire.w8 buf 1;
    write_f64 buf r);
  write_wset buf c.Mining.cm_fast_witnesses

let read_contrast cur : Mining.contrast_meta =
  let cm_meta = read_meta cur in
  let reason =
    match Wire.r8 cur with
    | 0 -> Mining.Slow_only
    | 1 -> Mining.Cost_ratio (read_f64 cur)
    | k -> Wire.corrupt "snapshot scenario record: bad contrast tag %d" k
  in
  let cm_fast_witnesses = read_wset cur in
  { Mining.cm_meta; reason; cm_fast_witnesses }

let write_pattern buf (p : Mining.pattern) =
  write_tuple buf p.Mining.tuple;
  Wire.wv buf p.Mining.cost;
  Wire.wv buf p.Mining.count;
  Wire.wv buf p.Mining.max_single;
  write_wset buf p.Mining.witnesses;
  write_wset buf p.Mining.fast_witnesses

let read_pattern cur : Mining.pattern =
  let tuple = read_tuple cur in
  let cost = Wire.rv cur in
  let count = Wire.rv cur in
  let max_single = Wire.rv cur in
  let witnesses = read_wset cur in
  let fast_witnesses = read_wset cur in
  { Mining.tuple; cost; count; max_single; witnesses; fast_witnesses }

let write_scen_record buf ~digest (m : Mining.result) =
  Wire.wstr buf digest;
  Wire.wv buf (List.length m.Mining.contrast_metas);
  List.iter (write_contrast buf) m.Mining.contrast_metas;
  Wire.wv buf (List.length m.Mining.patterns);
  List.iter (write_pattern buf) m.Mining.patterns;
  Wire.wv buf m.Mining.fast_meta_count;
  Wire.wv buf m.Mining.slow_meta_count

let read_scen_record cur =
  let digest = Wire.rstr cur in
  let ncm = Wire.rv cur in
  let contrast_metas = List.init ncm (fun _ -> read_contrast cur) in
  let np = Wire.rv cur in
  let patterns = List.init np (fun _ -> read_pattern cur) in
  let fast_meta_count = Wire.rv cur in
  let slow_meta_count = Wire.rv cur in
  if not (Wire.at_end cur) then
    Wire.corrupt "snapshot scenario record: trailing bytes";
  (digest, { Mining.contrast_metas; patterns; fast_meta_count; slow_meta_count })

(* Scenario records share the entry framing under a reserved key prefix;
   stream keys are hex-and-dash, so the prefix cannot collide. *)
let scen_prefix = "scn!"

let is_scen_key key =
  String.length key >= String.length scen_prefix
  && String.sub key 0 (String.length scen_prefix) = scen_prefix

let write_entry buf e =
  Wire.wv buf e.e_stream_id;
  write_impact buf e.e_impact;
  write_prov buf e.e_prov;
  Wire.wv buf (List.length e.e_modules);
  List.iter (write_module_row buf) e.e_modules;
  Wire.wv buf (List.length e.e_scenarios);
  List.iter
    (fun (name, s) ->
      Wire.wstr buf name;
      write_impact buf s.sc_all;
      match s.sc_class with
      | None -> Wire.w8 buf 0
      | Some c ->
        Wire.w8 buf 1;
        write_impact buf c.cl_slow_impact;
        write_prov buf c.cl_slow_prov;
        Awg.Partial.write buf c.cl_fast;
        Awg.Partial.write buf c.cl_slow)
    e.e_scenarios

let read_entry cur =
  let e_stream_id = Wire.rv cur in
  let e_impact = read_impact cur in
  let e_prov = read_prov cur in
  let nmods = Wire.rv cur in
  let e_modules = List.init nmods (fun _ -> read_module_row cur) in
  let nscens = Wire.rv cur in
  let e_scenarios =
    List.init nscens (fun _ ->
        let name = Wire.rstr cur in
        let sc_all = read_impact cur in
        let sc_class =
          match Wire.r8 cur with
          | 0 -> None
          | 1 ->
            let cl_slow_impact = read_impact cur in
            let cl_slow_prov = read_prov cur in
            let cl_fast = Awg.Partial.read cur in
            let cl_slow = Awg.Partial.read cur in
            Some { cl_slow_impact; cl_slow_prov; cl_fast; cl_slow }
          | k -> Wire.corrupt "snapshot entry: bad class tag %d" k
        in
        (name, { sc_all; sc_class }))
  in
  if not (Wire.at_end cur) then Wire.corrupt "snapshot entry: trailing bytes";
  { e_stream_id; e_impact; e_prov; e_modules; e_scenarios }

(* --- cache files --- *)

type t = {
  dir : string option;
  fp : string;
  entries : (string, entry) Hashtbl.t;  (* key -> entry *)
  used : (string, unit) Hashtbl.t;  (* keys referenced by this corpus *)
  scenarios : (string, string * Mining.result) Hashtbl.t;
      (* scenario name -> (digest, mining); guarded by [lock] because
         run_all_snap consults it from pool workers *)
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable loaded : int;  (* entries read intact from disk *)
  mutable dropped : int;  (* on-disk entries discarded as corrupt *)
  mutable mining_hits : int;
  mutable mining_misses : int;
}

type stats = {
  s_hits : int;
  s_misses : int;
  s_stale : int;
  s_loaded : int;
  s_dropped : int;
  s_mining_hits : int;
  s_mining_misses : int;
}

let stale t =
  Hashtbl.fold
    (fun key _ acc -> if Hashtbl.mem t.used key then acc else acc + 1)
    t.entries 0

let stats t =
  {
    s_hits = t.hits;
    s_misses = t.misses;
    s_stale = stale t;
    s_loaded = t.loaded;
    s_dropped = t.dropped;
    s_mining_hits = t.mining_hits;
    s_mining_misses = t.mining_misses;
  }

let file_of ~dir ~fp = Filename.concat dir (fp ^ ".dpsnap")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Parse one cache file into [feed key entry] (per-stream entries) and
   [feed_scen name digest mining] (scenario mining records). Per-entry
   containment: a checksum-failing or undecodable record is skipped
   (counted corrupt) and the walk continues at the next record; damaged
   framing (implausible length) abandons the remainder of the file.
   Never raises. *)
let parse_file data ~expect_fp ~feed ~feed_scen =
  let ok = ref 0 and bad = ref 0 in
  (try
     let cur = Wire.cursor data in
     Wire.need cur (String.length magic);
     if String.sub data 0 (String.length magic) <> magic then
       Wire.corrupt "bad snapshot magic";
     cur.Wire.pos <- String.length magic;
     let fp = Wire.rstr cur in
     (match expect_fp with
     | Some expect when expect <> fp -> Wire.corrupt "fingerprint mismatch"
     | _ -> ());
     let len = String.length data in
     while cur.Wire.pos < len do
       let key = Wire.rstr cur in
       let elen = Wire.r32 cur in
       let stored = Wire.r32 cur in
       if elen > max_entry_len then
         Wire.corrupt "implausible entry length %d" elen;
       Wire.need cur elen;
       let payload = String.sub data cur.Wire.pos elen in
       cur.Wire.pos <- cur.Wire.pos + elen;
       if Dputil.Crc32.string payload <> stored then incr bad
       else if is_scen_key key then begin
         let name =
           String.sub key (String.length scen_prefix)
             (String.length key - String.length scen_prefix)
         in
         match read_scen_record (Wire.cursor payload) with
         | digest, mining ->
           feed_scen name digest mining;
           incr ok
         | exception Wire.Corrupt _ -> incr bad
       end
       else
         match read_entry (Wire.cursor payload) with
         | e ->
           feed key e;
           incr ok
         | exception Wire.Corrupt _ -> incr bad
     done
   with _ -> incr bad);
  (!ok, !bad)

let create ?dir ~fingerprint:fp () =
  let t =
    {
      dir;
      fp;
      entries = Hashtbl.create 64;
      used = Hashtbl.create 64;
      scenarios = Hashtbl.create 16;
      lock = Mutex.create ();
      hits = 0;
      misses = 0;
      loaded = 0;
      dropped = 0;
      mining_hits = 0;
      mining_misses = 0;
    }
  in
  (match dir with
  | None -> ()
  | Some dir ->
    let path = file_of ~dir ~fp in
    if Sys.file_exists path then begin
      match read_file path with
      | data ->
        let ok, bad =
          parse_file data ~expect_fp:(Some fp)
            ~feed:(fun key e -> Hashtbl.replace t.entries key e)
            ~feed_scen:(fun name digest mining ->
              Hashtbl.replace t.scenarios name (digest, mining))
        in
        t.loaded <- ok;
        t.dropped <- bad;
        if Dpobs.metrics_on () then
          Dpobs.Metrics.add (Lazy.force bytes_c) (String.length data)
      | exception Sys_error _ -> ()
    end);
  t

let save t =
  match t.dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let buf = Buffer.create 65536 in
    Buffer.add_string buf magic;
    Wire.wstr buf t.fp;
    let record key payload =
      Wire.wstr buf key;
      Wire.w32 buf (String.length payload);
      Wire.w32 buf (Dputil.Crc32.string payload);
      Buffer.add_string buf payload
    in
    (* Sorted keys: the file is a pure function of its contents. *)
    let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.entries [] in
    List.iter
      (fun key ->
        let e = Hashtbl.find t.entries key in
        let ebuf = Buffer.create 4096 in
        write_entry ebuf e;
        record key (Buffer.contents ebuf))
      (List.sort compare keys);
    let scen_names = Hashtbl.fold (fun n _ acc -> n :: acc) t.scenarios [] in
    List.iter
      (fun name ->
        let digest, mining = Hashtbl.find t.scenarios name in
        let ebuf = Buffer.create 4096 in
        write_scen_record ebuf ~digest mining;
        record (scen_prefix ^ name) (Buffer.contents ebuf))
      (List.sort compare scen_names);
    let path = file_of ~dir ~fp:t.fp in
    let tmp = path ^ ".tmp" in
    (* [snapshot.write] fault site. A [Torn_write] really persists only
       a prefix of the tmp file before failing, other kinds fail before
       writing; every retry rewrites the tmp from offset 0. Only a fully
       written tmp reaches the rename, so whatever the plan does the
       published cache file is never replaced by torn data — the
       tmp+rename atomicity this site exists to prove. *)
    let write_tmp () =
      (match Dpfault.check Dpfault.Snapshot_write with
      | None -> ()
      | Some Dpfault.Torn_write ->
        let data = Buffer.contents buf in
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_substring oc data 0 (String.length data / 2));
        raise
          (Dpfault.Injected
             { site = Dpfault.Snapshot_write; kind = Dpfault.Torn_write })
      | Some kind -> Dpfault.act Dpfault.Snapshot_write kind);
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> Buffer.output_buffer oc buf)
    in
    (match Dpfault.Retry.run Dpfault.Snapshot_write write_tmp with
    | () ->
      Sys.rename tmp path;
      if Dpobs.metrics_on () then
        Dpobs.Metrics.add (Lazy.force bytes_c) (Buffer.length buf)
    | exception Dpfault.Injected _ ->
      (* Budget spent: abandon this save. The previous cache file (if
         any) stays authoritative; the leftover tmp is overwritten by
         the next successful save and never parsed as a snapshot. *)
      Dpobs.Log.warn
        "snapshot: save of %s abandoned after injected write faults" path)

let key_of = Codec_v2.stream_key

let ensure ?pool t components (corpus : Corpus.t) =
  Dpobs.Span.with_span "snapshot.ensure" @@ fun () ->
  let specs = corpus.Corpus.specs in
  let misses = ref [] and hits = ref 0 in
  List.iter
    (fun st ->
      let key = key_of st in
      Hashtbl.replace t.used key ();
      if Hashtbl.mem t.entries key then incr hits
      else misses := (key, st) :: !misses)
    corpus.Corpus.streams;
  let misses = List.rev !misses in
  t.hits <- t.hits + !hits;
  t.misses <- t.misses + List.length misses;
  let fresh =
    match pool with
    | Some pool when Dppar.Pool.size pool > 1 ->
      Dppar.Pool.parallel_map ~chunk:1 pool
        (fun (key, st) -> (key, analyze_stream components ~specs st))
        misses
    | _ ->
      List.map (fun (key, st) -> (key, analyze_stream components ~specs st)) misses
  in
  List.iter (fun (key, e) -> Hashtbl.replace t.entries key e) fresh;
  if Dpobs.metrics_on () then begin
    Dpobs.Metrics.add (Lazy.force hit_c) !hits;
    Dpobs.Metrics.add (Lazy.force miss_c) (List.length misses);
    Dpobs.Metrics.add (Lazy.force stale_c) (stale t)
  end

let entry t st =
  match Hashtbl.find_opt t.entries (key_of st) with
  | Some e -> e
  | None ->
    invalid_arg
      (Printf.sprintf "Snapshot.entry: stream %d not ensured" st.Stream.id)

(* --- scenario mining cache ---

   The merged class AWGs a scenario is mined from are a deterministic
   function of the file fingerprint (components, specs, k, provenance,
   code version) plus: which streams contribute class parts, in what
   order, and the [reduce] switch. The digest captures exactly that
   remainder, so a matching digest guarantees [Mining.mine] would
   reproduce the stored result bit for bit. Streams are identified by
   the same codec-v2 content keys as the per-stream entries.

   Requires [ensure] to have run for this corpus (keys are memoised and
   [entries] is read-only by then, so concurrent readers are safe). *)
let scenario_digest t (corpus : Corpus.t) name ~reduce ~k =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "scenario:%s\nreduce:%b\nk:%d\n" name reduce k;
  List.iter
    (fun st ->
      let key = key_of st in
      match Hashtbl.find_opt t.entries key with
      | Some e when entry_scenario_class e name <> None ->
        Buffer.add_string buf key;
        Buffer.add_char buf '\n'
      | _ -> ())
    corpus.Corpus.streams;
  let s = Buffer.contents buf in
  Printf.sprintf "%08x%08x"
    (Dputil.Crc32.string s land 0xffffffff)
    (Dputil.Crc32.string (s ^ "#dpscn") land 0xffffffff)

let find_mining t corpus name ~reduce ~k =
  let digest = scenario_digest t corpus name ~reduce ~k in
  Mutex.protect t.lock @@ fun () ->
  match Hashtbl.find_opt t.scenarios name with
  | Some (d, mining) when d = digest ->
    t.mining_hits <- t.mining_hits + 1;
    if Dpobs.metrics_on () then Dpobs.Metrics.incr (Lazy.force mining_hit_c);
    Some mining
  | Some _ | None ->
    t.mining_misses <- t.mining_misses + 1;
    if Dpobs.metrics_on () then Dpobs.Metrics.incr (Lazy.force mining_miss_c);
    None

let store_mining t corpus name ~reduce ~k mining =
  let digest = scenario_digest t corpus name ~reduce ~k in
  Mutex.protect t.lock @@ fun () ->
  Hashtbl.replace t.scenarios name (digest, mining)

(* --- cache-directory tooling (driveperf cache) --- *)

type file_info = {
  fi_path : string;
  fi_fingerprint : string;
  fi_bytes : int;
  fi_entries : int;
  fi_corrupt : int;
  fi_mtime : float;
}

let list_files dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".dpsnap")
    |> List.sort compare
    |> List.map (Filename.concat dir)

let inspect path =
  let data = try read_file path with Sys_error _ -> "" in
  let fp =
    try
      let cur = Wire.cursor data in
      Wire.need cur (String.length magic);
      if String.sub data 0 (String.length magic) <> magic then "(bad magic)"
      else begin
        cur.Wire.pos <- String.length magic;
        Wire.rstr cur
      end
    with _ -> "(unreadable)"
  in
  let ok, bad =
    parse_file data ~expect_fp:None
      ~feed:(fun _ _ -> ())
      ~feed_scen:(fun _ _ _ -> ())
  in
  let mtime = try (Unix.stat path).Unix.st_mtime with _ -> 0.0 in
  {
    fi_path = path;
    fi_fingerprint = fp;
    fi_bytes = String.length data;
    fi_entries = ok;
    fi_corrupt = bad;
    fi_mtime = mtime;
  }

let gc ~keep dir =
  let files = list_files dir in
  let by_age =
    List.sort
      (fun a b -> compare b.fi_mtime a.fi_mtime)
      (List.map inspect files)
  in
  let rec drop n = function
    | [] -> []
    | _ :: _ as rest when n = 0 -> rest
    | _ :: rest -> drop (n - 1) rest
  in
  let victims = drop (max keep 0) by_age in
  List.iter (fun fi -> try Sys.remove fi.fi_path with Sys_error _ -> ()) victims;
  ( List.length victims,
    List.fold_left (fun acc fi -> acc + fi.fi_bytes) 0 victims )
