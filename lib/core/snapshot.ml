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

let hit_c = Dpobs.Metrics.lazy_counter "snapshot.hit"
let miss_c = Dpobs.Metrics.lazy_counter "snapshot.miss"
let stale_c = Dpobs.Metrics.lazy_counter "snapshot.stale"
let bytes_c = Dpobs.Metrics.lazy_counter "snapshot.bytes"
let mining_hit_c = Dpobs.Metrics.lazy_counter "snapshot.mining_hit"
let mining_miss_c = Dpobs.Metrics.lazy_counter "snapshot.mining_miss"

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

(* A fresh entry holds its scenario sections decoded. An entry loaded
   from a cache file keeps each section as where it starts in the file's
   bytes (verified when the file was opened) and decodes it again only
   when a merge asks for it: the class parts' AWG forests are most of an
   entry, and a merge needs one scenario's at a time. *)
type section =
  | Decoded of scen_entry
  | Stored of { data : string; off : int; has_class : bool }

type entry = {
  e_stream_id : int;
  e_impact : Impact.result;
  e_prov : Provenance.impact;
  e_modules : Impact.module_row list;
  e_scenarios : (string * section) list;  (* first-appearance order *)
}

(* --- the per-stream step (the unit of caching) ---

   Everything downstream merging needs from one stream, computed from
   the stream's wait graphs built once (and traversed once by
   [Impact.measure] for the whole-stream part): its contribution to the
   whole-corpus impact (+ provenance), to the per-module breakdown and to
   each scenario's all-instance impact, and — for scenarios with a spec —
   the class part. A fresh report runs the same step and keeps only the
   requested class parts. The step is the stream's only pass, so it takes
   [Stream.pass_index]: like the graphs, the index dies with it. *)

type part =
  Impact.result
  * Provenance.impact
  * Impact.module_row list
  * (string * Impact.result) list

let class_part components spec items =
  let graphs cls =
    List.filter_map
      (fun ((i : Scenario.instance), g) ->
        if Scenario.classify spec i = cls then Some g else None)
      items
  in
  let fast = graphs Scenario.Fast and slow = graphs Scenario.Slow in
  let cl_slow_impact, cl_slow_prov = Impact.analyze_graphs_prov components slow in
  {
    cl_slow_impact;
    cl_slow_prov;
    cl_fast = Awg.Partial.build components fast;
    cl_slow = Awg.Partial.build components slow;
  }

let stream_step components ~spec_of (st : Stream.t) =
  let index = Stream.pass_index st in
  let items =
    List.map (fun i -> (i, Wait_graph.build ~index st i)) st.Stream.instances
  in
  let ((_, _, _, per_scenario) as part) =
    Impact.measure components (List.map snd items)
  in
  (* [measure] lists the scenarios in first-appearance order, and each
     group keeps instance order: the entry's wire form must be a pure
     function of the stream. *)
  let class_of name spec =
    class_part components spec
      (List.filter
         (fun ((i : Scenario.instance), _) -> i.Scenario.scenario = name)
         items)
  in
  ( part,
    List.map
      (fun (name, _) -> (name, Option.map (class_of name) (spec_of name)))
      per_scenario )

let analyze_stream components ~specs (st : Stream.t) =
  let spec_of name =
    List.find_opt (fun (s : Scenario.spec) -> s.Scenario.name = name) specs
  in
  let (e_impact, e_prov, e_modules, per_scenario), groups =
    stream_step components ~spec_of st
  in
  let e_scenarios =
    List.map2
      (fun (name, sc_all) (_, sc_class) -> (name, Decoded { sc_all; sc_class }))
      per_scenario groups
  in
  { e_stream_id = st.Stream.id; e_impact; e_prov; e_modules; e_scenarios }

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

let write_wait_record buf (w : Provenance.wait_record) =
  Provenance.write_ref buf w.Provenance.wr_ref;
  Wire.wv buf w.Provenance.wr_event;
  Wire.wstr buf (Dptrace.Signature.name w.Provenance.wr_signature);
  Wire.wv buf w.Provenance.wr_ts;
  Wire.wv buf w.Provenance.wr_te;
  Wire.wv buf w.Provenance.wr_cost;
  Wire.wv buf w.Provenance.wr_multiplicity

let read_wait_record cur : Provenance.wait_record =
  let wr_ref = Provenance.read_ref cur in
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
      Provenance.write_ref buf r;
      Wire.wv buf cost;
      Wire.wv buf count)
    entries

let read_wset cur =
  let n = Wire.rv cur in
  Provenance.Wset.of_entries
    (List.init n (fun _ ->
         let r = Provenance.read_ref cur in
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
  (digest, { Mining.contrast_metas; patterns; fast_meta_count; slow_meta_count })

(* Scenario records share the entry framing under a reserved key prefix;
   stream keys are hex-and-dash, so the prefix cannot collide. *)
let scen_prefix = "scn!"

let is_scen_key key =
  String.length key >= String.length scen_prefix
  && String.sub key 0 (String.length scen_prefix) = scen_prefix

let scen_name key =
  String.sub key (String.length scen_prefix)
    (String.length key - String.length scen_prefix)

let read_section cur =
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
  { sc_all; sc_class }

(* A stored section was decoded once when its file was opened, from the
   same immutable bytes, so decoding it again cannot fail. *)
let section_value = function
  | Decoded s -> s
  | Stored { data; off; _ } -> read_section { Wire.data; pos = off }

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
      let s = section_value s in
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

(* Decode a whole entry — every section too, which is what verifies it —
   but keep only its head and each section's name, class flag and
   offset. *)
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
        let off = cur.Wire.pos in
        let s = read_section cur in
        ( name,
          Stored
            { data = cur.Wire.data; off; has_class = Option.is_some s.sc_class }
        ))
  in
  { e_stream_id; e_impact; e_prov; e_modules; e_scenarios }

(* A section's all-instance impact is its header: a stored section
   decodes only that. *)
let entry_part e =
  let sc_all = function
    | Decoded s -> s.sc_all
    | Stored { data; off; _ } -> read_impact { Wire.data; pos = off }
  in
  ( e.e_impact,
    e.e_prov,
    e.e_modules,
    List.map (fun (name, s) -> (name, sc_all s)) e.e_scenarios )

let entry_scenario_class e name =
  Option.bind (List.assoc_opt name e.e_scenarios) (fun s ->
      (section_value s).sc_class)

let entry_has_class e name =
  match List.assoc_opt name e.e_scenarios with
  | Some (Decoded { sc_class; _ }) -> Option.is_some sc_class
  | Some (Stored { has_class; _ }) -> has_class
  | None -> false

(* --- cache files --- *)

type t = {
  dir : string option;
  fp : string;
  data : string;  (* the cache file's bytes as opened; "" if none *)
  stored : (string, int * int) Hashtbl.t;
      (* record key -> (offset, length) in [data] of the framed record
         it was loaded from; [save] copies these verbatim. Guarded by
         [lock], like [scenarios]. *)
  entries : (string, entry) Hashtbl.t;  (* key -> entry *)
  used : (string, unit) Hashtbl.t;  (* keys the last [ensure]'s corpus references *)
  scenarios : (string, string * Mining.result) Hashtbl.t;
      (* scenario name -> (digest, mining); guarded by [lock] because
         the pipeline's scenario assembly consults it from pool workers *)
  lock : Mutex.t;
  mutable dirty : bool;
      (* [save] would write bytes other than the file's: it was absent,
         damaged or not in save order, or a miss or a re-mined scenario
         has been added since *)
  mutable hits : int;
  mutable misses : int;
  loaded : int;  (* records read intact from disk *)
  dropped : int;  (* on-disk records discarded as corrupt *)
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

(* Walk one cache file, handing [feed key record span] every record
   whose checksum holds and whose payload decodes to exactly its length;
   [span] is the framed record's (offset, length) in [data]. Per-record
   containment: a checksum-failing or undecodable record is skipped
   (counted corrupt) and the walk continues at the next record; damaged
   framing (implausible length) abandons the remainder of the file. The
   result is [(ok, bad, in_order)], [in_order] when the keys come in the
   order [save] writes them, each once. Never raises. *)
let parse_file data ~expect_fp ~feed =
  let ok = ref 0 and bad = ref 0 and in_order = ref true and last = ref None in
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
       let start = cur.Wire.pos in
       let key = Wire.rstr cur in
       let elen = Wire.r32 cur in
       let stored = Wire.r32 cur in
       if elen > max_entry_len then
         Wire.corrupt "implausible entry length %d" elen;
       Wire.need cur elen;
       let pos = cur.Wire.pos and stop = cur.Wire.pos + elen in
       cur.Wire.pos <- stop;
       let rank = Some (is_scen_key key, key) in
       if compare rank !last <= 0 then in_order := false;
       last := rank;
       if
         Dputil.Crc32.bytes_sub (Bytes.unsafe_of_string data) ~pos ~len:elen
         <> stored
       then incr bad
       else begin
         let rcur = { Wire.data; pos } in
         match
           if is_scen_key key then
             let digest, mining = read_scen_record rcur in
             `Mining (scen_name key, digest, mining)
           else `Entry (read_entry rcur)
         with
         | record when rcur.Wire.pos = stop ->
           feed key record (start, stop - start);
           incr ok
         | _ -> incr bad  (* trailing bytes *)
         | exception Wire.Corrupt _ -> incr bad
       end
     done
   with _ -> incr bad);
  (!ok, !bad, !in_order)

let create ?dir ~fingerprint:fp () =
  let entries = Hashtbl.create 64
  and scenarios = Hashtbl.create 16
  and stored = Hashtbl.create 64 in
  let feed key record span =
    Hashtbl.replace stored key span;
    match record with
    | `Entry e -> Hashtbl.replace entries key e
    | `Mining (name, digest, mining) ->
      Hashtbl.replace scenarios name (digest, mining)
  in
  let data, (loaded, dropped, in_order) =
    match dir with
    | None -> ("", (0, 0, false))
    | Some dir -> (
      match read_file (file_of ~dir ~fp) with
      | data ->
        if Dpobs.metrics_on () then
          Dpobs.Metrics.add (bytes_c ()) (String.length data);
        (data, parse_file data ~expect_fp:(Some fp) ~feed)
      | exception Sys_error _ -> ("", (0, 0, false)))
  in
  {
    dir;
    fp;
    data;
    stored;
    entries;
    used = Hashtbl.create 64;
    scenarios;
    lock = Mutex.create ();
    dirty = dropped > 0 || not in_order || data = "";
    hits = 0;
    misses = 0;
    loaded;
    dropped;
    mining_hits = 0;
    mining_misses = 0;
  }

(* Stream the file: magic, fingerprint, then every record in sorted key
   order — per-stream entries, then scenario mining records — so the file
   is a pure function of its contents. A record loaded from the current
   file is copied as stored; only fresh entries and re-mined scenarios
   are encoded, one at a time. Returns the bytes written. *)
let write_records t oc =
  let header = Buffer.create 64 and payload = Buffer.create 4096 in
  Wire.wstr header t.fp;
  output_string oc magic;
  Buffer.output_buffer oc header;
  let record key encode =
    match Hashtbl.find_opt t.stored key with
    | Some (off, len) -> output_substring oc t.data off len
    | None ->
      Buffer.clear payload;
      encode payload;
      let p = Buffer.contents payload in
      Buffer.clear header;
      Wire.wstr header key;
      Wire.w32 header (String.length p);
      Wire.w32 header (Dputil.Crc32.string p);
      Buffer.output_buffer oc header;
      output_string oc p
  in
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []) in
  List.iter
    (fun key -> record key (fun buf -> write_entry buf (Hashtbl.find t.entries key)))
    (sorted t.entries);
  List.iter
    (fun name ->
      record (scen_prefix ^ name) (fun buf ->
          let digest, mining = Hashtbl.find t.scenarios name in
          write_scen_record buf ~digest mining))
    (sorted t.scenarios);
  pos_out oc

let save t =
  match t.dir with
  | None -> ()
  | Some dir ->
    let path = file_of ~dir ~fp:t.fp in
    (* Nothing changed since the file was opened: rewriting would
       reproduce its bytes, so only refresh its mtime, which is what
       [gc] ranks recency by. *)
    let touched () =
      match Unix.utimes path 0.0 0.0 with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    if t.dirty || not (touched ()) then begin
      Dputil.Fs.mkdir_p dir;
      let tmp = path ^ ".tmp" in
      (* [snapshot.write] fault site. A [Torn_write] really persists only
         a prefix of the tmp file before failing, other kinds fail before
         writing; every retry rewrites the tmp from offset 0. Only a
         fully written tmp reaches the rename, so whatever the plan does
         the published cache file is never replaced by torn data — the
         tmp+rename atomicity this site exists to prove. *)
      let write_tmp () =
        let torn =
          match Dpfault.check Dpfault.Snapshot_write with
          | None -> false
          | Some Dpfault.Torn_write -> true
          | Some kind ->
            Dpfault.act Dpfault.Snapshot_write kind;
            false
        in
        let oc = open_out_bin tmp in
        let size =
          Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_records t oc)
        in
        if torn then begin
          Unix.truncate tmp (size / 2);
          raise
            (Dpfault.Injected
               { site = Dpfault.Snapshot_write; kind = Dpfault.Torn_write })
        end;
        size
      in
      match Dpfault.Retry.run Dpfault.Snapshot_write write_tmp with
      | size ->
        Sys.rename tmp path;
        if Dpobs.metrics_on () then Dpobs.Metrics.add (bytes_c ()) size
      | exception Dpfault.Injected _ ->
        (* Budget spent: abandon this save. The previous cache file (if
           any) stays authoritative; the leftover tmp is overwritten by
           the next successful save and never parsed as a snapshot. *)
        Dpobs.Log.warn
          "snapshot: save of %s abandoned after injected write faults" path
    end

let key_of = Codec_v2.stream_key

let ensure ?pool t components (corpus : Corpus.t) =
  Dpobs.Span.with_span "snapshot.ensure" @@ fun () ->
  let specs = corpus.Corpus.specs in
  let misses = ref [] and hits = ref 0 in
  Hashtbl.reset t.used;
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
  if fresh <> [] then t.dirty <- true;
  if Dpobs.metrics_on () then begin
    Dpobs.Metrics.add (hit_c ()) !hits;
    Dpobs.Metrics.add (miss_c ()) (List.length misses);
    Dpobs.Metrics.add (stale_c ()) (stale t)
  end

let drop_stale t =
  Mutex.protect t.lock @@ fun () ->
  Hashtbl.filter_map_inplace
    (fun key e ->
      if Hashtbl.mem t.used key then Some e
      else begin
        Hashtbl.remove t.stored key;
        t.dirty <- true;
        None
      end)
    t.entries

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
      | Some e when entry_has_class e name ->
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
    if Dpobs.metrics_on () then Dpobs.Metrics.incr (mining_hit_c ());
    Some mining
  | Some _ | None ->
    t.mining_misses <- t.mining_misses + 1;
    if Dpobs.metrics_on () then Dpobs.Metrics.incr (mining_miss_c ());
    None

let store_mining t corpus name ~reduce ~k mining =
  let digest = scenario_digest t corpus name ~reduce ~k in
  Mutex.protect t.lock @@ fun () ->
  Hashtbl.replace t.scenarios name (digest, mining);
  Hashtbl.remove t.stored (scen_prefix ^ name);
  t.dirty <- true

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
  let ok, bad, _ = parse_file data ~expect_fp:None ~feed:(fun _ _ _ -> ()) in
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
