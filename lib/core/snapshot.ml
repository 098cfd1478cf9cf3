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
let code_version = "dpsnap-2"

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

(* An entry is its framed record, byte for byte what [save] writes for
   it: a span of the cache file's bytes when it was loaded, a string of
   its own when it was computed. Beside the span it keeps where each
   scenario section starts and whether the section has a class part, so
   a merge decodes only the sections it asks for: the class parts' AWG
   forests are most of an entry. *)
type entry = {
  key : string;
  data : string;
  off : int;  (* the framed record is [len] bytes of [data] from [off] *)
  len : int;
  head : int;  (* where the payload starts: stream id, impact, provenance, module rows *)
  sections : (string * int * bool) list;
      (* first-appearance order: name, offset in [data], has a class part *)
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

let class_graphs spec items cls =
  List.filter_map
    (fun ((i : Scenario.instance), g) ->
      if Scenario.classify spec i = cls then Some g else None)
    items

(* A class part around its slow class's impact: the AWG partials of the
   class's fast and slow graphs, in instance order. *)
let with_partials components spec items (cl_slow_impact, cl_slow_prov) =
  {
    cl_slow_impact;
    cl_slow_prov;
    cl_fast = Awg.Partial.build components (class_graphs spec items Scenario.Fast);
    cl_slow = Awg.Partial.build components (class_graphs spec items Scenario.Slow);
  }

let class_part components spec items =
  with_partials components spec items
    (Impact.analyze_graphs_prov components (class_graphs spec items Scenario.Slow))

let stream_step components ~spec_of (st : Stream.t) =
  let index = Stream.pass_index st in
  let items =
    List.map (fun i -> (i, Wait_graph.build ~index st i)) st.Stream.instances
  in
  (* One traversal measures the stream, its scenarios and each spec'd
     scenario's slow class. [measure] lists the scenarios in
     first-appearance order, and each group keeps instance order: the
     entry's wire form must be a pure function of the stream. *)
  let slow name =
    Option.map
      (fun spec i -> Scenario.classify spec i = Scenario.Slow)
      (spec_of name)
  in
  let r, prov, rows, per_scenario, slow_classes =
    Impact.measure ~slow components (List.map snd items)
  in
  let class_of name =
    match (spec_of name, List.assoc_opt name slow_classes) with
    | Some spec, Some slow_class ->
      Some
        (with_partials components spec
           (List.filter
              (fun ((i : Scenario.instance), _) -> i.Scenario.scenario = name)
              items)
           slow_class)
    | _ -> None
  in
  ((r, prov, rows, per_scenario), List.map (fun (name, _) -> (name, class_of name)) per_scenario)

(* --- entry wire form ---

   The entry readers take [build], as [Codec_v2.read_stream_payload]
   does: with it they decode; without it they make the same checks, in
   the same order, build no reservoir, module row or forest, and intern
   no signature. *)

let skip_varints cur n =
  for _ = 1 to n do
    ignore (Wire.rv cur : int)
  done

(* A counted list: read whole with [build], else stepped over by [skip]. *)
let read_list ~build cur read skip =
  if build then Wire.rlist cur read
  else begin
    for _ = 1 to Wire.rcount cur do
      skip cur
    done;
    []
  end

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

let skip_wait_record cur =
  Provenance.skip_ref cur;
  skip_varints cur 1;
  Wire.skip_str cur;
  skip_varints cur 4

let no_waits =
  Provenance.Topk.create ~cap:Provenance.default_k
    ~compare:Provenance.compare_wait_record

(* Reservoirs are reconstructed at the pipeline's cap; the serialised
   list is already canonical (best-first, <= cap), so re-adding in order
   reproduces the exact representation. *)
let read_topk ~build cur =
  Provenance.Topk.add_list no_waits
    (read_list ~build cur read_wait_record skip_wait_record)

let write_prov buf (p : Provenance.impact) =
  write_topk buf p.Provenance.top_waits;
  write_topk buf p.Provenance.top_runs;
  Wire.wv buf (List.length p.Provenance.by_module);
  List.iter
    (fun (name, t) ->
      Wire.wstr buf name;
      write_topk buf t)
    p.Provenance.by_module

let read_prov ~build cur : Provenance.impact =
  let top_waits = read_topk ~build cur in
  let top_runs = read_topk ~build cur in
  let by_module =
    read_list ~build cur
      (fun cur ->
        let name = Wire.rstr cur in
        let t = read_topk ~build:true cur in
        (name, t))
      (fun cur ->
        Wire.skip_str cur;
        ignore (read_topk ~build:false cur : Provenance.wait_record Provenance.Topk.t))
  in
  if build then { Provenance.top_waits; top_runs; by_module } else Provenance.empty_impact

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

let skip_module_row cur =
  Wire.skip_str cur;
  skip_varints cur 5

(* An entry's head: stream id, impact, provenance and module rows. *)
let read_head ~build cur =
  ignore (Wire.rv cur : int);
  let impact = read_impact cur in
  let prov = read_prov ~build cur in
  (impact, prov, read_list ~build cur read_module_row skip_module_row)

(* --- scenario mining records ---

   Mining re-runs cost the same whether the per-stream partials came from
   the cache or not, so a warm re-analysis would be bounded below by the
   miner. The snapshot therefore also caches each scenario's
   {!Mining.result}, keyed by a digest of everything the merged AWGs are a
   deterministic function of beyond the file fingerprint: the ordered
   contributing stream keys, [k] and the [reduce] switch. Appending a
   stream only perturbs the digests of the scenarios that stream actually
   contains — every other scenario's mining result is reused verbatim. *)

let write_f64 buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let read_f64 cur =
  Wire.need cur 8;
  let bits = String.get_int64_le cur.Wire.data cur.Wire.pos in
  cur.Wire.pos <- cur.Wire.pos + 8;
  Int64.float_of_bits bits

let write_signature_set buf (a : Dptrace.Signature.t array) =
  Wire.wv buf (Array.length a);
  Array.iter (fun s -> Wire.wstr buf (Dptrace.Signature.name s)) a

let read_signature_list cur =
  Wire.rlist cur (fun cur -> Dptrace.Signature.of_string (Wire.rstr cur))

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

let write_meta buf (m : Mining.meta) =
  write_tuple buf m.Mining.tuple;
  Wire.wv buf m.Mining.cost;
  Wire.wv buf m.Mining.count;
  Provenance.Wset.write buf m.Mining.m_witnesses

let read_meta cur : Mining.meta =
  let tuple = read_tuple cur in
  let cost = Wire.rv cur in
  let count = Wire.rv cur in
  let m_witnesses = Provenance.Wset.read cur in
  { Mining.tuple; cost; count; m_witnesses }

let write_contrast buf (c : Mining.contrast_meta) =
  write_meta buf c.Mining.cm_meta;
  (match c.Mining.reason with
  | Mining.Slow_only -> Wire.w8 buf 0
  | Mining.Cost_ratio r ->
    Wire.w8 buf 1;
    write_f64 buf r);
  Provenance.Wset.write buf c.Mining.cm_fast_witnesses

let read_contrast cur : Mining.contrast_meta =
  let cm_meta = read_meta cur in
  let reason =
    match Wire.r8 cur with
    | 0 -> Mining.Slow_only
    | 1 -> Mining.Cost_ratio (read_f64 cur)
    | k -> Wire.corrupt "snapshot scenario record: bad contrast tag %d" k
  in
  let cm_fast_witnesses = Provenance.Wset.read cur in
  { Mining.cm_meta; reason; cm_fast_witnesses }

let write_pattern buf (p : Mining.pattern) =
  write_tuple buf p.Mining.tuple;
  Wire.wv buf p.Mining.cost;
  Wire.wv buf p.Mining.count;
  Wire.wv buf p.Mining.max_single;
  Provenance.Wset.write buf p.Mining.witnesses;
  Provenance.Wset.write buf p.Mining.fast_witnesses

let read_pattern cur : Mining.pattern =
  let tuple = read_tuple cur in
  let cost = Wire.rv cur in
  let count = Wire.rv cur in
  let max_single = Wire.rv cur in
  let witnesses = Provenance.Wset.read cur in
  let fast_witnesses = Provenance.Wset.read cur in
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
  let contrast_metas = Wire.rlist cur read_contrast in
  let patterns = Wire.rlist cur read_pattern in
  let fast_meta_count = Wire.rv cur in
  let slow_meta_count = Wire.rv cur in
  (digest, { Mining.contrast_metas; patterns; fast_meta_count; slow_meta_count })

(* Scenario records share the entry framing under a reserved key prefix;
   stream keys are hex-and-dash, so the prefix cannot collide. *)
let scen_prefix = "scn!"

let is_scen_key key = String.starts_with ~prefix:scen_prefix key

let scen_name key =
  String.sub key (String.length scen_prefix)
    (String.length key - String.length scen_prefix)

(* A scenario section: the all-instance impact, then a class tag and,
   for tag 1, the class part. [None] when there is no class part; with
   [build] the part is decoded, without it only checked: [Some None]. *)
let read_section ~build cur =
  (* The all-instance impact: [entry_part] reads it at the section's offset. *)
  skip_varints cur 7;
  match Wire.r8 cur with
  | 0 -> None
  | 1 ->
    let cl_slow_impact = read_impact cur in
    let cl_slow_prov = read_prov ~build cur in
    if build then begin
      let cl_fast = Awg.Partial.read cur in
      let cl_slow = Awg.Partial.read cur in
      Some (Some { cl_slow_impact; cl_slow_prov; cl_fast; cl_slow })
    end
    else begin
      Awg.Partial.walk cur;
      Awg.Partial.walk cur;
      Some None
    end
  | k -> Wire.corrupt "snapshot entry: bad class tag %d" k

(* The payload of a stream's entry, from its step under every spec:
   stream id, impact, provenance, module rows, then one section per
   scenario. Returns each section's name, offset in [buf] and class
   flag. *)
let write_entry buf id ((impact, prov, modules, per_scenario) : part) groups =
  Wire.wv buf id;
  write_impact buf impact;
  write_prov buf prov;
  Wire.wv buf (List.length modules);
  List.iter (write_module_row buf) modules;
  Wire.wv buf (List.length per_scenario);
  let sections = ref [] in
  List.iter2
    (fun (name, sc_all) (_, sc_class) ->
      Wire.wstr buf name;
      sections := (name, Buffer.length buf, Option.is_some sc_class) :: !sections;
      write_impact buf sc_all;
      match sc_class with
      | None -> Wire.w8 buf 0
      | Some c ->
        Wire.w8 buf 1;
        write_impact buf c.cl_slow_impact;
        write_prov buf c.cl_slow_prov;
        Awg.Partial.write buf c.cl_fast;
        Awg.Partial.write buf c.cl_slow)
    per_scenario groups;
  List.rev !sections

(* The one reader of an entry payload, every section included; it
   returns the section index: each section's name, offset and class
   flag. [create] runs it without [build] on every record it loads. *)
let read_entry ~build cur =
  ignore (read_head ~build cur);
  Wire.rlist cur (fun cur ->
      let name = Wire.rstr cur in
      let off = cur.Wire.pos in
      (name, off, Option.is_some (read_section ~build cur)))

let entry_index ~build payload =
  let cur = Wire.cursor payload in
  let sections = read_entry ~build cur in
  if not (Wire.at_end cur) then Wire.corrupt "snapshot entry: trailing bytes";
  sections

(* A record as [save] writes it: key, payload length, payload CRC,
   payload. *)
let frame key payload =
  let buf = Buffer.create (String.length key + String.length payload + 16) in
  Wire.wstr buf key;
  Wire.w32 buf (String.length payload);
  Wire.w32 buf (Dputil.Crc32.string payload);
  Buffer.add_string buf payload;
  buf

(* A stream's entry computed afresh: its step under every spec, framed
   once. *)
let fresh_entry components ~specs key (st : Stream.t) =
  let spec_of name =
    List.find_opt (fun (s : Scenario.spec) -> s.Scenario.name = name) specs
  in
  let part, groups = stream_step components ~spec_of st in
  let payload = Buffer.create 4096 in
  let sections = write_entry payload st.Stream.id part groups in
  let framed = frame key (Buffer.contents payload) in
  let head = Buffer.length framed - Buffer.length payload in
  {
    key;
    data = Buffer.contents framed;
    off = 0;
    len = Buffer.length framed;
    head;
    sections = List.map (fun (name, off, c) -> (name, head + off, c)) sections;
  }

(* The head and each section's header (its all-instance impact). *)
let entry_part e =
  let impact, prov, modules = read_head ~build:true { Wire.data = e.data; pos = e.head } in
  ( impact,
    prov,
    modules,
    List.map
      (fun (name, off, _) ->
        (name, read_impact { Wire.data = e.data; pos = off }))
      e.sections )

(* A loaded section was read without [build] when its file was opened,
   which makes every check the decode makes, and a fresh one was
   written by [write_entry], so decoding it cannot fail. *)
let entry_scenario_class e name =
  match List.find_opt (fun (n, _, _) -> n = name) e.sections with
  | Some (_, off, true) ->
    Option.join (read_section ~build:true { Wire.data = e.data; pos = off })
  | Some (_, _, false) | None -> None

(* --- cache files --- *)

type t = {
  dir : string option;
  fp : string;
  data : string;  (* the cache file's bytes as opened; "" if none *)
  entries : (string, entry) Hashtbl.t;  (* key -> entry *)
  used : (string, unit) Hashtbl.t;  (* keys the current pass has settled *)
  scenarios : (string, string * Mining.result * (int * int) option) Hashtbl.t;
      (* scenario name -> (digest, mining, the (offset, length) in [data]
         of the framed record it was loaded from, which [save] copies
         verbatim); guarded by [lock] because the pipeline's scenario
         assembly consults it from pool workers *)
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

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Walk one cache file, handing [feed] every record whose checksum holds
   and whose payload reads to exactly its length: a stream's entry
   (read without [build]), or a scenario's mining record (decoded) with
   its framed span in [data].
   Per-record containment: a checksum-failing or undecodable record is
   skipped (counted corrupt) and the walk continues at the next record;
   damaged framing (implausible length) abandons the remainder of the
   file. The result is [(fp, ok, bad, in_order)]: the fingerprint read
   (or a placeholder), and [in_order] when the keys come in the order
   [save] writes them, each once. Never raises. *)
let parse_file data ~expect_fp ~feed =
  let ok = ref 0 and bad = ref 0 and in_order = ref true and last = ref None in
  let fp = ref "(unreadable)" in
  (try
     let cur = Wire.cursor data in
     Wire.need cur (String.length magic);
     if String.sub data 0 (String.length magic) <> magic then begin
       fp := "(bad magic)";
       Wire.corrupt "bad snapshot magic"
     end;
     cur.Wire.pos <- String.length magic;
     fp := Wire.rstr cur;
     (match expect_fp with
     | Some expect when expect <> !fp -> Wire.corrupt "fingerprint mismatch"
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
             `Mining (scen_name key, (digest, mining, Some (start, stop - start)))
           else
             let sections = read_entry ~build:false rcur in
             `Entry { key; data; off = start; len = stop - start; head = pos; sections }
         with
         | record when rcur.Wire.pos = stop ->
           feed record;
           incr ok
         | _ -> incr bad  (* trailing bytes *)
         | exception Wire.Corrupt _ -> incr bad
       end
     done
   with _ -> incr bad);
  (!fp, !ok, !bad, !in_order)

let create ?dir ~fingerprint:fp () =
  Dpobs.Span.with_span "snapshot.open" @@ fun () ->
  let entries = Hashtbl.create 64 and scenarios = Hashtbl.create 16 in
  let feed = function
    | `Entry e -> Hashtbl.replace entries e.key e
    | `Mining (name, record) -> Hashtbl.replace scenarios name record
  in
  let data, (_, loaded, dropped, in_order) =
    match dir with
    | None -> ("", ("", 0, 0, false))
    | Some dir -> (
      match read_file (file_of ~dir ~fp) with
      | data ->
        if Dpobs.metrics_on () then
          Dpobs.Metrics.add (bytes_c ()) (String.length data);
        (data, parse_file data ~expect_fp:(Some fp) ~feed)
      | exception Sys_error _ -> ("", ("", 0, 0, false)))
  in
  {
    dir;
    fp;
    data;
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
   is a pure function of its contents. Entries are already framed, and a
   mining record loaded from the current file is copied as stored; only
   re-mined scenarios are encoded. Returns the bytes written. *)
let write_records t oc =
  let header = Buffer.create 64 in
  Wire.wstr header t.fp;
  output_string oc magic;
  Buffer.output_buffer oc header;
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []) in
  List.iter
    (fun key ->
      let e = Hashtbl.find t.entries key in
      output_substring oc e.data e.off e.len)
    (sorted t.entries);
  List.iter
    (fun name ->
      match Hashtbl.find t.scenarios name with
      | _, _, Some (off, len) -> output_substring oc t.data off len
      | digest, mining, None ->
        let payload = Buffer.create 4096 in
        write_scen_record payload ~digest mining;
        Buffer.output_buffer oc (frame (scen_prefix ^ name) (Buffer.contents payload)))
    (sorted t.scenarios);
  pos_out oc

(* The entries a pass leaves out are counted stale once: when they are
   dropped, or when they are saved. *)
let count_stale n =
  if Dpobs.metrics_on () then Dpobs.Metrics.add (stale_c ()) n

let save t =
  Dpobs.Span.with_span "snapshot.save" @@ fun () ->
  count_stale (stale t);
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

(* --- the cached per-stream step ---

   [lookup_or_step] runs where the stream is (a pool worker, inside the
   fold's decode work item) and only reads [entries]; [settle] runs on
   the consumer's domain, between batches, and is the only writer. *)

let key_of = Codec_v2.stream_key

(* A hit needs only the frame's key and the stream's skeleton, so its
   events are never built. *)
let lookup_or_step t components ~specs f =
  let key = Codec_v2.frame_key f in
  match Hashtbl.find_opt t.entries key with
  | Some e -> (e, Codec_v2.frame_skeleton f)
  | None ->
    let st = Codec_v2.frame_stream f in
    (fresh_entry components ~specs key st, Stream.skeleton st)

let settle t e =
  Hashtbl.replace t.used e.key ();
  if Hashtbl.mem t.entries e.key then begin
    t.hits <- t.hits + 1;
    if Dpobs.metrics_on () then Dpobs.Metrics.incr (hit_c ())
  end
  else begin
    Hashtbl.replace t.entries e.key e;
    t.misses <- t.misses + 1;
    t.dirty <- true;
    if Dpobs.metrics_on () then Dpobs.Metrics.incr (miss_c ())
  end

let new_pass t = Hashtbl.reset t.used

let ensure ?pool t components (corpus : Corpus.t) =
  Dpobs.Span.with_span "snapshot.ensure" @@ fun () ->
  new_pass t;
  Dppar.Pool.iter_batched ?pool
    (fun st ->
      fst (lookup_or_step t components ~specs:corpus.Corpus.specs (Codec_v2.resident st)))
    (settle t)
    (fun push -> List.iter push corpus.Corpus.streams)

let drop_stale t =
  Mutex.protect t.lock @@ fun () ->
  let before = Hashtbl.length t.entries in
  Hashtbl.filter_map_inplace
    (fun key e -> if Hashtbl.mem t.used key then Some e else None)
    t.entries;
  let dropped = before - Hashtbl.length t.entries in
  if dropped > 0 then t.dirty <- true;
  count_stale dropped

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

   Requires every stream of the corpus to be settled (keys are memoised
   and [entries] is read-only by then, so concurrent readers are
   safe). *)
let scenario_digest t (corpus : Corpus.t) name ~reduce ~k =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "scenario:%s\nreduce:%b\nk:%d\n" name reduce k;
  List.iter
    (fun st ->
      let key = key_of st in
      match Hashtbl.find_opt t.entries key with
      | Some e when List.exists (fun (n, _, c) -> n = name && c) e.sections ->
        Buffer.add_string buf key;
        Buffer.add_char buf '\n'
      | _ -> ())
    corpus.Corpus.streams;
  let s = Buffer.contents buf in
  Printf.sprintf "%08x%08x"
    (Dputil.Crc32.string s land 0xffffffff)
    (Dputil.Crc32.string (s ^ "#dpscn") land 0xffffffff)

let mining t corpus name ~reduce ~k mine =
  let digest = scenario_digest t corpus name ~reduce ~k in
  let cached =
    Mutex.protect t.lock @@ fun () ->
    match Hashtbl.find_opt t.scenarios name with
    | Some (d, m, _) when d = digest ->
      t.mining_hits <- t.mining_hits + 1;
      if Dpobs.metrics_on () then Dpobs.Metrics.incr (mining_hit_c ());
      Some m
    | Some _ | None ->
      t.mining_misses <- t.mining_misses + 1;
      if Dpobs.metrics_on () then Dpobs.Metrics.incr (mining_miss_c ());
      None
  in
  match cached with
  | Some m -> m
  | None ->
    let m = mine () in
    Mutex.protect t.lock (fun () ->
        Hashtbl.replace t.scenarios name (digest, m, None);
        t.dirty <- true);
    m

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
  let fp, ok, bad, _ = parse_file data ~expect_fp:None ~feed:ignore in
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
  let victims = List.filteri (fun i _ -> i >= keep) by_age in
  List.iter (fun fi -> try Sys.remove fi.fi_path with Sys_error _ -> ()) victims;
  ( List.length victims,
    List.fold_left (fun acc fi -> acc + fi.fi_bytes) 0 victims )
