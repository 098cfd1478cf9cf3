(* Incremental snapshot cache. See snapshot.mli for the contract and
   DESIGN.md §11 for the format and the bit-identity argument. Cache
   files are read through [Wire.window], the corpus fold's reader. *)

module Stream = Dptrace.Stream
module Scenario = Dptrace.Scenario
module Corpus = Dptrace.Corpus
module Codec_v2 = Dptrace.Codec_v2
module Wire = Dptrace.Wire
module Wait_graph = Dpwaitgraph.Wait_graph

(* Bump whenever the analysis semantics or the entry wire form change:
   the version participates in the config fingerprint, so old caches
   degrade to misses instead of deserialising garbage. *)
let code_version = "dpsnap-3"

let magic = "DPSN\x01"

(* Entries above this are rejected as framing damage (same rationale as
   Codec_v2.max_frame_len). *)
let max_entry_len = 1 lsl 30

let hit_c = Dpobs.Metrics.lazy_counter "snapshot.hit"
let miss_c = Dpobs.Metrics.lazy_counter "snapshot.miss"
let stale_c = Dpobs.Metrics.lazy_counter "snapshot.stale"
let bytes_c = Dpobs.Metrics.lazy_counter "snapshot.bytes"

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
   it. A loaded entry in the table keeps only where its record lies in
   the cache file: its bytes are read back when a hit asks for them. An
   entry handed out, and a fresh one, computed on a miss, owns its
   record's bytes. Beside the record it keeps where each scenario
   section starts and whether the section has a class part, so a merge
   decodes only the sections it asks for: the class parts' AWG forests
   are most of an entry. *)
type entry = {
  key : string;
  data : string;  (* the framed record; "" while it is only in the file *)
  at : int;
      (* where the record starts in the file; [fresh] for one computed on
         a miss, [redone] for one computed because its loaded record
         could not be read back *)
  len : int;
  head : int;  (* where the payload starts: stream id, impact, provenance, module rows *)
  sections : (string * int * bool) list;
      (* first-appearance order: name, offset in the record, has a class part *)
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
  (* A class part: the slow class's impact and the AWG partials of the
     class's fast and slow graphs, in instance order. *)
  let class_of name =
    match (spec_of name, List.assoc_opt name slow_classes) with
    | Some spec, Some (cl_slow_impact, cl_slow_prov) ->
      let items =
        List.filter (fun ((i : Scenario.instance), _) -> i.Scenario.scenario = name) items
      in
      let graphs cls =
        List.filter_map
          (fun ((i : Scenario.instance), g) ->
            if Scenario.classify spec i = cls then Some g else None)
          items
      in
      Some
        {
          cl_slow_impact;
          cl_slow_prov;
          cl_fast = Awg.Partial.build components (graphs Scenario.Fast);
          cl_slow = Awg.Partial.build components (graphs Scenario.Slow);
        }
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

let read_wait_record ~id cur : Provenance.wait_record =
  let wr_ref = { (Provenance.read_ref cur) with Provenance.stream_id = id } in
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
let read_topk ~build ~id cur =
  Provenance.Topk.add_list no_waits
    (read_list ~build cur (read_wait_record ~id) skip_wait_record)

let write_prov buf (p : Provenance.impact) =
  write_topk buf p.Provenance.top_waits;
  write_topk buf p.Provenance.top_runs;
  Wire.wv buf (List.length p.Provenance.by_module);
  List.iter
    (fun (name, t) ->
      Wire.wstr buf name;
      write_topk buf t)
    p.Provenance.by_module

let read_prov ~build ~id cur : Provenance.impact =
  let top_waits = read_topk ~build ~id cur in
  let top_runs = read_topk ~build ~id cur in
  let by_module =
    read_list ~build cur
      (fun cur ->
        let name = Wire.rstr cur in
        let t = read_topk ~build:true ~id cur in
        (name, t))
      (fun cur ->
        Wire.skip_str cur;
        ignore (read_topk ~build:false ~id cur : Provenance.wait_record Provenance.Topk.t))
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

(* An entry's head: stream id, impact, provenance and module rows, its
   refs read under stream id [id]. *)
let read_head ~build ~id cur =
  ignore (Wire.rv cur : int);
  let impact = read_impact cur in
  let prov = read_prov ~build ~id cur in
  (impact, prov, read_list ~build cur read_module_row skip_module_row)

(* A scenario section: the all-instance impact, then a class tag and,
   for tag 1, the class part. [None] when there is no class part; with
   [build] the part is decoded, without it only checked: [Some None]. *)
let read_section ~build ~id cur =
  (* The all-instance impact: [entry_part] reads it at the section's offset. *)
  skip_varints cur 7;
  match Wire.r8 cur with
  | 0 -> None
  | 1 ->
    let cl_slow_impact = read_impact cur in
    let cl_slow_prov = read_prov ~build ~id cur in
    if build then begin
      let cl_fast = Awg.Partial.read ~id cur in
      let cl_slow = Awg.Partial.read ~id cur in
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

(* The one reader of an entry payload, every section included, refs
   under the entry's own stream id; it returns the section index: each
   section's name, offset and class flag. [create] runs it without
   [build] on every record it loads. *)
let read_entry ~build cur =
  let id = Wire.rv { Wire.data = cur.Wire.data; pos = cur.Wire.pos } in
  ignore (read_head ~build ~id cur);
  Wire.rlist cur (fun cur ->
      let name = Wire.rstr cur in
      let off = cur.Wire.pos in
      (name, off, Option.is_some (read_section ~build ~id cur)))

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
let fresh = -1
let redone = -2

let fresh_entry ~at components ~specs key (st : Stream.t) =
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
    at;
    len = Buffer.length framed;
    head;
    sections = List.map (fun (name, off, c) -> (name, head + off, c)) sections;
  }

(* The head and each section's header (its all-instance impact). *)
let entry_part ~id e =
  let impact, prov, modules = read_head ~build:true ~id { Wire.data = e.data; pos = e.head } in
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
let entry_scenario_class ~id e name =
  match List.find_opt (fun (n, _, _) -> n = name) e.sections with
  | Some (_, off, true) ->
    Option.join (read_section ~build:true ~id { Wire.data = e.data; pos = off })
  | Some (_, _, false) | None -> None

(* --- cache files ---

   A cache file is read through one descriptor and never held whole:
   [create] and [inspect] walk it front to back through a [Wire.window],
   which clamps every length to the bytes the file has left before it
   allocates, a hit reads its one record back with a locked positioned
   read, and [save] copies loaded records through a window. Writers
   only rename over the path, so an open descriptor's inode never
   changes under us. *)

type file = {
  fd : Unix.file_descr;
  size : int;  (* the file's length when it was opened *)
  lock : Mutex.t;  (* one seek and read at a time: hits read from pool workers *)
  mutable closed : bool;
}

type t = {
  dir : string option;
  fp : string;
  mutable file : file option;  (* where the loaded entries' records lie *)
  entries : (string, entry) Hashtbl.t;  (* key -> entry *)
  used : (string, unit) Hashtbl.t;  (* keys the current pass has settled *)
  mutable dirty : bool;
      (* [save] would write bytes other than the file's: it was absent,
         damaged or not in save order, or a miss or a drop has come
         since it was opened or written *)
  mutable hits : int;
  mutable misses : int;
  loaded : int;  (* records read intact from disk *)
  dropped : int;  (* on-disk records discarded as corrupt *)
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
    s_mining_hits = 0;
    s_mining_misses = 0;
  }

let file_of ~dir ~fp = Filename.concat dir (fp ^ ".dpsnap")

let close_file f =
  if not f.closed then begin
    f.closed <- true;
    try Unix.close f.fd with Unix.Unix_error _ -> ()
  end

(* A file opened for reading. One nobody holds any more is closed. *)
let open_file path =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> None
  | fd ->
    let size = (Unix.fstat fd).Unix.st_size in
    let f = { fd; size; lock = Mutex.create (); closed = false } in
    Gc.finalise close_file f;
    Some f

(* Read [len] bytes from [f] at [pos] into [buf] at [off]: the count
   read, short at end of file or on an I/O error. A 0-byte read ends it,
   so a file truncated under us cannot make it spin. *)
let pread f pos buf off len =
  Mutex.protect f.lock @@ fun () ->
  match Unix.lseek f.fd pos Unix.SEEK_SET with
  | exception Unix.Unix_error _ -> 0
  | _ ->
    let rec go n =
      if n = len then n
      else
        match Unix.read f.fd buf (off + n) (len - n) with
        | 0 -> n
        | k -> go (n + k)
        | exception Unix.Unix_error _ -> n
    in
    go 0

(* A loaded entry with its record read back from the file into [buf
   e.len], a string of its own unless the caller lends a buffer; [None]
   when it can no longer be read whole. A hit is one record at a
   random offset, so it is read alone, not through a window. *)
let read_back ?(buf = Bytes.create) t e =
  match t.file with
  | Some f when e.len <= f.size - e.at ->
    let b = buf e.len in
    if pread f e.at b 0 e.len = e.len then
      Some { e with data = Bytes.unsafe_to_string b }
    else None
  | _ -> None

(* Each domain's buffer for borrowed hits, grown to the largest record
   it has read: a borrowed hit allocates nothing. *)
let lent = Domain.DLS.new_key (fun () -> ref Bytes.empty)

let lend n =
  let b = Domain.DLS.get lent in
  if Bytes.length !b < n then b := Bytes.create (max n (2 * Bytes.length !b));
  !b

(* Walk one cache file, handing [feed] every record whose checksum holds
   and whose payload reads, without [build], to exactly its length.
   Per-record containment: a checksum-failing or undecodable record is
   skipped (counted corrupt) and the walk continues at the next record;
   damaged framing (implausible length) abandons the remainder of the
   file. The result is [(fp, ok, bad, in_order)]: the fingerprint read
   (or a placeholder), and [in_order] when the keys come in the order
   [save] writes them, each once. Never raises. *)
let walk f ~expect_fp ~feed =
  let ok = ref 0 and bad = ref 0 and in_order = ref true and last = ref None in
  let fp = ref "(unreadable)" in
  (try
     let w = Wire.window ~size:f.size (pread f) in
     (* A cursor at file offset [pos] with the [n] bytes from it
        resident: a span that runs past the end of the file is damage. *)
     let span pos n =
       if Wire.fill w pos n < n then Wire.corrupt "cut at byte %d" pos;
       Wire.at w pos
     in
     (* A string at [pos] and the offset after it. *)
     let str pos =
       let cur = span pos (min 10 (f.size - pos)) in
       let from = cur.Wire.pos in
       let n = Wire.rv cur in
       let pos = pos + cur.Wire.pos - from in
       let cur = span pos n in
       (String.sub cur.Wire.data cur.Wire.pos n, pos + n)
     in
     let cur = span 0 (String.length magic) in
     if String.sub cur.Wire.data cur.Wire.pos (String.length magic) <> magic then begin
       fp := "(bad magic)";
       Wire.corrupt "bad snapshot magic"
     end;
     let read_fp, pos = str (String.length magic) in
     fp := read_fp;
     (match expect_fp with
     | Some expect when expect <> !fp -> Wire.corrupt "fingerprint mismatch"
     | _ -> ());
     let pos = ref pos in
     while !pos < f.size do
       let start = !pos in
       let key, p = str start in
       let cur = span p 8 in
       let elen = Wire.r32 cur in
       let stored = Wire.r32 cur in
       if elen > max_entry_len then
         Wire.corrupt "implausible entry length %d" elen;
       let cur = span (p + 8) elen in
       let off = cur.Wire.pos in
       pos := p + 8 + elen;
       if Some key <= !last then in_order := false;
       last := Some key;
       if Wire.crc cur elen <> stored then incr bad
       else begin
         let shift = p + 8 - off - start in
         let rel (name, o, c) = (name, o + shift, c) in
         match read_entry ~build:false cur with
         | sections when cur.Wire.pos = off + elen ->
           feed
             { key; data = ""; at = start; len = !pos - start; head = p + 8 - start;
               sections = List.map rel sections };
           incr ok
         | _ -> incr bad  (* trailing bytes *)
         | exception Wire.Corrupt _ -> incr bad
       end
     done
   with _ -> incr bad);
  (!fp, !ok, !bad, !in_order)

let create ?dir ~fingerprint:fp () =
  Dpobs.Span.with_span "snapshot.open" @@ fun () ->
  let entries = Hashtbl.create 64 in
  let file = Option.bind dir (fun dir -> open_file (file_of ~dir ~fp)) in
  let _, loaded, dropped, in_order =
    match file with
    | None -> ("", 0, 0, false)
    | Some f ->
      if Dpobs.metrics_on () then Dpobs.Metrics.add (bytes_c ()) f.size;
      walk f ~expect_fp:(Some fp) ~feed:(fun e -> Hashtbl.replace entries e.key e)
  in
  {
    dir;
    fp;
    file;
    entries;
    used = Hashtbl.create 64;
    dirty = dropped > 0 || not in_order || file = None;
    hits = 0;
    misses = 0;
    loaded;
    dropped;
  }

(* Stream the file: magic, fingerprint, then every entry in sorted key
   order, so the file is a pure function of its contents. A fresh
   record is written from its own bytes, loaded ones are copied through
   a window: neighbours in the file are read together. A record that
   can no longer be read whole is left out. Returns the bytes written
   and the entries as the new file holds them. *)
let write_records t oc =
  let header = Buffer.create 64 in
  Wire.wstr header t.fp;
  output_string oc magic;
  Buffer.output_buffer oc header;
  let w = Option.map (fun f -> Wire.window ~size:f.size (pread f)) t.file in
  let write key =
    let e = Hashtbl.find t.entries key in
    let written = { e with data = ""; at = pos_out oc } in
    match (e.data, w) with
    | "", Some w ->
      if Wire.fill w e.at e.len < e.len then None
      else begin
        let cur = Wire.at w e.at in
        output_substring oc cur.Wire.data cur.Wire.pos e.len;
        Some written
      end
    | data, _ ->
      output_string oc data;
      Some written
  in
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.entries []) in
  let written = List.filter_map write keys in
  (pos_out oc, written)

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
        let ((size, _) as written) =
          Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_records t oc)
        in
        if torn then begin
          Unix.truncate tmp (size / 2);
          raise
            (Dpfault.Injected
               { site = Dpfault.Snapshot_write; kind = Dpfault.Torn_write })
        end;
        written
      in
      match Dpfault.Retry.run Dpfault.Snapshot_write write_tmp with
      | size, written ->
        (* From now on the snapshot reads the file it wrote, opened
           before the rename publishes it, and holds no record's bytes. *)
        let file = open_file tmp in
        Sys.rename tmp path;
        Option.iter close_file t.file;
        t.file <- file;
        Hashtbl.reset t.entries;
        List.iter (fun e -> Hashtbl.replace t.entries e.key e) written;
        t.dirty <- false;
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
   events are never built. A hit whose record cannot be read back is
   stepped afresh, as a miss. *)
let lookup_or_step ?(borrow = false) t components ~specs f =
  let key = Codec_v2.frame_key f in
  let found = Hashtbl.find_opt t.entries key in
  match found with
  | Some e when e.data <> "" -> (e, Codec_v2.frame_skeleton f)
  | _ -> (
    let buf = if borrow then Some lend else None in
    match Option.bind found (read_back ?buf t) with
    | Some e -> (e, Codec_v2.frame_skeleton f)
    | None ->
      let st = Codec_v2.frame_stream f in
      let at = if found = None then fresh else redone in
      (fresh_entry ~at components ~specs key st, Stream.skeleton st))

(* A hit stores nothing: the table keeps no loaded record's bytes. *)
let settle t e =
  Hashtbl.replace t.used e.key ();
  if Hashtbl.mem t.entries e.key && e.at <> redone then begin
    t.hits <- t.hits + 1;
    if Dpobs.metrics_on () then Dpobs.Metrics.incr (hit_c ())
  end
  else begin
    Hashtbl.replace t.entries e.key (if e.at = redone then { e with at = fresh } else e);
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
  let before = Hashtbl.length t.entries in
  Hashtbl.filter_map_inplace
    (fun key e -> if Hashtbl.mem t.used key then Some e else None)
    t.entries;
  let dropped = before - Hashtbl.length t.entries in
  if dropped > 0 then t.dirty <- true;
  count_stale dropped

let entry t st =
  match Hashtbl.find_opt t.entries (key_of st) with
  | Some e when e.data <> "" -> e
  | Some e -> (
    match read_back t e with
    | Some e -> e
    | None ->
      failwith
        (Printf.sprintf "Snapshot.entry: the record of stream %d cannot be read back"
           st.Stream.id))
  | None ->
    invalid_arg
      (Printf.sprintf "Snapshot.entry: stream %d not ensured" st.Stream.id)

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
  let (fp, ok, bad, _), size =
    match open_file path with
    | None -> (("(unreadable)", 0, 1, false), 0)
    | Some f ->
      Fun.protect ~finally:(fun () -> close_file f) @@ fun () ->
      (walk f ~expect_fp:None ~feed:ignore, f.size)
  in
  let mtime = try (Unix.stat path).Unix.st_mtime with _ -> 0.0 in
  {
    fi_path = path;
    fi_fingerprint = fp;
    fi_bytes = size;
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
