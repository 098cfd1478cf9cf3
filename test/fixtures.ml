(* Helpers the tests share that the program does not use, written over
   the libraries' public API: generators, predicates, printers and
   wrappers that build test inputs or state an expectation. *)

open Dptrace

(* --- trace --- *)

(* [f] on a temporary file holding [data]. *)
let with_file data f =
  let path = Filename.temp_file "fixtures" "" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data);
  f path

(* A text corpus read the only way the codec reads: from a file.
   @raise Fields.Parse_error on malformed input. *)
let corpus_of_string text =
  with_file text @@ fun path ->
  let streams = ref [] in
  let specs = Codec.read path (fun _ st -> streams := st :: !streams) in
  Corpus.create ~streams:(List.rev !streams) ~specs

(* A corpus's text, as [Codec.save] writes it. *)
let corpus_to_string c =
  let path = Filename.temp_file "fixture" ".dpt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Codec.save path c;
  In_channel.with_open_bin path In_channel.input_all

(* An ETW dump imported the only way the importer reads: from a file.
   @raise Fields.Parse_error on malformed input. *)
let etw_of_string ?stream_id text = with_file text (Etw.load ?stream_id)

(* Intern each frame text, topmost first. *)
let callstack frames = Callstack.of_list (List.map Signature.of_string frames)

let is_valid st = Validate.check st = []
let is_hw_service (e : Event.t) = e.Event.kind = Event.Hw_service
let stack_contains f stack = Array.exists (Signature.equal f) (Callstack.frames stack)

(* Events of [tid] whose span [[ts, ts+cost]] intersects [[from_ts,
   to_ts]], in timestamp order; a zero-cost event counts when its
   instant lies within the window. *)
let thread_events_overlapping idx ~tid ~from_ts ~to_ts =
  Stream.map_overlapping idx ~tid ~from_ts ~to_ts ~keep:(fun _ -> true) Fun.id

(* --- util --- *)

(* Exponentially distributed draw with the given mean. *)
let exponential g ~mean = -.mean *. log (1.0 -. Dputil.Prng.float g 1.0)

(* Pareto draw with minimum [scale] and tail index [alpha]. *)
let pareto g ~scale ~alpha = scale /. ((1.0 -. Dputil.Prng.float g 1.0) ** (1.0 /. alpha))

(* In-place Fisher–Yates shuffle. *)
let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = Dputil.Prng.int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* [f ()] and the words it allocated on this domain, minor and major.
   The minor heap is emptied first, so no collection falls inside a call
   that allocates less than the minor heap holds: a minor collection
   that ended a major cycle there added about 51 k words [f] did not
   allocate. Minor words come from [Gc.minor_words]: [Gc.counters] reads
   the words in the minor heap an eighth too low on OCaml 5.1 (3,751 for
   10,000 conses, against 30,010). *)
let words_allocated f =
  let major () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  Gc.minor ();
  let minor0 = Gc.minor_words () in
  let major0 = major () in
  let r = f () in
  let minor1 = Gc.minor_words () in
  (r, minor1 -. minor0 +. major () -. major0)

(* --- sim --- *)

module P = Dpsim.Program

(* Σ of all [Compute] durations, nested bodies included. *)
let rec total_compute steps =
  List.fold_left
    (fun acc step ->
      acc
      +
      match step with
      | P.Compute { dur; _ } -> dur
      | P.Call { body; _ } | P.Locked { body; _ } | P.Request { body; _ } -> total_compute body
      | P.Hw_request _ | P.Idle _ -> 0)
    0 steps

(* Whether the program (recursively) takes [lock]. *)
let rec mentions_lock (lock : P.lock) steps =
  List.exists
    (function
      | P.Locked { lock = l; body; _ } -> l.P.lock_uid = lock.P.lock_uid || mentions_lock lock body
      | P.Call { body; _ } | P.Request { body; _ } -> mentions_lock lock body
      | P.Compute _ | P.Hw_request _ | P.Idle _ -> false)
    steps

(* --- core --- *)

module Impact = Dpcore.Impact
module Mining = Dpcore.Mining

let stack_relevant components stack =
  Array.exists (Dpcore.Component.matches_signature components) (Callstack.frames stack)

let pp_impact fmt (r : Impact.result) =
  Format.fprintf fmt
    "impact: %d instances, D_scn=%a, D_wait=%a (IA_wait=%.1f%%), D_run=%a \
     (IA_run=%.1f%%), D_waitdist=%a (IA_opt=%.1f%%, ratio=%.2f)"
    r.Impact.instances Dputil.Time.pp r.Impact.d_scn Dputil.Time.pp r.Impact.d_wait
    (100.0 *. Impact.ia_wait r) Dputil.Time.pp r.Impact.d_run
    (100.0 *. Impact.ia_run r)
    Dputil.Time.pp r.Impact.d_waitdist
    (100.0 *. Impact.ia_opt r)
    (Impact.propagation_ratio r)

(* A pattern with empty witness sets. *)
let make_pattern ~tuple ~cost ~count ~max_single =
  {
    Mining.tuple;
    cost;
    count;
    max_single;
    witnesses = Dpcore.Provenance.Wset.empty;
    fast_witnesses = Dpcore.Provenance.Wset.empty;
  }

(* The number of metas mining enumerates from [awg] with segments of
   at most [k] nodes. *)
let meta_count awg ~k =
  let spec = Scenario.spec ~name:"fixture" ~tfast:1 ~tslow:2 in
  (Mining.mine ~k ~fast:awg ~slow:awg ~spec ()).Mining.fast_meta_count

(* Appeared and regressed entries of a diff. *)
let regressions entries =
  List.filter
    (fun (e : Dpcore.Diff.entry) ->
      match e.change with Dpcore.Diff.Regressed _ | Appeared -> true | _ -> false)
    entries

(* --- snapshot entry tables --- *)

module Tables = Dpcore.Provenance.Tables

(* A skeleton stream [id] whose instances are [refs]' own, in order. *)
let stream_of_refs id (refs : Dpcore.Provenance.instance_ref list) =
  Stream.create ~id ~events:[||] ~threads:[]
    ~instances:
      (List.map
         (fun (r : Dpcore.Provenance.instance_ref) ->
           { Scenario.scenario = r.scenario; tid = r.tid; t0 = r.t0; t1 = r.t1 })
         refs)

(* What [write] writes under [st]'s tables, after the tables, as an
   entry holds them. *)
let with_tables st write =
  let tabs = Tables.writer st in
  let body = Buffer.create 256 in
  write tabs body;
  let b = Buffer.create (Buffer.length body + 256) in
  Tables.write tabs b;
  Buffer.add_buffer b body;
  Buffer.contents b

(* [read] after the tables at the start of [data], refs under [id],
   which must consume the rest; [ordered] as a whole entry is read. *)
let read_tabled ?(build = true) ?(ordered = false) ?(id = 0) read data =
  let cur = Wire.cursor data in
  let tabs = Tables.read ~build ~ordered ~id cur in
  let x = read tabs cur in
  if ordered then Tables.finish tabs;
  if not (Wire.at_end cur) then Wire.corrupt "trailing bytes";
  x
