(* Hash-table oracles for Dpcore.Provenance: the witness accumulator
   and union, for [Wacc] and [Wset.union], and the impact collector
   ([Collector], at the end), for the provenance [Impact.measure]
   extracts.

   [Wacc] is a table keyed by the ref's identity [(stream_id, t0, tid,
   scenario)]: an entry for a key already present sums into it, so the
   first ref to arrive under a key survives. [entries] and [to_entries]
   fold the table and sort it. [union] feeds both sides, left first,
   into a fresh table. Entries are [(ref, cost, count)] triples, as
   [Wset.entries] gives them; [wset_of_entries] is its inverse. *)

module Provenance = Dpcore.Provenance

type entry = Provenance.instance_ref * Dputil.Time.t * int

let key (r : Provenance.instance_ref) =
  (r.Provenance.stream_id, r.Provenance.t0, r.Provenance.tid, r.Provenance.scenario)

let order ((ra, ca, _) : entry) ((rb, cb, _) : entry) =
  match compare cb ca with 0 -> compare (key ra) (key rb) | c -> c

let rec truncate n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: truncate (n - 1) rest

let feed tbl ((r, cost, count) : entry) =
  let k = key r in
  match Hashtbl.find_opt tbl k with
  | Some (r0, c0, n0) -> Hashtbl.replace tbl k (r0, c0 + cost, n0 + count)
  | None -> Hashtbl.replace tbl k (r, cost, count)

let sorted tbl = List.sort order (Hashtbl.fold (fun _ e acc -> e :: acc) tbl [])

(* The capped set of [entries], built through a node's cells.
   @raise Dptrace.Wire.Corrupt on more than [default_k] entries, or
   unless each is strictly after the one before it under [order]. *)
let wset_of_entries (entries : entry list) =
  let n = List.length entries and cap = Provenance.default_k in
  if n > cap then Dptrace.Wire.corrupt "witnesses: %d entries, above the cap of %d" n cap;
  let rec increasing = function
    | a :: (b :: _ as rest) -> order a b < 0 && increasing rest
    | _ -> true
  in
  if not (increasing entries) then Dptrace.Wire.corrupt "witnesses: entries not strictly increasing";
  let cells = ref [||] in
  List.iteri
    (fun i (_, cost, count) ->
      cells := Provenance.Wacc.add_cell !cells i ~cost;
      for _ = 2 to count do cells := Provenance.Wacc.add_cell !cells i ~cost:0 done)
    entries;
  Provenance.Wacc.chunk (Array.of_list (List.map (fun (r, _, _) -> r) entries)) !cells

module Wacc = struct
  type t = (int * Dputil.Time.t * int * string, entry) Hashtbl.t

  let create () : t = Hashtbl.create 8
  let add (t : t) r ~cost = feed t (r, cost, 1)
  let add_entry (t : t) e = feed t e
  let merge_into ~(into : t) (src : t) = Hashtbl.iter (fun _ e -> feed into e) src
  let entries (t : t) = sorted t

  let to_entries ?(cap = Provenance.default_k) (t : t) = truncate cap (sorted t)

  let to_wset (t : t) = wset_of_entries (to_entries t)
end

let union_entries ?(cap = Provenance.default_k) a b =
  let tbl = Hashtbl.create 16 in
  List.iter (feed tbl) a;
  List.iter (feed tbl) b;
  truncate cap (sorted tbl)

let union a b =
  wset_of_entries
    (union_entries (Provenance.Wset.entries a) (Provenance.Wset.entries b))

(* The hash-table impact collector, kept as the oracle for the
   provenance [Dpcore.Impact.measure] extracts from its slot tally:
   full (stream, event) -> record tables while a pass runs, a record
   copied with its multiplicity bumped on each repeat visit, and each
   reservoir the first [cap] of all its records sorted. *)
module Collector = struct
  type t = {
    cap : int;
    waits : (int * int, Provenance.wait_record) Hashtbl.t;
    runs : (int * int, Provenance.wait_record) Hashtbl.t;
    modules : (int * int, string) Hashtbl.t;  (* wait key -> module name *)
  }

  let create ?(cap = Provenance.default_k) () =
    { cap; waits = Hashtbl.create 16; runs = Hashtbl.create 16; modules = Hashtbl.create 16 }

  let record tbl ~stream_id ~instance ~(event : Dptrace.Event.t) ~signature =
    let key = (stream_id, event.Dptrace.Event.id) in
    match Hashtbl.find_opt tbl key with
    | Some r ->
      Hashtbl.replace tbl key
        { r with Provenance.wr_multiplicity = r.Provenance.wr_multiplicity + 1 }
    | None ->
      Hashtbl.replace tbl key
        {
          Provenance.wr_ref = instance;
          wr_event = event.Dptrace.Event.id;
          wr_signature = signature;
          wr_ts = event.Dptrace.Event.ts;
          wr_te = Dptrace.Event.end_ts event;
          wr_cost = event.Dptrace.Event.cost;
          wr_multiplicity = 1;
        }

  let record_wait t ~module_name ~stream_id ~instance ~event ~signature =
    let key = (stream_id, event.Dptrace.Event.id) in
    if not (Hashtbl.mem t.modules key) then Hashtbl.replace t.modules key module_name;
    record t.waits ~stream_id ~instance ~event ~signature

  let record_run t ~stream_id ~instance ~event ~signature =
    record t.runs ~stream_id ~instance ~event ~signature

  let topk cap records =
    Provenance.Topk.of_list
      (Provenance.Topk.create ~cap ~compare:Provenance.compare_wait_record)
      (truncate cap (List.sort Provenance.compare_wait_record records))

  let impact t =
    let all tbl = Hashtbl.fold (fun _ r acc -> r :: acc) tbl [] in
    let mods : (string, Provenance.wait_record list) Hashtbl.t = Hashtbl.create 16 in
    Hashtbl.iter
      (fun key r ->
        match Hashtbl.find_opt t.modules key with
        | None -> ()
        | Some name ->
          Hashtbl.replace mods name
            (r :: Option.value ~default:[] (Hashtbl.find_opt mods name)))
      t.waits;
    {
      Provenance.top_waits = topk t.cap (all t.waits);
      top_runs = topk t.cap (all t.runs);
      by_module =
        Hashtbl.fold (fun name rs acc -> (name, topk t.cap rs) :: acc) mods []
        |> List.sort (fun (a, _) (b, _) -> compare a b);
    }
end
