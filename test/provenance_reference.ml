(* The hash-table witness accumulator and union, kept as the test oracle
   for Dpcore.Provenance.Wacc and Wset.union.

   [Wacc] is a table keyed by the ref's identity [(stream_id, t0, tid,
   scenario)]: an entry for a key already present sums into it, so the
   first ref to arrive under a key survives. [entries] and [to_entries]
   fold the table and sort it. [union] feeds both sides, left first,
   into a fresh table. Entries are [(ref, cost, count)] triples, as
   [Wset.entries] gives them. *)

module Provenance = Dpcore.Provenance

type entry = Provenance.instance_ref * Dputil.Time.t * int

let order ((ra, ca, _) : entry) ((rb, cb, _) : entry) =
  match compare cb ca with 0 -> Provenance.compare_ref ra rb | c -> c

let rec truncate n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: truncate (n - 1) rest

let key (r : Provenance.instance_ref) =
  (r.Provenance.stream_id, r.Provenance.t0, r.Provenance.tid, r.Provenance.scenario)

let feed tbl ((r, cost, count) : entry) =
  let k = key r in
  match Hashtbl.find_opt tbl k with
  | Some (r0, c0, n0) -> Hashtbl.replace tbl k (r0, c0 + cost, n0 + count)
  | None -> Hashtbl.replace tbl k (r, cost, count)

let sorted tbl = List.sort order (Hashtbl.fold (fun _ e acc -> e :: acc) tbl [])

module Wacc = struct
  type t = (int * Dputil.Time.t * int * string, entry) Hashtbl.t

  let create () : t = Hashtbl.create 8
  let add (t : t) r ~cost = feed t (r, cost, 1)
  let add_entry (t : t) e = feed t e
  let merge_into ~(into : t) (src : t) = Hashtbl.iter (fun _ e -> feed into e) src
  let entries (t : t) = sorted t

  let to_entries ?(cap = Provenance.default_k) (t : t) = truncate cap (sorted t)

  let to_wset (t : t) = Provenance.Wset.of_entries (to_entries t)
end

let union_entries ?(cap = Provenance.default_k) a b =
  let tbl = Hashtbl.create 16 in
  List.iter (feed tbl) a;
  List.iter (feed tbl) b;
  truncate cap (sorted tbl)

let union a b =
  Provenance.Wset.of_entries
    (union_entries (Provenance.Wset.entries a) (Provenance.Wset.entries b))
