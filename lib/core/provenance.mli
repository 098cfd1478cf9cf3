(** Result provenance: the lineage from aggregate numbers back to the
    concrete trace events that produced them.

    The pipeline's outputs — an [IA_opt] figure, a ranked contrast
    pattern — are only actionable because an analyst can drill from them
    back down to raw wait events and scenario instances (the paper's
    Section 5 case studies all end in such a drill-down). This module
    records that lineage as the analyses run:

    - {!Impact.measure} keeps, per component module and globally, the
      top-K costliest distinct wait and running events behind
      [D_wait]/[D_waitdist]/[D_run], each tagged with its stream,
      scenario instance, signature, time span and propagation
      multiplicity (how many instances counted the same event);
    - {!Awg} nodes carry a capped set of contributing (stream, instance)
      witnesses through merge and reduction, so every aggregated edge
      knows its support;
    - {!Mining} attaches to metas and contrast patterns the fast/slow
      instances they matched, with per-occurrence costs.

    Everything is bounded: top-K reservoirs per node ({!default_k}
    entries), so provenance memory is proportional to the number of
    aggregate objects, never to the corpus.

    Recording is off by default and gated on one atomic load per site;
    disabled runs compute bit-identical results and allocate no
    provenance. *)

(** {1 The switch} *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val default_k : int
(** 8 — the reservoir cap used by every collection site unless the
    caller overrides it. *)

(** {1 Instance references} *)

type instance_ref = {
  stream_id : int;
  scenario : string;
  tid : int;  (** Initiating thread of the instance. *)
  t0 : Dputil.Time.t;
  t1 : Dputil.Time.t;
}
(** One scenario instance: {!compare_ref} orders by [(stream_id, t0,
    tid, scenario)], unique within one corpus file but not across files
    (the monitor's window concatenates files whose stream ids all
    restart at 0). Accumulators sum equal refs, keeping the first. *)

val ref_of : Dptrace.Stream.t -> Dptrace.Scenario.instance -> instance_ref
val compare_ref : instance_ref -> instance_ref -> int
val pp_ref : Format.formatter -> instance_ref -> unit

val write_ref : Buffer.t -> instance_ref -> unit
(** The ref's wire form inside snapshot records and {!Awg.Partial}
    forests: varints and a length-prefixed string ({!Dptrace.Wire}). *)

val read_ref : Dptrace.Wire.cursor -> instance_ref
(** Inverse of {!write_ref}.
    @raise Dptrace.Wire.Corrupt on malformed input. *)

val skip_ref : Dptrace.Wire.cursor -> unit
(** Step over a ref with {!read_ref}'s checks, building nothing. *)

(** {1 Bounded best-first reservoirs} *)

module Topk : sig
  type 'a t
  (** An immutable reservoir keeping the [cap] best elements under a
      fixed total order (best first). Deterministic: insertion order
      never matters, so per-stream reservoirs merged in any association
      yield the same contents. *)

  val create : cap:int -> compare:('a -> 'a -> int) -> 'a t
  (** [compare] orders best-first (negative = better) and must be total
      — break cost ties on stable identity, not insertion order. *)

  val add : 'a t -> 'a -> 'a t
  val add_list : 'a t -> 'a list -> 'a t
  val merge : 'a t -> 'a t -> 'a t
  (** Both sides must share [cap] and [compare] (true for reservoirs
      built by one analysis). *)

  val to_list : 'a t -> 'a list
  (** Best first, at most [cap] elements. *)
end

(** {1 Witness sets (AWG node support)} *)

module Wset : sig
  type t
  (** A capped aggregation of contributing instances: per
      {!instance_ref}, the total cost it contributed and the number of
      source events absorbed. Kept cost-descending and truncated to a
      cap, reservoir-style: the costliest supporters survive. *)

  val empty : t

  val union : ?cap:int -> t -> t -> t
  (** Per-ref sums (keeping [a]'s ref), then re-capped. *)

  val entries : t -> (instance_ref * Dputil.Time.t * int) list
  (** [(ref, contributed cost, occurrences)], cost-descending. *)

  val of_entries : (instance_ref * Dputil.Time.t * int) list -> t
  (** Inverse of {!entries}. It writes the list in the witness wire form
      (a count, then each entry's {!write_ref}, cost and count) and reads
      it back with the checks {!Wacc.read} makes.
      @raise Dptrace.Wire.Corrupt on more than {!default_k} entries, or
      unless each is strictly after the one before it in {!entries}'
      order (ties by {!compare_ref}). *)
end

module Wacc : sig
  type t
  (** A mutable {e exact} witness accumulator: per {!instance_ref}, total
      contributed cost and occurrence count, with no cap, so merges in
      any order agree with the sequential fold. {!Awg.build} accumulates
      through here and truncates to a canonical capped {!Wset.t} only
      when the node freezes; the snapshot cache serialises the exact
      entries. {!seal} turns the adds into one chunk, and a merge only
      shares the source's chunks. *)

  val create : unit -> t

  val add : t -> instance_ref -> cost:Dputil.Time.t -> unit
  (** One occurrence: [cost + cost], [count + 1]. *)

  val seal : t -> unit
  val merge_into : into:t -> t -> unit
  (** O(chunks) after sealing the source, which stays valid. *)

  val entries : t -> (instance_ref * Dputil.Time.t * int) list
  (** All entries, in {!Wset.entries}' order. *)

  val to_wset : ?cap:int -> t -> Wset.t
  (** Renormalise to the capped canonical form; [cap] defaults to
      {!default_k}. *)

  val write : Buffer.t -> t -> unit
  (** {!entries} in the witness wire form (see {!Wset.of_entries}). *)

  val read : Dptrace.Wire.cursor -> t option
  (** Inverse of {!write}, as one sealed chunk ([None] for no entries).
      @raise Dptrace.Wire.Corrupt unless each entry is strictly after the
      one before it in {!Wset.entries}' order; there is no cap. *)

  val skip : Dptrace.Wire.cursor -> unit
  (** {!read}'s checks, building nothing. *)
end

(** {1 Impact provenance} *)

type wait_record = {
  wr_ref : instance_ref;
      (** The first instance (in analysis order) that counted the event. *)
  wr_event : int;  (** Event id within the stream. *)
  wr_signature : Dptrace.Signature.t;
      (** Topmost component signature on the event's stack. *)
  wr_ts : Dputil.Time.t;
  wr_te : Dputil.Time.t;  (** Event window [wr_ts, wr_te]. *)
  wr_cost : Dputil.Time.t;
  wr_multiplicity : int;
      (** Instances that counted this same distinct event — the event's
          contribution to the [D_wait]/[D_waitdist] gap. *)
}

val compare_wait_record : wait_record -> wait_record -> int
(** Cost-descending, ties on (stream, event id): a total best-first
    order for {!Topk}. *)

val pp_wait_record : Format.formatter -> wait_record -> unit

type impact = {
  top_waits : wait_record Topk.t;
      (** Costliest distinct component wait events (the mass behind
          [D_wait]/[D_waitdist]). *)
  top_runs : wait_record Topk.t;
      (** Costliest distinct component running events (behind [D_run]);
          [wr_multiplicity] is the number of graphs that reached it. *)
  by_module : (string * wait_record Topk.t) list;
      (** Per-module top-K wait events, name-sorted. *)
}

val empty_impact : impact
val merge_impact : impact -> impact -> impact
(** Exact for disjoint streams (records are keyed by (stream, event));
    used by the parallel per-stream reduction. *)

(** {1 Collector}

    Mutable accumulation used inside one sequential analysis pass
    (one stream, or one graph list); extract once at the end. *)

module Collector : sig
  type t

  val create : ?cap:int -> unit -> t

  val record_wait :
    t ->
    module_name:string ->
    stream_id:int ->
    instance:instance_ref ->
    event:Dptrace.Event.t ->
    signature:Dptrace.Signature.t ->
    unit
  (** Count one top-level component wait occurrence. The same (stream,
      event) from several instances accumulates multiplicity. *)

  val record_run :
    t ->
    stream_id:int ->
    instance:instance_ref ->
    event:Dptrace.Event.t ->
    signature:Dptrace.Signature.t ->
    unit

  val impact : t -> impact
end
