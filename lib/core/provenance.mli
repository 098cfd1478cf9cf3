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
(** One scenario instance, identified by [(stream_id, t0, tid,
    scenario)] (unique within a run, which absorbs a stream id once) and
    ordered by it. Accumulators sum equal refs, keeping the first. *)

val ref_of : Dptrace.Stream.t -> Dptrace.Scenario.instance -> instance_ref
val pp_ref : Format.formatter -> instance_ref -> unit

(** {1 An entry's tables}

    A snapshot entry's refs and names, written once per entry. The
    entry holds one table of its distinct strings (signature, module and
    scenario names) in first-use order, then its stream's instances in
    stream order, each a scenario name index, tid, t0 and t1. Everywhere
    after that, a ref is an instance index and a name a name index
    (varints, {!Dptrace.Wire}). *)

module Tables : sig
  type writer
  (** The tables of one stream's entry while it is written. *)

  val writer : Dptrace.Stream.t -> writer
  (** Tables holding the stream's instances, whose scenario names are
      the first names used. *)

  val wname : writer -> Buffer.t -> string -> unit
  (** Write a name's index, adding the name to the table at its first
      use. *)

  val wref : writer -> Buffer.t -> instance_ref -> unit
  (** Write the index of the first instance equal to the ref.
      @raise Invalid_argument for a ref of none of the stream's
      instances. *)

  val write : writer -> Buffer.t -> unit
  (** The tables: each name in first-use order, then each instance.
      Written ahead of what used them, once that is written. *)

  type reader
  (** An entry's tables as read back: the names as spans of the entry's
      bytes, the instances as ints. *)

  val read : build:bool -> ordered:bool -> id:int -> Dptrace.Wire.cursor -> reader
  (** Read the tables. With [build] the reader resolves signatures and
      makes refs under stream id [id] (the id the stream is absorbed
      under); without it, it only checks. With
      [ordered] the entry is to be read whole, in order, and every name
      index read must be at most one past the highest before it: the
      table is in first-use order ({!finish} checks that every name was
      used). An instance with [t1 < t0] is refused, as the corpus
      reader refuses it.
      @raise Dptrace.Wire.Corrupt on malformed input. *)

  val building : reader -> bool

  val rname : reader -> Dptrace.Wire.cursor -> int
  (** A name index, checked against the table (and, [ordered], against
      first-use order).
      @raise Dptrace.Wire.Corrupt on a bad index. *)

  val rinst : reader -> Dptrace.Wire.cursor -> int
  (** An instance index, checked against the table.
      @raise Dptrace.Wire.Corrupt on a bad index. *)

  val name : reader -> int -> string

  val signature : reader -> int -> Dptrace.Signature.t
  (** The named signature, interned from the entry's bytes at the
      name's first resolution by this reader ({!Dptrace.Signature.of_span}),
      so names are interned in the order a decode meets them. Needs
      [build]. *)

  val ref_at : reader -> int -> instance_ref
  (** The instance's ref, shared by every use: the reader makes one ref
      per instance, under its stream id [id], at the first use of one,
      so an entry with no witness or wait record makes none. *)

  val compare_names : reader -> int -> int -> int
  (** Two names by length, then by bytes. *)

  val instances : reader -> Dptrace.Scenario.instance list
  (** The instance table, in stream order. *)

  val finish : reader -> unit
  (** With [ordered], after the whole entry: every name was used.
      @raise Dptrace.Wire.Corrupt otherwise. *)
end

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

  val of_list : 'a t -> 'a list -> 'a t
  (** The best [cap] of the list, as if each were added to the (empty)
      reservoir in turn: of two equal elements the later comes first. A
      strictly sorted list is taken without a sort. *)

  val to_list : 'a t -> 'a list
  (** Best first, at most [cap] elements. *)
end

(** {1 Witness sets (AWG node support)} *)

module Wset : sig
  type t
  (** A capped aggregation of contributing instances: per
      {!instance_ref}, the total cost it contributed and the number of
      source events absorbed. Kept cost-descending, with distinct refs,
      and truncated to a cap, reservoir-style: the costliest supporters
      survive. *)

  val empty : t
  val is_empty : t -> bool

  val union : ?cap:int -> t -> t -> t
  (** [a]'s entries fed, then [b]'s, each summed into an equal ref already
      fed (which keeps its ref) or appended; then sorted and cut to [cap].
      A result equal to a side is that side, with no allocation. *)

  val union_all : ?cap:int -> t list -> t
  (** [List.fold_left union] from the first set over the rest, in one
      buffer: the entries are made once, for the result. *)

  val entries : t -> (instance_ref * Dputil.Time.t * int) list
  (** [(ref, contributed cost, occurrences)], cost-descending. *)

  val write : Tables.writer -> Buffer.t -> t -> unit
  (** The witness wire form: a count, then each entry's instance index
      ({!Tables.wref}), cost and count. *)

  val read : Tables.reader -> Dptrace.Wire.cursor -> t
  (** Inverse of {!write}, its refs the reader's; empty from a reader
      that does not build, which only checks.
      @raise Dptrace.Wire.Corrupt unless each entry is strictly after the
      one before it in {!entries}' order (compared on the instances
      named); there is no cap. *)
end

module Wacc : sig
  (** Witness accumulation for AWG nodes. A node being built adds into
      int cells ({!add_cell}), sealed into one canonical chunk
      ({!chunk}); a merger node keeps one sorted buffer ({!t}) of the
      best {!default_k} entries of the chunks merged into it. A merge's
      chunks are each one stream's, with no two sharing a stream id, so
      no ref is in two chunks and every entry is final (DESIGN.md §9). *)

  val add_cell : int array -> int -> cost:Dputil.Time.t -> int array
  (** [add_cell cells src ~cost]: one occurrence ([cost + cost],
      [count + 1]) of the ref at index [src] of a table of refs given
      at {!chunk}. Cells start as [[||]]; the result replaces [cells]
      (it is [cells] unless they had to grow). *)

  val chunk : instance_ref array -> int array -> Wset.t
  (** The cells sealed under the table: summed per ref (the first to
      arrive keeps its ref), in {!Wset.entries}' order, uncapped. *)

  type t
  (** A merger node's buffer of the best {!default_k} entries merged
      into it. *)

  val create : unit -> t

  val merge_chunk : into:t -> Wset.t -> unit
  (** Merges a chunk's entries into [into]'s buffer, in place. *)

  val to_wset : ?cap:int -> t -> Wset.t
  (** The best [cap] entries merged in, in canonical form; [cap]
      defaults to {!default_k}. *)
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
