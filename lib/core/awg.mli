(** Aggregated Wait Graphs (Definitions 2–3, Algorithm 1).

    An AWG abstracts and aggregates the runtime behaviour of many Wait
    Graphs of the same scenario class. It is a forest whose inner nodes are
    {e waiting} nodes carrying a wait/unwait signature pair, and whose
    leaves are {e running} or {e hardware-service} nodes; every node
    aggregates the total cost [v.C] and occurrence count [v.N] of the
    source events it absorbed.

    Construction per source Wait Graph (Algorithm 1):
    + eliminate component-irrelevant nodes, promoting their children (the
      paper spells this out for roots; we apply it uniformly so that the
      aggregated behaviours — and hence mined signature sets — mention the
      chosen components only, as in the paper's examples);
    + merge each wait event with its pairing unwait into a waiting node
      labelled with both topmost component signatures;
    + merge the resulting tree into the AWG on common signature prefixes
      from the roots;
    + optionally reduce non-optimisable portions: a root waiting node whose
      only child is a hardware-service leaf is pruned — hardware latency
      not propagated anywhere is not actionable for driver developers. *)

type status =
  | Waiting of { wait_sig : Dptrace.Signature.t; unwait_sig : Dptrace.Signature.t }
  | Running of Dptrace.Signature.t
  | Hw of Dptrace.Signature.t

type witness_acc
(** A node's witnesses while its forest mutates: int cells while a
    {!Partial.partial} is built ({!Provenance.Wacc.add_cell}), a merge's
    best so far while a {!Partial.merger} absorbs; nothing once sealed
    or finished, or with provenance off. *)

type node = private {
  status : status;
  mutable cost : Dputil.Time.t;  (** [v.C] — summed duration. *)
  mutable count : int;  (** [v.N] — number of source events absorbed. *)
  mutable max_cost : Dputil.Time.t;
      (** Largest single source-event cost; feeds the automated
          high-impact rule of Section 5.2.1. *)
  mutable witnesses : Provenance.Wset.t;
      (** Contributing (stream, scenario instance) support, capped to the
          costliest {!Provenance.default_k} entries. Empty unless
          {!Provenance.enabled} was true during {!build}. The cap never
          makes aggregation order-sensitive ({!Provenance.Wacc}). A
          {!Partial.partial}'s node holds its stream's uncapped chunk
          here. *)
  mutable wacc : witness_acc;  (** What becomes [witnesses]. *)
  children : (status, node) Hashtbl.t;
  mutable frozen_kids : node array option;
      (** Children in sorted-status order, memoised by {!build} once the
          forest stops mutating (see {!sorted_children}). *)
}

type reduction_stats = {
  pruned_roots : int;
  pruned_cost : Dputil.Time.t;
      (** Cost held by pruned direct-hardware root structures. *)
  total_root_cost : Dputil.Time.t;
      (** Cost of all roots before reduction; the paper's "non-optimisable
          portion" is [pruned_cost / total_root_cost]. *)
}

type t

val build :
  ?reduce:bool ->
  Component.t ->
  Dpwaitgraph.Wait_graph.t list ->
  t
(** Aggregate the given Wait Graphs: one {!Partial.build} absorbed into
    a fresh {!Partial.merger} and {!Partial.merged}. [reduce] (default
    [true]) applies the non-optimisable-portion pruning. All traversals iterate children in
    sorted-status order, so the result does not depend on the order the
    graphs are given in. *)

val roots : t -> node list
(** Deterministically ordered (by status). *)

val sorted_children : node -> node array
(** A node's children in sorted-status order — the same order every
    traversal here uses. The array is frozen at {!build} time and shared;
    callers must not mutate it. *)

val reduction : t -> reduction_stats

val node_count : t -> int

val total_cost : t -> Dputil.Time.t
(** Σ [v.C] over all nodes. *)

val total_leaf_cost : t -> Dputil.Time.t
(** Σ [v.C] over leaves — the mass that full-path patterns can cover. *)

val full_paths : t -> node list list
(** All root-to-leaf paths (a childless root is a one-node path). *)

val non_optimizable_fraction : t -> float
(** [pruned_cost /. total_root_cost]; 0 when nothing was aggregated. *)

val render : t -> string
(** Indented Figure-2-style rendering. *)

val to_dot : t -> string
(** Graphviz rendering of the aggregated forest (node labels carry the
    signatures and C/N aggregates; node area hints at cost). *)

val status_pp : Format.formatter -> status -> unit

(** {1 Per-stream partial forests}

    The unit of incremental re-analysis: one stream's contribution to a
    scenario class's AWG, buildable in isolation, serialisable into the
    snapshot cache, and mergeable such that absorbing the per-stream
    partials into one {!Partial.merger} in corpus order, then taking
    {!Partial.merged}, is bit-identical — costs, counts, max, reduction
    stats and provenance witnesses — to {!build} over the same graphs in
    one pass. *)

module Partial : sig
  type partial
  (** An unreduced, unfrozen forest. Reduction must wait for the merge:
      whether a root is prunable depends on the children the {e merged}
      forest gives it. *)

  val build : Component.t -> Dpwaitgraph.Wait_graph.t list -> partial
  (** Convert and aggregate one stream's graphs (the conversion and merge
      loop {!Awg.build} runs, minus reduce/freeze). When
      {!Provenance.enabled}, each node's witnesses are exact: int cells
      while it is built, sealed into its chunk at the end. *)

  type merger
  (** A merge in progress: the running, still unreduced forest. Partials
      are absorbed one at a time, so a caller that decodes each partial
      just before absorbing it never holds more than one — this is how
      the pipeline merges a scenario's per-stream class parts, fresh or
      cached. *)

  val merger : unit -> merger
  (** An empty merge, of partials that are each one stream's, no two
      sharing a stream id. Each node keeps only its best
      {!Provenance.default_k} witnesses as it absorbs, in one sorted
      buffer merged into in place ({!Provenance.Wacc.merge_chunk}), so
      its witness memory does not grow with the partials, and {!merged}
      is the same AWG. *)

  val absorb : merger -> partial -> unit
  (** Accumulate one partial into the merge. Every accumulation commutes,
      so the result does not depend on the order partials arrive in. The
      source is only read, never adopted or mutated, so it stays valid
      for serialisation; its sealed witness chunks are shared. *)

  val merged : ?reduce:bool -> merger -> t
  (** Finish the merge: reduce (default [true]), canonicalise witnesses
      and freeze — the final AWG. The merger must not be used again. An
      empty merge yields the empty AWG. *)

  val write : Provenance.Tables.writer -> Buffer.t -> partial -> unit
  (** The snapshot entry's form of the forest: names as indices into the
      entry's name table, witnesses as {!Provenance.Wset.write} writes
      them, and LEB128 varints, every sibling set (roots and children
      alike) in strictly increasing name order — by tag, then each name
      by length, then by bytes — so the bytes do not depend on the order
      names were interned in. *)

  val read : Provenance.Tables.reader -> Dptrace.Wire.cursor -> partial
  (** Inverse of {!write} for one stream's partial, its witness refs the
      reader's. A sibling set out of name order or with two equal
      statuses is refused, as are witnesses {!Provenance.Wset.read}
      refuses. From a reader that does not build it makes every check
      and builds nothing: no node, forest or signature, in one pass with
      scratch for three ints per level of depth, and returns one shared
      empty partial, which must not be added to.
      @raise Dptrace.Wire.Corrupt on malformed input. *)
end
