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
          {!Provenance.enabled} was true during {!build}. Accumulated
          exactly (uncapped) while the forest is built and truncated once
          at finalisation, so the cap never makes aggregation
          order-sensitive. *)
  mutable wacc : Provenance.Wacc.t option;
      (** The exact in-build accumulator behind [witnesses]; [None] when
          provenance is off or once the forest is finalised. *)
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
  ?pool:Dppar.Pool.t ->
  ?reduce:bool ->
  Component.t ->
  Dpwaitgraph.Wait_graph.t list ->
  t
(** Aggregate the given Wait Graphs. [reduce] (default [true]) applies the
    non-optimisable-portion pruning. [pool] parallelises the per-graph
    conversion step; the merge itself is sequential in list order and all
    traversals iterate children in sorted-status order, so the result does
    not depend on scheduling — [build ?pool] is bit-identical to the
    sequential build. *)

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

val iter_segments : t -> k:int -> f:(node list -> unit) -> unit
(** Enumerate every downward path segment of length 1..[k] starting at
    every node (Section 4.2.3's bounded segment enumeration). Segments are
    passed start-to-end. *)

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
    snapshot cache, and mergeable such that
    [Partial.merge_all (per-stream partials in corpus order)] is
    bit-identical — costs, counts, max, reduction stats and provenance
    witnesses — to {!build} over the same graphs in one pass. *)

module Partial : sig
  type partial
  (** An unreduced, unfrozen forest. Reduction must wait for the merge:
      whether a root is prunable depends on the children the {e merged}
      forest gives it. *)

  val build : Component.t -> Dpwaitgraph.Wait_graph.t list -> partial
  (** Convert and aggregate one stream's graphs (same conversion and
      merge as {!Awg.build}, minus reduce/freeze). Records exact witness
      accumulators when {!Provenance.enabled}. *)

  val merge_all : ?reduce:bool -> partial list -> t
  (** Merge in list order (the result is order-independent — every
      accumulation commutes), then reduce (default [true]), canonicalise
      witnesses and freeze: the final AWG. Sources are only read, never
      adopted or mutated, so partials stay valid for serialisation. *)

  val is_empty : partial -> bool

  val write : Buffer.t -> partial -> unit
  (** Deterministic wire form (children in sorted-status order, signature
      names, LEB128 varints) — the snapshot cache's payload. *)

  val read : Dptrace.Wire.cursor -> partial
  (** Inverse of {!write}.
      @raise Dptrace.Wire.Corrupt on malformed input. *)
end
