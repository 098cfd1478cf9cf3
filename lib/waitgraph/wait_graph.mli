(** Wait Graphs (Definition 1, after StackMine).

    The Wait Graph of a scenario instance models who the instance spent its
    time waiting on. Roots are the events of the initiating thread inside
    the instance window. Every wait event is paired with the unwait event
    that ended it; its children are the events the waking thread triggered
    during the wait interval — including that thread's own waits, expanded
    recursively, which is how multi-hop cost-propagation chains (lock →
    lock → hardware) become visible as paths.

    Graphs over the same stream share event identities: the same wait event
    reached from two instances is the same [Dptrace.Event.t] (same id),
    which is what the distinct-wait deduplication of the impact analysis
    counts on. Within one graph, nodes are memoised per event, so the
    structure is a DAG; traversals visit each node once. *)

type node = {
  event : Dptrace.Event.t;
  waker : Dptrace.Event.t option;
      (** For wait nodes: the pairing unwait. [None] for non-wait nodes and
          for waits whose pairing was lost (truncated trace). *)
  children : node list;
      (** For wait nodes: the waking thread's events during the wait
          interval, time-ordered. Unwait events are never children; the
          pairing unwait is carried in [waker]. *)
}

type t = {
  stream : Dptrace.Stream.t;
  instance : Dptrace.Scenario.instance;
  roots : node list;
}

val build : ?index:Dptrace.Stream.index -> Dptrace.Stream.t -> Dptrace.Scenario.instance -> t
(** Construct the Wait Graph of one instance. Pass [index] to share the
    stream index across the many instances of one stream. Expansion is
    bounded (depth 128) and cycle-guarded, so it is total on any input. *)

val iter_nodes : t -> (node -> unit) -> unit
(** Visit every distinct node exactly once (preorder from the roots). *)

val fold_nodes : t -> init:'a -> f:('a -> node -> 'a) -> 'a

val node_count : t -> int

val wait_time : t -> Dputil.Time.t
(** Σ cost of distinct wait nodes in the graph. *)

val depth : t -> int
(** Longest root-to-leaf path length (0 for an empty graph). *)

val pp : Format.formatter -> t -> unit
(** Indented ASCII rendering (thread names, costs, top frames); used by the
    examples to render Figure-1-style snapshots. *)

val to_dot : t -> string
(** Graphviz rendering: one node per distinct event (labelled with thread,
    kind, top frame and cost), wait→child edges, dashed unwait edges.
    Render with [dot -Tsvg]. *)
