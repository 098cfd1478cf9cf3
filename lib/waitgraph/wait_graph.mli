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
(** Construct the Wait Graph of one instance. Pass [index] (the stream's
    own) to share the stream index across the many instances of one
    stream. Expansion is total on any input: it is cut, with a childless
    view of the event ([waker = None], [children = []]), in two cases.

    - A back edge: an event met again while its own expansion is still
      running. The view is not memoised; the expansion in progress
      finishes and is memoised as usual.
    - Depth: an event first met beyond depth {!max_depth} (roots are at
      depth 0). The view is not memoised either, so the same event met
      later at depth [<= max_depth] is expanded in full, and from then
      on every meeting, at any depth, returns that expanded node.

    Every other meeting of an event returns the one memoised node. A
    build allocates in proportion to the graph, not the stream: its
    memo and cycle guard are the calling domain's marks (see
    {!with_marks}). *)

val max_depth : int
(** 128. *)

val iter_nodes : t -> (node -> unit) -> unit
(** Visit every distinct event's node exactly once, preorder from the
    roots, children in order. Distinctness is by event id, so a cut view
    met before its event's expanded node hides the expanded one. *)

(** {1 Marks}

    A set of events for one traversal of one graph. Event ids are
    positions in the stream's event array, so a mark is one int store
    into an array stamped with the traversal's generation. Each domain
    keeps one such array, grown to the longest stream it has traversed,
    and reuses it for every traversal: no traversal allocates in
    proportion to its stream. A traversal started inside another on the
    same domain gets a fresh array. Marks never cross domains: use them
    only inside the [with_marks] call that made them. *)

type marks

val with_marks : t -> (marks -> 'a) -> 'a
(** [with_marks g f] runs [f] with an empty set over [g]'s events. *)

val first_visit : marks -> Dptrace.Event.t -> bool
(** [true] the first time the event is given, marking it; [false] after. *)

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
