(** Impact analysis (Section 3).

    Measures, for a chosen set of components over a set of scenario
    instances:

    - [d_scn] — total duration of all scenario instances;
    - [d_wait] — total duration of {e top-level} component wait events: a
      breadth-first search over each Wait Graph counts a wait event whose
      callstack contains a component signature and does not descend into
      it, so child events that constitute an already-counted cost are not
      double-counted;
    - [d_run] — total duration of component running events reachable in
      the Wait Graphs (overlaps with [d_wait] by design, see §3.2);
    - [d_waitdist] — [d_wait] with duplicate events (the same wait event
      counted from several scenario instances of the same stream)
      counted once.

    The derived metrics are the paper's outputs: [ia_run = d_run/d_scn],
    [ia_wait = d_wait/d_scn], [ia_opt = (d_wait - d_waitdist)/d_scn], and
    the propagation ratio [d_wait/d_waitdist] (≈3.5 in the paper: one
    second of distinct driver wait causes 3.5 seconds of scenario-level
    waiting).

    Everything here measures prebuilt Wait Graphs: {!measure} is the one
    traversal, and the other measuring functions are its projections.
    The corpus-wide measurement is {!Pipeline.run_report}, which builds
    each stream's graphs, measures them and {!merge}s the stream parts
    (whole-stream and per-scenario alike) in stream order. *)

type result = {
  d_scn : Dputil.Time.t;
  d_wait : Dputil.Time.t;
  d_run : Dputil.Time.t;
  d_waitdist : Dputil.Time.t;
  instances : int;
  counted_waits : int;  (** Top-level component wait events counted. *)
  counted_runs : int;
}

val empty : result
(** All-zero: the identity of {!merge}. *)

val analyze_graphs_prov :
  Component.t -> Dpwaitgraph.Wait_graph.t list -> result * Provenance.impact
(** Measure over prebuilt Wait Graphs (graphs from the same stream must
    share event identities, which {!Dpwaitgraph.Wait_graph.build}
    guarantees), with the provenance of the measured numbers: the top-K
    costliest distinct wait and running events, globally and per module.
    When {!Provenance.enabled} is false the provenance is
    {!Provenance.empty_impact}, at no extra work. *)

val ia_run : result -> float
(** Fraction in [\[0,1\]]. *)

val ia_wait : result -> float
val ia_opt : result -> float

val propagation_ratio : result -> float
(** [d_wait /. d_waitdist]; 0 when no distinct waits. *)

val merge : result -> result -> result
(** Combine results from disjoint instance sets. Sound only when the two
    results were measured over different streams (distinct-wait dedup
    never crosses streams). *)

(** {1 Per-module breakdown}

    The analyst's next question after the headline metrics: {e which}
    component carries the impact. Costs are attributed to the module part
    of the event's topmost matching signature (e.g. ["fs.sys"]). *)

type module_row = {
  module_name : string;
  m_wait : Dputil.Time.t;  (** Top-level wait time attributed here. *)
  m_waitdist : Dputil.Time.t;  (** …deduplicated across instances. *)
  m_run : Dputil.Time.t;
  m_counted_waits : int;
  m_max_wait : Dputil.Time.t;  (** Largest single attributed wait. *)
}

val by_module : Component.t -> Dpwaitgraph.Wait_graph.t list -> module_row list
(** Same counting rules as {!analyze_graphs_prov}, broken down per module;
    sorted by [m_wait] descending. *)

val measure :
  ?slow:(string -> (Dptrace.Scenario.instance -> bool) option) ->
  Component.t ->
  Dpwaitgraph.Wait_graph.t list ->
  result
  * Provenance.impact
  * module_row list
  * (string * result) list
  * (string * (result * Provenance.impact)) list
(** {!analyze_graphs_prov}, {!by_module} and each scenario's impact from
    one traversal of each graph: one BFS for the top-level waits plus one
    pass over the nodes for running time. The two functions above are
    projections of this pass, so their results agree by construction.
    The fourth component is the impact of each scenario's graphs alone,
    in first-appearance order: a wait that two scenarios' instances reach
    is distinct in each one's [d_waitdist], and once in the whole's.

    [slow name], looked up once per scenario, selects the scenario's slow
    class, if it has one (default: none does). The last component lists,
    in the same order, each scenario with a class and
    [analyze_graphs_prov] of the graphs in it, measured in the same
    traversal with the class's own distinct waits and reservoirs.

    The distinct waits and runs are tallied per stream, by event id, in
    a per-domain scratch of int arrays: with provenance on, a repeat
    visit is two int updates (multiplicity, first graph), and records
    are built only for the events that make a reservoir's top-K. *)

type module_table
(** Breakdowns measured over {e disjoint streams}, being combined (sums,
    max of maxes); exact for the same reason {!merge} is. A report
    merges its per-stream breakdowns, fresh or cached, into one. *)

val module_table : unit -> module_table

val add_modules : module_table -> module_row list -> unit

val module_rows : module_table -> module_row list
(** The combined rows, in {!by_module}'s sort. *)

val module_propagation_ratio : module_row -> float
(** [m_wait /. m_waitdist] — how widely this module's waits propagate. *)
