(** Contrast pattern mining (Section 4.2.3).

    Three steps over the fast-class and slow-class Aggregated Wait Graphs:

    + {b meta-pattern enumeration}: Signature Set Tuples of all path
      segments of length 1..k, with [P.C]/[P.N] aggregated over segments
      sharing a tuple — bounding the length keeps mining tractable and
      loses no patterns, since longer behaviours decompose into their
      bounded sub-segments;
    + {b contrast discovery}: a meta-pattern is a contrast when it appears
      only in the slow class, or appears in both with a per-occurrence
      cost ratio above [T_slow / T_fast];
    + {b pattern selection}: every full slow-class path whose tuple
      contains some contrast meta-pattern becomes a contrast pattern;
      identical tuples merge their [P.C] and [P.N]. Patterns are ranked by
      average execution cost [P.C/P.N], highest impact first.

    The miner enumerates segments incrementally — per-role sorted
    multiset scratches updated in O(log n) as the walk extends or
    retracts a segment, hash-consed tuples frozen once per distinct
    (hash, content) per root, tables keyed by dense tuple ids — on one
    domain, and replaces the exhaustive metas × paths subset scan of
    step 3 with an inverted signature index (each contrast meta indexed
    under its rarest signature; candidates generated from the signatures
    a path actually contains, then subset-verified in original meta
    order). Its {!result}s are bit-identical to the naive algorithms'
    (the test suite keeps those as the oracle) — including provenance
    witness sets, whose truncating unions are order-sensitive and
    therefore applied in naive segment order. A report mines each
    scenario on one domain; only different scenarios run in parallel. *)

type meta = {
  tuple : Tuple.t;
  cost : Dputil.Time.t;
  count : int;
  m_witnesses : Provenance.Wset.t;
      (** Instances supporting the segments merged into this meta (empty
          unless {!Provenance.enabled}). *)
}

type contrast_reason =
  | Slow_only
  | Cost_ratio of float  (** Per-occurrence slow/fast cost ratio. *)

type contrast_meta = {
  cm_meta : meta;
  reason : contrast_reason;
  cm_fast_witnesses : Provenance.Wset.t;
      (** Fast-class instances the same tuple matched — the other side of
          a [Cost_ratio] contrast; empty for [Slow_only]. *)
}

type pattern = {
  tuple : Tuple.t;
  cost : Dputil.Time.t;  (** [P.C] — Σ end-node cost of merged paths. *)
  count : int;  (** [P.N]. *)
  max_single : Dputil.Time.t;
      (** Largest single observed execution of the behaviour, measured at
          the {e root} of the merged paths (the top-level wait the pattern
          explains); drives the automated high-impact classification of
          Section 5.2.1, which asks whether some execution exceeded
          [T_slow]. *)
  witnesses : Provenance.Wset.t;
      (** Slow-class instances supporting the merged paths' leaves, with
          per-instance contributed cost. *)
  fast_witnesses : Provenance.Wset.t;
      (** Fast-class instances matched by the contrast metas this pattern
          contains. *)
}

val make_pattern :
  tuple:Tuple.t ->
  cost:Dputil.Time.t ->
  count:int ->
  max_single:Dputil.Time.t ->
  pattern
(** A pattern with empty witness sets — for tests and synthetic tables. *)

type result = {
  contrast_metas : contrast_meta list;
  patterns : pattern list;  (** Ranked by [avg_cost], descending. *)
  fast_meta_count : int;
  slow_meta_count : int;
}

val default_k : int
(** 5, the paper's segment-length bound for all experiments. *)

module Tuple_table : sig
  type 'a t
end

val meta_table : Awg.t -> k:int -> meta Tuple_table.t
(** Step 1's raw table — the body of the [mining.enumerate_tuples] span,
    exposed so the stage can be timed without the diagnostic sort of
    {!enumerate_metas}. *)

val enumerate_metas : Awg.t -> k:int -> meta list
(** Step 1 alone, sorted by tuple (exposed for tests and ablations). *)

val select_patterns :
  slow:Awg.t -> contrast_metas:contrast_meta list -> pattern list
(** Step 3 alone (exposed for timing): inverted-index candidate
    generation + subset verification over the slow class's full paths. *)

val mine :
  ?k:int ->
  fast:Awg.t ->
  slow:Awg.t ->
  spec:Dptrace.Scenario.spec ->
  unit ->
  result
(** Run all three steps. The contrast ratio threshold is
    [spec.tslow / spec.tfast]. *)

val avg_cost : pattern -> float
(** [P.C/P.N] in microseconds — the ranking key. *)

val pp_pattern : Format.formatter -> pattern -> unit
