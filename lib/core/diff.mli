(** Pattern-set differencing across analysis runs.

    The paper closes by noting that a discovered pattern "as a generalized
    representation is a clue for similar cases" — analysts re-run the
    analysis after a fix, or on the next fleet snapshot, and ask what
    changed. This module compares two ranked pattern sets (same scenario,
    two corpora: before/after a driver fix, two OS builds, …) by matching
    Signature Set Tuples. *)

type change =
  | Appeared  (** Present only in the new run. *)
  | Disappeared  (** Present only in the old run — e.g. a fixed problem. *)
  | Regressed of float  (** Avg cost grew by this factor (> threshold). *)
  | Improved of float  (** Avg cost shrank by this factor (> threshold). *)
  | Stable

type entry = {
  tuple : Tuple.t;
  before : Mining.pattern option;
  after : Mining.pattern option;
  change : change;
}

val compare_patterns :
  ?threshold:float ->
  ?min_support:int ->
  before:Mining.pattern list ->
  after:Mining.pattern list ->
  unit ->
  entry list
(** Match by tuple; [threshold] (default 1.5) is the avg-cost ratio beyond
    which a pattern counts as regressed/improved. [min_support] (default
    1, i.e. off) is an instance-count floor on the side carrying the
    claim: an [Appeared]/[Regressed]/[Improved] verdict needs the {e
    after} pattern to cover at least that many instances, a
    [Disappeared] verdict needs it of the {e before} pattern; entries
    below the floor classify as [Stable] so one-off patterns cannot
    raise alarms. The result is sorted: regressions (largest factor
    first), then appearances, disappearances, improvements, and stable
    entries; ties break by {!Tuple.compare}. *)

val fixed : entry list -> entry list
(** Disappeared + improved entries. *)

val summary : entry list -> string
(** One line: "+3 appeared, 2 regressed, 5 fixed, 14 stable". *)

val pp_entry : Format.formatter -> entry -> unit

(** {1 Machine-readable twin}

    One schema shared by [driveperf diff --json] and the monitor's alert
    log, written with the deterministic {!Dputil.Jsonw} writer. *)

val change_kind : change -> string
(** ["appeared"] / ["disappeared"] / ["regressed"] / ["improved"] /
    ["stable"]. *)

val json_entry : entry -> Dputil.Jsonw.t
(** [{"tuple":..,"change":..,"factor":..,"before":..,"after":..}]; the
    factor is [null] except for regressed/improved, each side is [null]
    or [{"cost":us,"count":n,"avg_cost_us":f,"max_single":us}]. *)

val json_document :
  scenario:string ->
  threshold:float ->
  min_support:int ->
  entry list ->
  Dputil.Jsonw.t
(** The full diff document:
    [{"tool":"driveperf","kind":"diff","scenario":..,"threshold":..,
    "min_support":..,"summary":{..},"entries":[..]}]. *)
