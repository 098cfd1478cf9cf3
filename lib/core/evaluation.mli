(** Evaluation metrics for the causality analysis (Section 5.2).

    - {b High-impact rule} (RQ1): a contrast pattern is high-impact when at
      least one of its recorded executions exceeds [T_slow] — such a
      pattern provably can constitute the perceived degradation by itself.
    - {b ITC / TTC} (Table 2): execution-time coverage of the high-impact
      patterns (resp. all patterns) over the total device-driver time in
      the slow class.
    - {b Ranking coverage} (Table 3): execution-time coverage of the top
      n % patterns under the [P.C/P.N] ranking, over all discovered
      patterns — how much inspection effort the ranking saves.
    - {b Driver-type categorisation} (Table 4): which driver types appear
      in the top-10 patterns of each scenario. *)

val high_impact : Mining.pattern -> tslow:Dputil.Time.t -> bool

type coverages = {
  driver_cost : Dputil.Time.t;
      (** Total device-driver time in the slow class (the denominator). *)
  impactful_cost : Dputil.Time.t;  (** Σ [P.C] of high-impact patterns. *)
  total_pattern_cost : Dputil.Time.t;  (** Σ [P.C] of all patterns. *)
  itc : float;
  ttc : float;
}

val time_coverages :
  Mining.pattern list -> tslow:Dputil.Time.t -> driver_cost:Dputil.Time.t -> coverages

val ranking_coverage : Mining.pattern list -> top_fraction:float -> float
(** [ranking_coverage ps ~top_fraction] — the patterns must already be
    ranked (as {!Mining.mine} returns them); takes the first
    ⌈fraction·n⌉ and returns their share of Σ [P.C]. *)

val driver_type_counts :
  Mining.pattern list ->
  top_n:int ->
  type_of:(Dptrace.Signature.t -> string option) ->
  (string * int) list
(** For Table 4: among the top [n] patterns, how many patterns mention at
    least one signature of each driver type. Sorted by descending count,
    then name. *)
