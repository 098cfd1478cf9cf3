(** Statistical robustness of the impact metrics.

    The paper reports point estimates over one (very large) corpus. Our
    corpora are smaller, so the bench reports bootstrap confidence
    intervals: trace streams are resampled with replacement and the impact
    metrics recomputed per replicate. Resampling at stream granularity is
    sound because the distinct-wait deduplication never crosses streams,
    so a replicate merges per-stream {!Impact.result}s that the analysis
    already measured ({!Pipeline.report}[.streams], cached or not). *)

type ci = {
  point : float;  (** Metric on the full corpus. *)
  mean : float;  (** Bootstrap mean. *)
  lo : float;  (** 2.5th percentile. *)
  hi : float;  (** 97.5th percentile. *)
}

type t = {
  ia_wait : ci;
  ia_run : ci;
  ia_opt : ci;
  propagation_ratio : ci;
  replicates : int;
}

val bootstrap : ?replicates:int -> ?seed:int -> Impact.result list -> t
(** Resample the per-stream impacts, given in corpus stream order.
    [replicates] defaults to 200; [seed] (default 1) makes the resampling
    deterministic. IA metrics are expressed as fractions in [\[0,1\]].
    With no streams every interval degenerates to 0.
    @raise Invalid_argument if [replicates < 1]. *)

val pp : Format.formatter -> t -> unit

val contains : ci -> float -> bool
(** Whether a value lies within [\[lo, hi\]]. *)
