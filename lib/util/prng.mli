(** Deterministic, splittable pseudo-random number generator.

    The whole reproduction is seeded: every stochastic component receives an
    explicit generator, so a corpus is a pure function of one 64-bit seed.
    The core is SplitMix64 (Steele, Lea & Flood, OOPSLA'14), which has a
    cheap, well-distributed [split] making it easy to give independent
    sub-streams to independently generated entities (per trace stream, per
    scenario instance, per thread). *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] makes a fresh generator from a 64-bit seed. *)

val of_int : int -> t
(** [of_int seed] is [create (Int64.of_int seed)]. *)

val split : t -> t
(** [split g] draws from [g] and returns an independent generator; [g]
    advances. Sub-streams obtained by successive splits are independent. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g bound] draws uniformly in [\[0, bound)]. Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in g lo hi] draws uniformly in [\[lo, hi\]] (inclusive).
    Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float g bound] draws uniformly in [\[0, bound)]. *)

val chance : t -> float -> bool
(** [chance g p] is true with probability [p] (clamped to [\[0,1\]]). *)

val lognormal : t -> median:float -> sigma:float -> float
(** Log-normal draw: [exp (mu + sigma * z)] with [mu = log median]. Heavy
    right tail; the standard model for service-time outliers. *)

val choose : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val choose_weighted : t -> (float * 'a) list -> 'a
(** Weighted choice; weights must be non-negative with a positive sum. *)
