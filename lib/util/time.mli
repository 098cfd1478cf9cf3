(** Integer time in microseconds.

    ETW timestamps have 100 ns resolution; the analysis in the paper works at
    millisecond scale. Microseconds keep every quantity of interest exactly
    representable in an OCaml [int] (2^62 µs is ~146,000 years) and avoid all
    floating-point drift in aggregation. *)

type t = int
(** A timestamp or a duration, in microseconds. *)

val us : int -> t
(** [us n] is [n] microseconds. *)

val ms : int -> t
(** [ms n] is [n] milliseconds. *)

val sec : int -> t
(** [sec n] is [n] seconds. *)

val of_ms_float : float -> t
(** Convert a float number of milliseconds, rounding to nearest µs. *)

val to_ms_float : t -> float
(** Duration expressed as float milliseconds. *)

val to_sec_float : t -> float

val round_to : t -> granularity:t -> t
(** [round_to d ~granularity] rounds [d] up to a positive multiple of
    [granularity]; models sampling-period quantisation. Requires
    [granularity > 0]. A zero or negative duration rounds to one period. *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit, e.g. ["803.2ms"]. *)

val to_string : t -> string
