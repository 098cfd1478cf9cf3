(** Leveled logging gate, at the bottom of the library stack.

    This is the plumbing only: a severity threshold, a pluggable sink and
    format-string entry points. The user-facing logger ([Obs.Log]) wraps
    this module, installs its sink, and maps [--log-level] /
    [DRIVEPERF_LOG] onto {!set_level}; dputil modules log through here so
    the dependency arrow keeps pointing downwards.

    A call below the threshold does no formatting and no allocation
    beyond what the format string itself forces — debug lines on hot
    paths are one integer comparison when off. *)

type level = Error | Warn | Info | Debug

val set_level : level -> unit
(** Messages strictly less severe than the threshold are dropped.
    Default: {!Warn}. *)

val set_sink : (level -> string -> unit) -> unit
(** Replace the output routine (default: one line on stderr). The sink is
    called under a mutex, so lines from concurrent domains never
    interleave. *)

val level_name : level -> string

val logf : level -> ('a, Format.formatter, unit, unit) format4 -> 'a

val warn : ('a, Format.formatter, unit, unit) format4 -> 'a
val debug : ('a, Format.formatter, unit, unit) format4 -> 'a
