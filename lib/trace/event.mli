(** Tracing events — the four-kind schema of Section 2.1.

    - [Running]: CPU usage sampled at a constant interval (1 ms in ETW);
      [cost] is the sampled running time at that granularity.
    - [Wait]: the thread entered the waiting state at [ts] and stayed
      suspended for [cost] (restored from the paired unwait, Section 3.1).
    - [Unwait]: the running thread signalled thread [wtid] to continue
      (lock release, request completion, …); instantaneous ([cost = 0]).
    - [Hw_service]: a hardware operation with start timestamp and duration,
      recorded on the device's pseudo-thread. *)

type kind = Running | Wait | Unwait | Hw_service

type t = {
  id : int;  (** Dense, unique and timestamp-ordered within a stream. *)
  kind : kind;
  stack : Callstack.t;  (** [e.S] — callstack, topmost frame first. *)
  ts : Dputil.Time.t;  (** [e.T] — start timestamp. *)
  cost : Dputil.Time.t;  (** [e.C] — duration. *)
  tid : int;  (** [e.TID] — thread that triggered the event. *)
  wtid : int;  (** [e.WTID] — thread being unwaited; [-1] unless [Unwait]. *)
}

val end_ts : t -> Dputil.Time.t
(** [ts + cost]. *)

val is_wait : t -> bool
val is_unwait : t -> bool
val is_running : t -> bool

val kind_to_string : kind -> string
val kind_of_string : string -> kind option
