(** Structural validation of trace streams.

    Real traces are messy (truncated sessions, lost events); analysis code
    must tolerate oddities, but the simulator must not produce any. The test
    suite runs every generated stream through [check] and requires a clean
    report; analysis entry points may use it defensively on loaded data. *)

type violation = {
  event_id : int option;  (** Offending event, when applicable. *)
  message : string;
}

val check : Stream.t -> violation list
(** All violations found:
    - events out of timestamp order or with ids not equal to their index;
    - negative costs; non-zero costs on unwaits;
    - [wtid] set on a non-unwait, missing or self-targeting on an unwait;
    - overlapping events on the same thread (a thread is sequential);
    - wait events with no pairing unwait inside their interval;
    - instances with [t1 < t0] or an initiating thread that is neither
      registered nor present in the events. *)

val check_corpus : Corpus.t -> (int * violation) list
(** Violations across all streams, tagged with the stream id. *)

val pp_violation : Format.formatter -> violation -> unit
