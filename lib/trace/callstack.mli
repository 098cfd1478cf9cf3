(** Callstacks: sequences of signatures, {e topmost frame first}.

    The topmost frame is the innermost function at the moment the event was
    recorded; the last frame is the thread entry point (e.g.
    ["Browser!TabCreate"]). *)

type t

val of_list : Signature.t list -> t
(** Build from topmost-first frames. *)

val init : int -> (int -> Signature.t) -> t
(** [init depth f] has frame [i] = [f i], topmost first. *)

val frames : t -> Signature.t array
(** Topmost-first frames. Do not mutate: the decoders give every event
    with an equal stack one physical array, within and across streams. *)

val top : t -> Signature.t option
(** Topmost frame; [None] for an empty stack. *)

val depth : t -> int

val equal : t -> t -> bool
