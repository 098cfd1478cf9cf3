(** Callstacks: sequences of signatures, {e topmost frame first}.

    The topmost frame is the innermost function at the moment the event was
    recorded; the last frame is the thread entry point (e.g.
    ["Browser!TabCreate"]). *)

type t

val of_list : Signature.t list -> t
(** Build from topmost-first frames. *)

val of_strings : string list -> t
(** Convenience: intern each frame text, topmost first. *)

val frames : t -> Signature.t array
(** Topmost-first frames. Do not mutate: decoded stacks are shared. *)

(** {1 Sharing equal stacks}

    A stream's events use few distinct stacks, so the decoders give every
    event of one stream with the same stack one physical array. *)

type table
(** The stacks seen so far in one stream's decode, by encoded form. Each
    decode makes its own, so pooled decoding takes no lock. *)

val table : unit -> table

val shared : table -> string -> (unit -> t) -> t
(** [shared tbl key build] is the stack recorded under [key], or else
    [build ()], recorded under [key]. [key] is the stack's encoded form in
    the input (the raw frames token, or the stack's bytes within a frame),
    so equal keys mean equal stacks and [build] runs once per distinct
    stack. *)

val top : t -> Signature.t option
(** Topmost frame; [None] for an empty stack. *)

val depth : t -> int

val push : Signature.t -> t -> t
(** [push f s] adds [f] as the new topmost frame. *)

val contains : Signature.t -> t -> bool

val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit
