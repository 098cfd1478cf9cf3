(** Byte-level wire primitives shared by every binary driveperf format:
    the framed corpus codec ({!Codec_v2}), snapshot-cache records and AWG
    partials.

    Integers are unsigned LEB128 varints ([wv]/[rv]), strings a varint
    length followed by the bytes ([wstr]/[rstr]), lists a varint count
    followed by the elements ([rlist]); framing fields are fixed-width
    little-endian u32 ([w32]/[r32]). Decoding rejects any varint that
    would overflow a non-negative 63-bit [int] (bit 62 and beyond), so no
    crafted encoding can smuggle a negative [ts]/[cost]/[tid] past the
    writer-side invariants. *)

exception Corrupt of string
(** Raised on truncated or malformed input. *)

val corrupt : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [corrupt fmt ...] raises {!Corrupt} with the formatted message. *)

(** {1 Writing} *)

val w8 : Buffer.t -> int -> unit

val wv : Buffer.t -> int -> unit
(** @raise Corrupt on a negative value. *)

val wstr : Buffer.t -> string -> unit

val w32 : Buffer.t -> int -> unit
(** The low 32 bits, little-endian. *)

(** {1 Reading} *)

type cursor = { data : string; mutable pos : int }

val cursor : string -> cursor
val at_end : cursor -> bool

val need : cursor -> int -> unit
(** @raise Corrupt unless [n] more bytes are available. *)

val r8 : cursor -> int

val rv : cursor -> int
(** @raise Corrupt on truncation or overflow; the result is always
    non-negative. *)

val rstr : cursor -> string

val rlist : cursor -> (cursor -> 'a) -> 'a list
(** @raise Corrupt when the count exceeds the input length. *)

val r32 : cursor -> int
(** Inverse of {!w32}: an unsigned value in [0, 2{^32}).
    @raise Corrupt on truncation. *)
