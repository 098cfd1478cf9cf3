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

val skip_str : cursor -> unit
(** Step over a string, with {!rstr}'s checks, without copying it. *)

val rcount : cursor -> int
(** An element count. Every element takes at least one byte, so a count
    above the bytes left is refused before anything is allocated for it.
    @raise Corrupt when the count exceeds the remaining input. *)

val rlist : cursor -> (cursor -> 'a) -> 'a list
(** A {!rcount}-prefixed list, elements read in order. *)

val r32 : cursor -> int
(** Inverse of {!w32}: an unsigned value in [0, 2{^32}).
    @raise Corrupt on truncation. *)

val crc : ?crc:int -> cursor -> int -> int
(** [crc cur n] is the {!Dputil.Crc32} of the [n] bytes at [cur],
    chained onto [crc]; the cursor does not move. *)

(** {1 Reading a file through a window}

    The one buffered reader of the framed file formats (the v2 corpus
    and the snapshot cache): a buffer over a file of known size that
    starts at 64 KB (or the file's size, if smaller) and grows only to
    the largest span asked for, never past the file's size. *)

type window

val window : size:int -> (int -> Bytes.t -> int -> int -> int) -> window
(** [window ~size read] reads a file of [size] bytes, where
    [read pos buf off len] reads up to [len] bytes from file offset
    [pos] into [buf] at [off] and returns the count, 0 at end of file. *)

val fill : window -> int -> int -> int
(** [fill w pos n] makes up to [n] bytes from file offset [pos]
    resident and returns how many are: [n] clamped to the bytes the file
    has left, which is checked before the buffer grows, or fewer if the
    file is cut under the reader. A short count is for the caller to
    judge. *)

val at : window -> int -> cursor
(** A cursor at file offset [pos], which the last {!fill} made resident;
    valid until the next {!fill}. *)
