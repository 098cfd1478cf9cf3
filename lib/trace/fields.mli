(** The one tokenizer of the text inputs, {!Codec}'s [.dpt] corpora and
    {!Etw}'s dumps: a line's fields are byte spans of that line, so a
    keyword is compared in place, an integer read in place, a stack seen
    before is one lookup, and only the names kept are copied out. *)

exception Parse_error of { line : int; message : string }

val fail : int -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [fail line fmt] raises {!Parse_error}. *)

type t
(** The current line and its fields; only the first eight can be read. *)

val read : string -> (t -> string -> unit) -> (int -> t -> unit) -> int
(** [read path split f] splits each line of the file with [split] and
    calls [f] with its number, from 1, in order; returns the lines read.
    @raise Sys_error if the file cannot be read. *)

val words : t -> string -> unit
(** [.dpt]: the trimmed line's words, split on [' '] only. *)

val csv : t -> string -> unit
(** ETW: comma-separated fields, each trimmed; double quotes protect
    commas and are dropped wherever they are. A line whose first
    non-blank byte is ['#'] has no field.
    @raise Parse_error on an unterminated quote. *)

val count : t -> int

val text : t -> string
(** The line as read, after {!words}. *)

val is : t -> int -> string -> bool
(** [is t i s]: field [i] is [s]. *)

val get : t -> int -> string

val int : t -> string -> int -> int
(** [int t what i] reads field [i] as {!int_of_string_opt} would.
    @raise Parse_error ["invalid <what>: <field>"] if it is not one. *)

val stack : t -> empty:string -> int -> Callstack.t
(** Field [i] as [';']-separated frames, topmost first, or the empty
    stack if it is [empty]. Each domain keeps the stacks it built, by
    their bytes; a new one interns its frames in order. *)
