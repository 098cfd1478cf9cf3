(** Minimal JSON construction.

    A tiny value AST plus a deterministic printer — enough for the
    machine-readable twins of the report tables ([driveperf report
    --json], [analyze --json]) without an external dependency. Object
    member order is preserved as given, numbers print via OCaml's
    shortest-roundtrip float formatting (integers stay integral), and
    strings are escaped per RFC 8259, so equal values always serialise
    to equal bytes — diffable output. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Defer of (unit -> t)
      (** A subtree built only when the printer reaches it, and dropped
          once printed: a large document need never be held whole. It
          prints as the value it returns; the printer calls it once per
          print. *)

val str : string -> t
val int : int -> t
val float : float -> t
(** Non-finite floats serialise as [null] (JSON has no NaN/inf). *)

val time : Time.t -> t
(** Microsecond count as an integer. *)

val to_string : ?minify:bool -> t -> string
(** Serialise. Default is pretty-printed with two-space indentation and
    a trailing newline; [~minify:true] emits one line, no spaces. *)

val output : ?minify:bool -> out_channel -> t -> unit
(** Write exactly the bytes of {!to_string}, streamed through a bounded
    buffer: a large document is never held whole as a string. *)
