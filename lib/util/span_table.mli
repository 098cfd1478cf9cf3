(** Strings to values, looked up on a span of bytes where it lies.

    {!find} hashes and compares the span in place, so a lookup that hits
    allocates nothing; only {!add} takes a string of its own. Open
    addressing with linear probing, at most half full. Not thread-safe:
    give each domain its own. *)

type 'a t

val create : unit -> 'a t

val find : 'a t -> string -> int -> int -> int
(** [find t data pos len] is the entry whose key equals the [len] bytes
    of [data] from [pos], or [-1]. *)

val get : 'a t -> int -> 'a
(** The value of an entry {!find} returned. *)

val add : 'a t -> string -> 'a -> unit
(** [add t key v] records [v] under [key], which must equal the span the
    last {!find} on [t] missed. *)
