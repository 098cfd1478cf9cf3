(** Glob-style wildcard matching for component filters.

    The paper selects components by name patterns such as ["*.sys"] applied
    to function signatures (Section 5.1). Supported metacharacters: ['*']
    matches any (possibly empty) substring and ['?'] matches exactly one
    character. Matching is case-insensitive, as Windows module names are. *)

type t
(** A compiled pattern. *)

val compile : string -> t
(** Compile a pattern; total (never raises). *)

val matches : t -> string -> bool
(** [matches p s] tests [s] against [p]. *)

val matches_any : t list -> string -> bool
(** True if any pattern in the list matches. *)
