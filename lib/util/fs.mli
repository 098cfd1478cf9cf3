(** File-system helpers shared by the writers of output directories. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents, like [mkdir -p]. A path
    that already exists is left alone, whatever it is.
    @raise Sys_error when a missing component cannot be created. *)
