(** Function signatures.

    A signature is a ["module!function"] string, e.g.
    ["fv.sys!QueryFileTable"] or ["kernel!AcquireLock"], as recorded on ETW
    callstack frames. Signatures are interned process-wide: a [t] is a dense
    id, cheap to hash, compare and store in sets. Hardware services carry a
    dummy signature with no ['!'] (e.g. ["DiskService"]), per Definition 3. *)

type t
(** An interned signature id. *)

val of_string : string -> t
(** Intern a signature. *)

val of_span : string -> pos:int -> len:int -> t
(** [of_span data ~pos ~len] interns the [len] bytes of [data] from
    [pos], copying them only the first time the calling domain sees
    them. *)

val name : t -> string
(** Full ["module!function"] text. *)

val module_part : t -> string
(** Text before the first ['!']; the whole name if there is none (hardware
    dummy signatures). For ["fv.sys!QueryFileTable"] this is ["fv.sys"]. *)

val function_part : t -> string
(** Text after the first ['!']; [""] for dummy signatures. *)

val make : module_name:string -> function_name:string -> t
(** [make ~module_name ~function_name] interns
    ["module_name!function_name"]. *)

val hw_service : string -> t
(** Dummy signature for a hardware service, e.g. [hw_service "DiskService"].
    Same as [of_string] but documents intent. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val to_int : t -> int
(** The dense id; stable for the process lifetime. *)

val of_int_unsafe : int -> t
(** Inverse of [to_int]; the caller asserts the id came from [to_int]. *)

val matches : Dputil.Wildcard.t list -> t -> bool
(** [matches patterns s] tests the {e module part} of [s] against the
    component filters, the paper's component-selection rule (e.g. pattern
    ["*.sys"] selects driver frames). *)

val interned_count : unit -> int
(** Number of distinct signatures interned so far (diagnostics). *)
