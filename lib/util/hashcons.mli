(** Generic hash-consing: map each distinct value to one canonical
    physical representative carrying a dense non-negative id.

    Where {!Interner} interns strings, this interns arbitrary keys under a
    caller-supplied content equality/hash — the mining engine uses it to
    intern Signature Set Tuples so pattern tables can be keyed by a dense
    int with O(1) equality instead of re-hashing three signature arrays
    per probe.

    Tables are domain-safe: interning from several pool workers at once is
    serialised on an internal mutex (ids are handed out under the lock, so
    a value interned by one domain is visible, with the same id, to every
    other). Ids are dense and stable for the table's lifetime, but their
    numeric order depends on first-sight order — deterministic output must
    never sort by id. *)

module type KEY = sig
  type t

  val equal : t -> t -> bool
  (** Content equality. Must ignore the id slot of [t], if any. *)

  val hash : t -> int
  (** Content hash, consistent with [equal]. *)
end

module Make (K : KEY) : sig
  type t

  val create : ?capacity:int -> unit -> t

  val intern : t -> K.t -> build:(int -> K.t) -> K.t
  (** [intern t probe ~build] returns the canonical value content-equal to
      [probe], calling [build id] exactly once on first sight to construct
      it (the result must be content-equal to [probe]; [probe] itself is
      never retained, so it may alias reusable scratch buffers). *)

  val size : t -> int
  (** Number of distinct values interned so far. *)
end
