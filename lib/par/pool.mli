(** A reusable domain pool for data-parallel analysis.

    The pool owns [domains - 1] worker domains draining one shared task
    queue; the calling domain is the remaining unit of parallelism — it
    helps drain the queue while waiting for its own call to complete, so a
    pool of size [n] applies [n]-way parallelism with [n - 1] spawned
    domains, and a pool of size 1 degenerates to plain [List.map] with no
    domain traffic at all.

    Determinism: {!parallel_map} returns results in input order, whatever
    the scheduling, so a caller that folds them left to right gets
    exactly the sequential result. Reductions are the caller's: the
    analysis maps per-stream parts here and merges them in stream order.

    Exceptions raised by [f] are caught in the workers and re-raised in
    the caller; when several work items fail, the exception of the
    earliest failing chunk (in input order) is the one re-raised. The pool
    itself stays usable after a failed call.

    Telemetry: while [Dpobs.metrics_on ()], the pool maintains the
    [pool.tasks] counter (work items executed), one
    [pool.domain<id>.busy_us] counter per participating domain (time
    spent inside work items — the utilisation numerator) and the
    [pool.queue_depth.max] gauge (peak backlog at enqueue time). With
    metrics off the only cost is one atomic load per task. *)

type t

val create : ?domains:int -> unit -> t
(** [create ?domains ()] spawns a pool of total size [max 1 domains]
    ([domains - 1] worker domains). [domains] defaults to
    {!default_domains}. *)

val size : t -> int
(** Total parallelism of the pool (worker domains + the caller), >= 1. *)

val shutdown : t -> unit
(** Stop and join the worker domains. Idempotent. Only call while no
    [parallel_map] is in flight on the pool. A pool that is never shut
    down does not block process exit; shutting down merely releases the
    domains early. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and shuts it down afterwards,
    also on exception. *)

val parallel_map : ?chunk:int -> t -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map pool f xs] is [List.map f xs], computed in parallel over
    chunks of consecutive elements and returned in input order. [chunk]
    (>= 1) overrides the chunk length, which defaults to splitting the
    list into about [4 * size pool] chunks.
    @raise Invalid_argument if [chunk < 1]. *)

val iter_batched :
  ?pool:t -> ('a -> 'b) -> ('b -> unit) -> (('a -> unit) -> unit) -> unit
(** [iter_batched ?pool f consume feed] calls [feed push]; every item
    pushed is mapped through [f] and its result handed to [consume], in
    push order, on the calling domain. With a pool of size > 1 the items
    are mapped in batches of [4 * size pool], one item per task, and a
    batch is consumed before the next is gathered, so at most one
    batch's items and results are held at once. Without a pool (or with
    a pool of size 1) each item is mapped and consumed as it is pushed.
    An exception from [f] propagates out of the [push] that completed
    its batch. *)

val default_domains : unit -> int
(** The pool size used when [?domains] is omitted: the
    [DRIVEPERF_DOMAINS] environment variable when set to a positive
    integer, otherwise [Domain.recommended_domain_count ()]. *)
