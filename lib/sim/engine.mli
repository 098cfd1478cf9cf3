(** The discrete-event kernel simulator.

    An engine owns a clock, a calendar of pending actions, and the traced
    entities (threads, locks, devices, services). Running it to completion
    interprets every spawned thread's {!Program.step} list under real FIFO
    lock semantics and device queueing, and produces a {!Dptrace.Stream.t}
    in the paper's event schema.

    Scheduling model: by default CPU capacity is unbounded (no run-queue
    contention) — the phenomena under study flow through locks and
    hardware, and the paper measures driver CPU at only ~1.6 %. Passing
    [~cores:n] instead models [n] cores with a non-preemptive FIFO run
    queue: a compute span waits for a free core, the queueing delay is
    recorded as a wait event whose topmost frame is ["kernel!CpuQueue"]
    (unwaited by the thread that released the core), so CPU pressure shows
    up in scenario durations without polluting driver-wait metrics.
    Running events are emitted one per compute span with their cost
    floor-quantised to the sampling period (default 1 ms), mirroring ETW's
    sampling granularity: compute bursts shorter than the period leave no
    running event, exactly like a sampling profiler that never fires
    inside them.

    Determinism: engines contain no randomness; identical inputs produce
    identical streams. Simultaneous actions run in scheduling order. *)

type t

exception Deadlock of string
(** Raised by {!run} when the calendar drains while threads are still
    blocked; the message lists the stuck threads and held locks. *)

val create :
  ?sample_period:Dputil.Time.t ->
  ?quantize_running:bool ->
  ?cores:int ->
  stream_id:int ->
  unit ->
  t
(** [sample_period] defaults to 1 ms; [quantize_running] defaults to
    [true]; [cores] defaults to unbounded CPU capacity (see the scheduling
    model above). @raise Invalid_argument if [cores < 1]. *)

val new_lock : t -> name:string -> Program.lock

val new_device : t -> name:string -> signature:Dptrace.Signature.t -> Program.device
(** Creates the device and its pseudo-thread (which records hardware-service
    events and unwaits requesters). The device serves FIFO: a request's
    completion time is [max now free_at + dur]. *)

val new_service :
  t -> name:string -> worker_stack:Dptrace.Signature.t list -> Program.service
(** A service spawns one fresh worker thread per {!Program.Request}. *)

val spawn :
  t ->
  ?scenario:string ->
  ?start_at:Dputil.Time.t ->
  name:string ->
  base_stack:Dptrace.Signature.t list ->
  Program.step list ->
  int
(** Register a thread; returns its tid. When [scenario] is given the thread
    is an initiating thread and its lifetime [\[start_at, completion\]]
    becomes a scenario instance of that name. [base_stack] is topmost
    first (e.g. [\["Browser!TabCreate"\]]). *)

val run : t -> Dptrace.Stream.t
(** Run the simulation to completion and build the stream. Can be called
    once per engine.
    @raise Deadlock if blocked threads remain when the calendar drains. *)
