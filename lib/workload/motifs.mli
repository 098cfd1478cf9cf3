(** Problem motifs: reusable behaviour fragments for scenario programs.

    Each motif returns a {!Dpsim.Program.step} list for the calling thread,
    parameterised by the machine environment and a PRNG for realistic
    duration spread. Heavy motifs reproduce the paper's problem classes:
    the fv→fs→se lock-and-dependency chain of Figure 1, singleton security
    inspection (Section 5.2.4 observation 1), remote-content fetches behind
    menus (observation 2), the graphics hard fault (observation 3), and the
    disk-protection by-design blocking (Section 5.2.5's false positive). *)

type ctx = { env : Env.t; prng : Dputil.Prng.t }

(** {1 Duration helpers} *)

val ms_in : ctx -> float -> float -> Dputil.Time.t
(** Uniform draw between two float milliseconds. *)

val service_ms : ctx -> median:float -> Dputil.Time.t
(** Log-normal service time (heavy right tail), median in milliseconds. *)

(** {1 Fast-path motifs (no propagation)} *)

val cached_file_open : ctx -> Dpsim.Program.step list
(** fv.sys table query under its lock, cache hit, ~1–3 ms CPU. *)

val cache_lookup : ctx -> Dpsim.Program.step list
(** ioc.sys lookup under the cache lock; occasionally fills from disk. *)

val mouse_input : ctx -> Dpsim.Program.step list
val policy_check : ctx -> Dpsim.Program.step list

(** {1 I/O motifs} *)

val disk_read : ctx -> dur:Dputil.Time.t -> Dpsim.Program.step list
(** fs.sys read served by a kernel worker hitting the disk. *)

val encrypted_disk_read : ctx -> dur:Dputil.Time.t -> Dpsim.Program.step list
(** Same, via se.sys: disk service then decryption CPU (Figure 1's deepest
    links (1)). *)

val mdu_read : ctx -> dur:Dputil.Time.t -> encrypted:bool -> Dpsim.Program.step list
(** fs.sys!AcquireMDU under the MDU lock around a (possibly encrypted)
    read — the lower contention region of Figure 1. *)

val mdu_write : ctx -> dur:Dputil.Time.t -> encrypted:bool -> Dpsim.Program.step list

val net_fetch : ctx -> dur:Dputil.Time.t -> Dpsim.Program.step list
(** net.sys request straight on the network device (prunable as
    non-optimisable when at root). *)

val net_fetch_served : ctx -> dur:Dputil.Time.t -> Dpsim.Program.step list
(** Network fetch via a kernel worker — propagated cost that survives the
    AWG reduction. *)

val net_fetch_shared : ctx -> dur:Dputil.Time.t -> Dpsim.Program.step list
(** {!net_fetch_served} behind the shared network-I/O queue
    ({!Env.t.net_io}) — cost-sharing across pending fetches. *)

val dns_resolve : ctx -> Dpsim.Program.step list

(** {1 Heavy propagation motifs} *)

val file_table_chain : ctx -> inner:Dpsim.Program.step list -> Dpsim.Program.step list
(** fv.sys!QueryFileTable under the File Table lock around [inner] — the
    upper contention region of Figure 1; with [inner = mdu_read …] this is
    the full motivating chain. *)

val av_inspection : ctx -> dur:Dputil.Time.t -> Dpsim.Program.step list
(** av.sys scan under the singleton inspection database lock, reading
    file content through the MDU path. *)

val gpu_render : ctx -> dur:Dputil.Time.t -> Dpsim.Program.step list
(** graphics.sys rendering under the GPU resource lock. *)

val hard_fault_page_read : ctx -> dur:Dputil.Time.t -> Dpsim.Program.step list
(** A hard page fault inside graphics.sys!InitStruct: a kernel worker
    performs the page read through se.sys (the 4.7 s case of §5.2.4). *)

val disk_protection_halt : ctx -> dur:Dputil.Time.t -> Dpsim.Program.step list
(** dp.sys holds its I/O gate for [dur] (by-design blocking while the
    machine is in motion) — the known false-positive source. *)

val guarded_disk_read : ctx -> dur:Dputil.Time.t -> Dpsim.Program.step list
(** A disk read that must pass the dp.sys gate. *)

val backup_copy_on_write : ctx -> dur:Dputil.Time.t -> Dpsim.Program.step list
(** bk.sys snapshotting under the backup lock with disk writes. *)

val av_serialized : ctx -> dur:Dputil.Time.t -> Dpsim.Program.step list
(** An {!av_inspection} funnelled through the application-level singleton
    inspection queue ({!Env.t.av_queue}) — the cost-sharing motif: the
    holder's driver waits are observed by every queued instance. *)

val app_serialized : ctx -> Dpsim.Program.step list -> Dpsim.Program.step list
(** Funnel steps through the application main loop ({!Env.t.app_main}) —
    the generic cost-sharing wrapper. *)

val direct_disk_read : ctx -> dur:Dputil.Time.t -> Dpsim.Program.step list
(** Blocking straight on the disk — non-optimisable at AWG roots. *)

val direct_gpu_wait : ctx -> dur:Dputil.Time.t -> Dpsim.Program.step list

val acpi_transition : ctx -> Dpsim.Program.step list

val kernel_hard_fault : Dptrace.Signature.t
(** ["kernel!HardFault"] — wait frame of a faulting thread. *)
