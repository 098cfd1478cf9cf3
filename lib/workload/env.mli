(** A simulated machine: the engine plus the shared kernel objects that
    device drivers synchronise on. One environment backs one trace
    stream. *)

type t = {
  engine : Dpsim.Engine.t;
  (* Kernel locks owned by drivers. *)
  file_table : Dpsim.Program.lock;  (** fv.sys File Table entries. *)
  mdu : Dpsim.Program.lock;  (** fs.sys Meta Data Units. *)
  av_db : Dpsim.Program.lock;  (** av.sys inspection database. *)
  gpu_res : Dpsim.Program.lock;  (** graphics.sys GPU resources. *)
  cache : Dpsim.Program.lock;  (** ioc.sys cache directory. *)
  dp_gate : Dpsim.Program.lock;  (** dp.sys I/O gate (motion protection). *)
  backup : Dpsim.Program.lock;  (** bk.sys snapshot region. *)
  (* Hardware devices (FIFO queueing). *)
  disk : Dpsim.Program.device;
  net : Dpsim.Program.device;
  gpu : Dpsim.Program.device;
  input : Dpsim.Program.device;  (** HID report stream (mouse). *)
  (* System services. *)
  sys_worker : Dpsim.Program.service;  (** Kernel worker pool. *)
  av_queue : Dpsim.Program.lock;
      (** The singleton security-software inspection queue — an
          application-level lock (waits on it carry no driver frames), the
          architecture Section 5.2.4 points at: all interception requests
          funnel through one process, so one stuck inspection propagates
          its driver waits to every queued scenario instance. *)
  app_main : Dpsim.Program.lock;
      (** The primary application's main-loop serialisation (message queue
          / single-threaded apartment). Like [av_queue], waits on it carry
          app frames only; heavy operations funnelled through it make one
          thread's driver waits count against every queued instance —
          the dominant sharing mechanism behind the paper's
          [D_wait/D_waitdist ≈ 3.5]. *)
  net_io : Dpsim.Program.lock;
      (** The shared network-I/O completion queue: concurrent fetches
          serialise through the protocol stack, so one in-flight request's
          device wait is observed by every pending request. *)
}

val create : Dpsim.Engine.t -> t
(** Register the machine objects on a fresh engine. *)
