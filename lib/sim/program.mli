(** Thread behaviour programs for the kernel simulator.

    A simulated thread interprets a [step list]. Steps model exactly the
    interaction kinds the paper identifies as sources of cost propagation:

    - {b call dependency}: [Call] pushes a stack frame around a body — used
      both for in-driver routines and for cross-driver calls on the driver
      stack ([IoCallDriver]-style);
    - {b lock contention}: [Locked] runs its body holding a FIFO kernel
      lock; contending threads block with a wait event and are unwaited by
      the releasing holder;
    - {b hardware service}: [Hw_request] blocks on a FIFO device and is
      unwaited by the device's pseudo-thread, which records the
      hardware-service event;
    - {b system-service call}: [Request] hands a body to a fresh worker
      thread of a service (e.g. the kernel worker pool) and blocks until
      the worker completes and unwaits the requester.

    Handles ([lock], [device], [service]) are created by {!Engine} and are
    only valid in the engine that created them. *)

type lock = { lock_uid : int; lock_name : string }

type device = {
  device_uid : int;
  device_tid : int;  (** Pseudo-thread recording hardware-service events. *)
  device_name : string;
  device_sig : Dptrace.Signature.t;  (** Dummy signature, e.g. "DiskService". *)
}

type service = {
  service_uid : int;
  service_name : string;
  worker_stack : Dptrace.Signature.t list;
      (** Base stack of spawned workers, topmost first
          (e.g. [\["kernel!Worker"\]]). *)
}

type step =
  | Compute of { frame : Dptrace.Signature.t option; dur : Dputil.Time.t }
      (** Run on CPU for [dur]; the optional frame is pushed for the span. *)
  | Call of { frame : Dptrace.Signature.t; body : step list }
  | Locked of {
      lock : lock;
      acquire_frames : Dptrace.Signature.t list;
          (** Extra topmost frames on the wait stack while blocked. *)
      body : step list;
    }
  | Hw_request of {
      device : device;
      dur : Dputil.Time.t;  (** Pure service time; queueing adds on top. *)
      wait_frames : Dptrace.Signature.t list;
    }
  | Request of {
      service : service;
      body : step list;
      wait_frames : Dptrace.Signature.t list;
    }
  | Idle of Dputil.Time.t
      (** Untraced inactivity (user think time, unrelated work). *)

(** {1 Well-known kernel frames} *)

val kernel_worker : Dptrace.Signature.t
(** ["kernel!Worker"] — conventional worker-pool base frame. *)

(** {1 Builders} *)

val compute : ?frame:Dptrace.Signature.t -> Dputil.Time.t -> step
val call : Dptrace.Signature.t -> step list -> step

val locked : ?acquire_frames:Dptrace.Signature.t list -> lock -> step list -> step
(** Default [acquire_frames] is [\[kernel_acquire_lock\]]. *)

val hw : ?wait_frames:Dptrace.Signature.t list -> device -> Dputil.Time.t -> step
(** Default [wait_frames] is [\[kernel_wait_for_object\]]. *)

val request : ?wait_frames:Dptrace.Signature.t list -> service -> step list -> step
(** Default [wait_frames] is [\[kernel_wait_for_object\]]. *)

val idle : Dputil.Time.t -> step

val seq : step list list -> step list
(** Concatenate step blocks. *)
