type lock = { lock_uid : int; lock_name : string }

type device = {
  device_uid : int;
  device_tid : int;
  device_name : string;
  device_sig : Dptrace.Signature.t;
}

type service = {
  service_uid : int;
  service_name : string;
  worker_stack : Dptrace.Signature.t list;
}

type step =
  | Compute of { frame : Dptrace.Signature.t option; dur : Dputil.Time.t }
  | Call of { frame : Dptrace.Signature.t; body : step list }
  | Locked of {
      lock : lock;
      acquire_frames : Dptrace.Signature.t list;
      body : step list;
    }
  | Hw_request of {
      device : device;
      dur : Dputil.Time.t;
      wait_frames : Dptrace.Signature.t list;
    }
  | Request of {
      service : service;
      body : step list;
      wait_frames : Dptrace.Signature.t list;
    }
  | Idle of Dputil.Time.t

let kernel_acquire_lock = Dptrace.Signature.of_string "kernel!AcquireLock"
let kernel_wait_for_object = Dptrace.Signature.of_string "kernel!WaitForObject"
let kernel_worker = Dptrace.Signature.of_string "kernel!Worker"

let compute ?frame dur = Compute { frame; dur }
let call frame body = Call { frame; body }

let locked ?(acquire_frames = [ kernel_acquire_lock ]) lock body =
  Locked { lock; acquire_frames; body }

let hw ?(wait_frames = [ kernel_wait_for_object ]) device dur =
  Hw_request { device; dur; wait_frames }

let request ?(wait_frames = [ kernel_wait_for_object ]) service body =
  Request { service; body; wait_frames }

let idle dur = Idle dur

let seq blocks = List.concat blocks
