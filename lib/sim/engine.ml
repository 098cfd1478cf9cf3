module Time = Dputil.Time
module Signature = Dptrace.Signature
module Callstack = Dptrace.Callstack
module Event = Dptrace.Event

exception Deadlock of string

(* Minimal binary min-heap of timed actions; ties resolve in insertion
   order so simulation runs are fully deterministic. *)
module Calendar = struct
  type entry = { time : int; seq : int; run : unit -> unit }

  type t = { mutable arr : entry array; mutable size : int; mutable next_seq : int }

  let dummy = { time = 0; seq = 0; run = ignore }

  let create () = { arr = Array.make 256 dummy; size = 0; next_seq = 0 }

  let earlier a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let push t ~time run =
    if t.size = Array.length t.arr then begin
      let fresh = Array.make (2 * t.size) dummy in
      Array.blit t.arr 0 fresh 0 t.size;
      t.arr <- fresh
    end;
    let entry = { time; seq = t.next_seq; run } in
    t.next_seq <- t.next_seq + 1;
    let i = ref t.size in
    t.size <- t.size + 1;
    t.arr.(!i) <- entry;
    (* Sift up. *)
    while !i > 0 && earlier t.arr.(!i) t.arr.((!i - 1) / 2) do
      let parent = (!i - 1) / 2 in
      let tmp = t.arr.(parent) in
      t.arr.(parent) <- t.arr.(!i);
      t.arr.(!i) <- tmp;
      i := parent
    done

  let pop t =
    if t.size = 0 then None
    else begin
      let top = t.arr.(0) in
      t.size <- t.size - 1;
      t.arr.(0) <- t.arr.(t.size);
      t.arr.(t.size) <- dummy;
      (* Sift down. *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.size && earlier t.arr.(l) t.arr.(!smallest) then smallest := l;
        if r < t.size && earlier t.arr.(r) t.arr.(!smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = t.arr.(!smallest) in
          t.arr.(!smallest) <- t.arr.(!i);
          t.arr.(!i) <- tmp;
          i := !smallest
        end
      done;
      Some top
    end
end

type cont_item =
  | Steps of Program.step list
  | Pop_frame
  | Unlock of Program.lock
  | Reply of thread

and thread = {
  tid : int;
  tname : string;
  scenario : string option;
  start_at : Time.t;
  mutable stack : Signature.t list; (* topmost first *)
  mutable cont : cont_item list;
  mutable blocked : bool;
  mutable wait_start : Time.t;
  mutable wait_stack : Callstack.t;
  mutable finished : Time.t option;
}

and cpu_request = {
  cpu_thread : thread;
  cpu_frame : Signature.t option;
  cpu_dur : Time.t;
}

type lock_state = {
  lock : Program.lock;
  mutable holder : int option;
  waiters : thread Queue.t;
}

type device_state = { mutable free_at : Time.t }

(* The wait frame of run-queue delays under [~cores]. *)
let cpu_queue_frame = Signature.of_string "kernel!CpuQueue"

type t = {
  stream_id : int;
  sample_period : Time.t;
  quantize : bool;
  cores : int option;
  mutable cores_busy : int;
  cpu_queue : cpu_request Queue.t;
  calendar : Calendar.t;
  mutable now : Time.t;
  mutable next_tid : int;
  mutable next_uid : int;
  mutable events : Event.t list;
  mutable threads : thread list; (* reversed spawn order *)
  mutable device_threads : (int * string) list;
  locks : (int, lock_state) Hashtbl.t;
  devices : (int, device_state) Hashtbl.t;
  service_spawns : (int, int) Hashtbl.t;
  mutable ran : bool;
}

let create ?(sample_period = Time.ms 1) ?(quantize_running = true) ?cores
    ~stream_id () =
  (match cores with
  | Some n when n < 1 -> invalid_arg "Engine.create: cores must be >= 1"
  | Some _ | None -> ());
  {
    stream_id;
    sample_period;
    quantize = quantize_running;
    cores;
    cores_busy = 0;
    cpu_queue = Queue.create ();
    calendar = Calendar.create ();
    now = 0;
    next_tid = 1;
    next_uid = 0;
    events = [];
    threads = [];
    device_threads = [];
    locks = Hashtbl.create 16;
    devices = Hashtbl.create 8;
    service_spawns = Hashtbl.create 8;
    ran = false;
  }

let fresh_tid t =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  tid

let fresh_uid t =
  let uid = t.next_uid in
  t.next_uid <- uid + 1;
  uid

let new_lock t ~name =
  let lock = { Program.lock_uid = fresh_uid t; lock_name = name } in
  Hashtbl.replace t.locks lock.Program.lock_uid
    { lock; holder = None; waiters = Queue.create () };
  lock

let new_device t ~name ~signature =
  let device_tid = fresh_tid t in
  t.device_threads <- (device_tid, name) :: t.device_threads;
  let device =
    {
      Program.device_uid = fresh_uid t;
      device_tid;
      device_name = name;
      device_sig = signature;
    }
  in
  Hashtbl.replace t.devices device.Program.device_uid { free_at = 0 };
  device

let new_service t ~name ~worker_stack =
  let service =
    { Program.service_uid = fresh_uid t; service_name = name; worker_stack }
  in
  Hashtbl.replace t.service_spawns service.Program.service_uid 0;
  service

let emit t ~kind ~stack ~ts ~cost ~tid ~wtid =
  t.events <- { Event.id = 0; kind; stack; ts; cost; tid; wtid } :: t.events

let schedule t ~time run =
  assert (time >= t.now);
  Calendar.push t.calendar ~time run

let block th frames now =
  th.blocked <- true;
  th.wait_start <- now;
  th.wait_stack <- Callstack.of_list (frames @ th.stack)

(* Finalize the wait event of [sleeper] and record the unwait from the
   waker, then resume the sleeper. Resumption goes through the calendar so
   that a release cascade at one instant stays breadth-first and bounded. *)
let wake t ~waker_tid ~waker_stack sleeper exec =
  assert sleeper.blocked;
  emit t ~kind:Event.Wait ~stack:sleeper.wait_stack ~ts:sleeper.wait_start
    ~cost:(t.now - sleeper.wait_start) ~tid:sleeper.tid ~wtid:(-1);
  emit t ~kind:Event.Unwait
    ~stack:(Callstack.of_list waker_stack)
    ~ts:t.now ~cost:0 ~tid:waker_tid ~wtid:sleeper.tid;
  sleeper.blocked <- false;
  schedule t ~time:t.now (fun () -> exec sleeper)

let emit_running t th frame dur =
  let stack =
    match frame with Some f -> f :: th.stack | None -> th.stack
  in
  let cost = if t.quantize then dur / t.sample_period * t.sample_period else dur in
  if cost > 0 then
    emit t ~kind:Event.Running ~stack:(Callstack.of_list stack) ~ts:t.now ~cost
      ~tid:th.tid ~wtid:(-1)

let lock_state t (lock : Program.lock) =
  match Hashtbl.find_opt t.locks lock.Program.lock_uid with
  | Some ls -> ls
  | None -> invalid_arg ("Engine: foreign lock " ^ lock.Program.lock_name)

let device_state t (device : Program.device) =
  match Hashtbl.find_opt t.devices device.Program.device_uid with
  | Some ds -> ds
  | None -> invalid_arg ("Engine: foreign device " ^ device.Program.device_name)

let make_thread t ?scenario ~name ~base_stack ~start_at cont =
  let th =
    {
      tid = fresh_tid t;
      tname = name;
      scenario;
      start_at;
      stack = base_stack;
      cont;
      blocked = false;
      wait_start = 0;
      wait_stack = Callstack.of_list [];
      finished = None;
    }
  in
  t.threads <- th :: t.threads;
  th

let rec exec t th =
  assert (not th.blocked);
  match th.cont with
  | [] -> th.finished <- Some t.now
  | Pop_frame :: rest ->
    (match th.stack with
    | _ :: deeper -> th.stack <- deeper
    | [] -> assert false);
    th.cont <- rest;
    exec t th
  | Unlock lock :: rest ->
    th.cont <- rest;
    do_unlock t th lock;
    exec t th
  | Reply requester :: rest ->
    th.cont <- rest;
    wake t ~waker_tid:th.tid ~waker_stack:th.stack requester (exec t);
    exec t th
  | Steps [] :: rest ->
    th.cont <- rest;
    exec t th
  | Steps (step :: more) :: rest ->
    th.cont <- Steps more :: rest;
    exec_step t th step

and do_unlock t th (lock : Program.lock) =
  let ls = lock_state t lock in
  (match ls.holder with
  | Some holder when holder = th.tid -> ()
  | _ -> invalid_arg ("Engine: release of a lock not held: " ^ lock.Program.lock_name));
  if Queue.is_empty ls.waiters then ls.holder <- None
  else begin
    let next = Queue.pop ls.waiters in
    ls.holder <- Some next.tid;
    wake t ~waker_tid:th.tid ~waker_stack:th.stack next (exec t)
  end

and start_compute t th frame dur =
  emit_running t th frame dur;
  schedule t
    ~time:(t.now + dur)
    (fun () ->
      release_core t ~by:th;
      exec t th)

and release_core t ~by =
  match t.cores with
  | None -> ()
  | Some _ ->
    t.cores_busy <- t.cores_busy - 1;
    if not (Queue.is_empty t.cpu_queue) then begin
      let req = Queue.pop t.cpu_queue in
      t.cores_busy <- t.cores_busy + 1;
      (* The core hand-off (a context switch): finalize the queued
         thread's CpuQueue wait, unwaited by the thread releasing the
         core. *)
      emit t ~kind:Event.Wait ~stack:req.cpu_thread.wait_stack
        ~ts:req.cpu_thread.wait_start
        ~cost:(t.now - req.cpu_thread.wait_start)
        ~tid:req.cpu_thread.tid ~wtid:(-1);
      emit t ~kind:Event.Unwait
        ~stack:(Callstack.of_list by.stack)
        ~ts:t.now ~cost:0 ~tid:by.tid ~wtid:req.cpu_thread.tid;
      req.cpu_thread.blocked <- false;
      start_compute t req.cpu_thread req.cpu_frame req.cpu_dur
    end

and exec_step t th (step : Program.step) =
  match step with
  | Program.Compute { frame; dur } -> (
    match t.cores with
    | None -> start_compute t th frame dur
    | Some n ->
      if t.cores_busy < n then begin
        t.cores_busy <- t.cores_busy + 1;
        start_compute t th frame dur
      end
      else begin
        block th [ cpu_queue_frame ] t.now;
        Queue.add { cpu_thread = th; cpu_frame = frame; cpu_dur = dur } t.cpu_queue
      end)
  | Program.Call { frame; body } ->
    th.stack <- frame :: th.stack;
    th.cont <- Steps body :: Pop_frame :: th.cont;
    exec t th
  | Program.Locked { lock; acquire_frames; body } ->
    let ls = lock_state t lock in
    th.cont <- Steps body :: Unlock lock :: th.cont;
    (match ls.holder with
    | None ->
      ls.holder <- Some th.tid;
      exec t th
    | Some holder ->
      if holder = th.tid then
        invalid_arg ("Engine: re-entrant acquisition of " ^ lock.Program.lock_name);
      block th acquire_frames t.now;
      Queue.add th ls.waiters)
  | Program.Hw_request { device; dur; wait_frames } ->
    let ds = device_state t device in
    let service_start = max t.now ds.free_at in
    let completion = service_start + dur in
    ds.free_at <- completion;
    block th wait_frames t.now;
    schedule t ~time:completion (fun () ->
        emit t ~kind:Event.Hw_service
          ~stack:(Callstack.of_list [ device.Program.device_sig ])
          ~ts:service_start ~cost:dur ~tid:device.Program.device_tid ~wtid:(-1);
        wake t ~waker_tid:device.Program.device_tid
          ~waker_stack:[ device.Program.device_sig ]
          th (exec t))
  | Program.Request { service; body; wait_frames } ->
    let n = Hashtbl.find t.service_spawns service.Program.service_uid in
    Hashtbl.replace t.service_spawns service.Program.service_uid (n + 1);
    let worker =
      make_thread t
        ~name:(Printf.sprintf "%s#%d" service.Program.service_name n)
        ~base_stack:service.Program.worker_stack ~start_at:t.now
        [ Steps body; Reply th ]
    in
    block th wait_frames t.now;
    schedule t ~time:t.now (fun () -> exec t worker)
  | Program.Idle dur -> schedule t ~time:(t.now + dur) (fun () -> exec t th)

let spawn t ?scenario ?(start_at = 0) ~name ~base_stack steps =
  let th = make_thread t ?scenario ~name ~base_stack ~start_at [ Steps steps ] in
  schedule t ~time:start_at (fun () -> exec t th);
  th.tid

let deadlock_report t =
  let stuck =
    List.filter (fun th -> th.finished = None) (List.rev t.threads)
  in
  let describe th =
    Printf.sprintf "%s (tid %d)%s" th.tname th.tid
      (if th.blocked then " blocked" else "")
  in
  let held =
    Hashtbl.fold
      (fun _ ls acc ->
        match ls.holder with
        | Some tid ->
          Printf.sprintf "%s held by tid %d (%d waiting)" ls.lock.Program.lock_name
            tid (Queue.length ls.waiters)
          :: acc
        | None -> acc)
      t.locks []
  in
  Printf.sprintf "stuck threads: %s; locks: %s"
    (String.concat ", " (List.map describe stuck))
    (String.concat ", " held)

let run t =
  if t.ran then invalid_arg "Engine.run: already ran";
  t.ran <- true;
  let rec drain () =
    match Calendar.pop t.calendar with
    | None -> ()
    | Some entry ->
      assert (entry.Calendar.time >= t.now);
      t.now <- entry.Calendar.time;
      entry.Calendar.run ();
      drain ()
  in
  drain ();
  if List.exists (fun th -> th.finished = None) t.threads then
    raise (Deadlock (deadlock_report t));
  let instances =
    List.filter_map
      (fun th ->
        match (th.scenario, th.finished) with
        | Some scenario, Some t1 ->
          Some { Dptrace.Scenario.scenario; tid = th.tid; t0 = th.start_at; t1 }
        | _ -> None)
      (List.rev t.threads)
  in
  let threads =
    List.rev_append t.device_threads
      (List.rev_map (fun th -> (th.tid, th.tname)) t.threads)
  in
  Dptrace.Stream.create ~id:t.stream_id
    ~events:(Array.of_list (List.rev t.events))
    ~instances ~threads
