(* One shared FIFO of tasks, one mutex, one condition variable. The
   condition is broadcast on every state change a sleeper could be waiting
   for (task enqueued, task completed, shutdown requested); sleepers
   re-check their predicate, so spurious and cross-purpose wakeups are
   harmless. Workers never hold the mutex while running a task. *)

type t = {
  mutex : Mutex.t;
  cond : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t array;
  size : int;
}

(* Telemetry (all behind [Dpobs.metrics_on], one branch when off): task
   count, per-domain busy time (its counter resolved once per domain
   through DLS), peak queue depth, and callers' waits for their oldest
   item. *)

let tasks_counter = Dpobs.Metrics.lazy_counter "pool.tasks"
let queue_depth_gauge = Dpobs.Metrics.lazy_gauge "pool.queue_depth.max"
let wait_counter = Dpobs.Metrics.lazy_counter "pool.wait_us"
let us_since t0 = Int64.to_int (Int64.div (Int64.sub (Dpobs.now_ns ()) t0) 1000L)

let busy_key : Dpobs.Metrics.counter option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let busy_counter () =
  match Domain.DLS.get busy_key with
  | Some c -> c
  | None ->
    let c =
      Dpobs.Metrics.counter
        (Printf.sprintf "pool.domain%d.busy_us" (Domain.self () :> int))
    in
    Domain.DLS.set busy_key (Some c);
    c

let default_domains () =
  let env = Sys.getenv_opt "DRIVEPERF_DOMAINS" in
  match Option.bind env (fun s -> int_of_string_opt (String.trim s)) with
  | Some n when n >= 1 -> n
  | _ -> Domain.recommended_domain_count ()

let rec worker t =
  Mutex.lock t.mutex;
  while (not t.stopping) && Queue.is_empty t.queue do
    Condition.wait t.cond t.mutex
  done;
  let task = if t.stopping then None else Queue.take_opt t.queue in
  Mutex.unlock t.mutex;
  match task with
  | Some task -> task (); worker t
  | None -> ()

let create ?domains () =
  let size =
    max 1 (match domains with Some n -> n | None -> default_domains ())
  in
  let t =
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      workers = [||];
      size;
    }
  in
  t.workers <- Array.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let size t = t.size

let shutdown t =
  Mutex.lock t.mutex;
  if t.stopping then Mutex.unlock t.mutex
  else begin
    t.stopping <- true;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* The in-order window, the pool's one scheduling primitive. Item [i] is
   queued as its own task when pushed; the task leaves its result in
   ring slot [i mod width], under the mutex. Item [i] is taken and
   consumed on the calling domain before item [i + width] is pushed;
   while it is pending the caller runs queued tasks, and sleeps only on
   an empty queue. The slot is the item's "done" mark, cleared as it is
   taken: the ring outlives minor collections, so a worker's store into
   it is remembered, and a result left in its slot would be promoted at
   the next one although it was consumed long before. Failures come out
   as with no pool: the first in push order of [f]'s, [consume]'s and
   [feed]'s, once the items in flight have finished. *)
let window t ~width f consume feed =
  let ring = Array.make width None in
  let head = ref 0 and fed = ref 0 in
  let push x =
    let slot = !fed mod width in
    incr fed;
    let task () =
      let t0 = if Dpobs.metrics_on () then Dpobs.now_ns () else 0L in
      (* The fault probe: injected latency stalls the task, transient
         failures retry it, and a spent budget proceeds unguarded — the
         pool degrades, it never aborts. [f] runs exactly once. *)
      Dpfault.Retry.run_default Dpfault.Pool_task ~default:ignore (fun () ->
          Dpfault.guard Dpfault.Pool_task);
      let r = match f x with r -> Ok r | exception e -> Error e in
      if Dpobs.metrics_on () then begin
        Dpobs.Metrics.add (busy_counter ()) (us_since t0);
        Dpobs.Metrics.incr (tasks_counter ())
      end;
      Mutex.protect t.mutex (fun () ->
          ring.(slot) <- Some r;
          Condition.broadcast t.cond)
    in
    Mutex.protect t.mutex @@ fun () ->
    Queue.add task t.queue;
    if Dpobs.metrics_on () then
      Dpobs.Metrics.set_max (queue_depth_gauge ()) (Queue.length t.queue);
    Condition.broadcast t.cond
  in
  let take () =
    let slot = !head mod width in
    incr head;
    Mutex.lock t.mutex;
    let rec await () =
      match ring.(slot) with
      | Some r ->
        ring.(slot) <- None;
        Mutex.unlock t.mutex;
        r
      | None ->
        (match Queue.take_opt t.queue with
        | Some task ->
          Mutex.unlock t.mutex;
          task ();
          Mutex.lock t.mutex
        | None ->
          let t0 = if Dpobs.metrics_on () then Dpobs.now_ns () else 0L in
          Condition.wait t.cond t.mutex;
          if Dpobs.metrics_on () then Dpobs.Metrics.add (wait_counter ()) (us_since t0));
        await ()
    in
    await ()
  in
  let drain () = while !head < !fed do ignore (take ()) done in
  let next () =
    match take () with
    | Ok r -> ( try consume r with e -> drain (); raise e)
    | Error e -> drain (); raise e
  in
  let rest () = while !head < !fed do next () done in
  match feed (fun x -> if !fed - !head = width then next (); push x) with
  | () -> rest ()
  | exception e -> rest (); raise e

let parallel_map ?chunk t f lst =
  let n = List.length lst in
  let chunk =
    match chunk with
    | Some c when c >= 1 -> c
    | Some c -> invalid_arg (Printf.sprintf "Dppar.Pool: chunk %d < 1" c)
    (* ~4 chunks per unit of parallelism smooths imbalanced item costs. *)
    | None -> max 1 ((n + (4 * t.size) - 1) / (4 * t.size))
  in
  if t.size <= 1 || n <= chunk then List.map f lst
  else begin
    (* Every chunk is queued at once: the window is as wide as the list. *)
    let items = Array.of_list lst and out = ref [] in
    window t ~width:((n + chunk - 1) / chunk)
      (fun lo -> List.init (min chunk (n - lo)) (fun i -> f items.(lo + i)))
      (fun r -> out := r :: !out)
      (fun push -> for c = 0 to (n - 1) / chunk do push (c * chunk) done);
    List.concat (List.rev !out)
  end

(* Two items per unit of parallelism keep every domain busy while the
   caller consumes, and hold no more at once than a batch did
   (DESIGN.md §6). *)
let iter_window ?pool f consume feed =
  match pool with
  | Some t when t.size > 1 -> window t ~width:(2 * t.size) f consume feed
  | _ -> feed (fun x -> consume (f x))
