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

(* Telemetry (all behind [Dpobs.metrics_on], one branch when off):
   lifetime task count, per-domain busy time, peak queue depth. The busy
   counter is resolved once per domain through DLS so the per-task cost
   is one hashtable-free lookup. *)

let tasks_counter = Dpobs.Metrics.lazy_counter "pool.tasks"
let queue_depth_gauge = lazy (Dpobs.Metrics.gauge "pool.queue_depth.max")

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
  match Sys.getenv_opt "DRIVEPERF_DOMAINS" with
  | Some s when (match int_of_string_opt (String.trim s) with
                | Some n -> n >= 1
                | None -> false) ->
    int_of_string (String.trim s)
  | Some _ | None -> Domain.recommended_domain_count ()

let rec worker t =
  Mutex.lock t.mutex;
  let rec next () =
    if t.stopping then begin
      Mutex.unlock t.mutex;
      None
    end
    else
      match Queue.take_opt t.queue with
      | Some task ->
        Mutex.unlock t.mutex;
        Some task
      | None ->
        Condition.wait t.cond t.mutex;
        next ()
  in
  match next () with
  | None -> ()
  | Some task ->
    task ();
    worker t

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

(* Split [lst] into consecutive chunks of [chunk] elements (the last chunk
   may be shorter). *)
let chunks_of ~chunk lst =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if n = chunk then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 lst

let resolve_chunk t chunk n =
  match chunk with
  | Some c when c >= 1 -> c
  | Some c -> invalid_arg (Printf.sprintf "Dppar.Pool: chunk %d < 1" c)
  | None ->
    (* ~4 chunks per unit of parallelism smooths imbalanced item costs. *)
    let target = t.size * 4 in
    max 1 ((n + target - 1) / target)

(* Run every thunk of [jobs], each at most once, on whichever domain gets
   to it first; the caller helps drain the queue, then sleeps until its
   last in-flight thunk completes. Results come back in index order; the
   earliest-index exception is re-raised. *)
let run_jobs : 'b. t -> (unit -> 'b) array -> 'b array =
  fun t jobs ->
  let n = Array.length jobs in
  let results = Array.make n None in
  let errors = Array.make n None in
  let remaining = ref n in
  let task i () =
    let t0 = if Dpobs.metrics_on () then Dpobs.now_ns () else 0L in
    (* Fault probe before the job: injected latency stalls this task,
       transient failures retry the probe, and an exhausted budget
       proceeds unguarded — the pool degrades, it never aborts. The
       thunk itself runs exactly once either way. *)
    Dpfault.Retry.run_default Dpfault.Pool_task ~default:ignore (fun () ->
        Dpfault.guard Dpfault.Pool_task);
    (* Distinct domains write distinct slots, and every slot is written
       before the final [remaining] decrement is observed under the
       mutex, so the caller reads fully published values. *)
    (match jobs.(i) () with
    | r -> results.(i) <- Some r
    | exception e -> errors.(i) <- Some e);
    if Dpobs.metrics_on () then begin
      let us = Int64.to_int (Int64.div (Int64.sub (Dpobs.now_ns ()) t0) 1000L) in
      Dpobs.Metrics.add (busy_counter ()) us;
      Dpobs.Metrics.incr (tasks_counter ())
    end;
    Mutex.lock t.mutex;
    decr remaining;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex
  in
  Mutex.lock t.mutex;
  for i = 0 to n - 1 do
    Queue.add (task i) t.queue
  done;
  if Dpobs.metrics_on () then
    Dpobs.Metrics.set_max (Lazy.force queue_depth_gauge) (Queue.length t.queue);
  Condition.broadcast t.cond;
  let rec drain () =
    match Queue.take_opt t.queue with
    | Some task ->
      Mutex.unlock t.mutex;
      task ();
      Mutex.lock t.mutex;
      drain ()
    | None ->
      if !remaining > 0 then begin
        Condition.wait t.cond t.mutex;
        drain ()
      end
  in
  drain ();
  Mutex.unlock t.mutex;
  Array.iter (function Some e -> raise e | None -> ()) errors;
  Array.map (function Some r -> r | None -> assert false) results

let parallel_map ?chunk t f lst =
  let n = List.length lst in
  let chunk = resolve_chunk t chunk n in
  if t.size <= 1 || n <= chunk then List.map f lst
  else
    let chunks = Array.of_list (chunks_of ~chunk lst) in
    let jobs = Array.map (fun items () -> List.map f items) chunks in
    run_jobs t jobs |> Array.to_list |> List.concat
