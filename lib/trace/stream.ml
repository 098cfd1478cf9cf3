type index = {
  by_tid : (int, Event.t array) Hashtbl.t;
  unwaits_by_wtid : (int, Event.t array) Hashtbl.t;
}

type t = {
  id : int;
  events : Event.t array;
  instances : Scenario.instance list;
  threads : (int * string) list;
  memo_index : index option Atomic.t;
  memo_key : string option Atomic.t;
}

(* Order: timestamp, then thread, then zero-cost events (unwaits) before
   cost-bearing ones — a thread that releases a lock and computes at the
   same instant has released first. Ties keep input order (a stable sort),
   for determinism. *)
let order (a : Event.t) (b : Event.t) =
  match Int.compare a.ts b.ts with
  | 0 -> (
    match Int.compare a.tid b.tid with
    | 0 -> Int.compare (min a.cost 1) (min b.cost 1)
    | c -> c)
  | c -> c

(* What a decoder hands over: already in order, ids equal to positions. *)
let in_order events =
  let rec go i =
    i = Array.length events
    || events.(i).Event.id = i
       && (i = 0 || order events.(i - 1) events.(i) <= 0)
       && go (i + 1)
  in
  go 0

let create ~id ~events ~instances ~threads =
  let events =
    if in_order events then events
    else begin
      let sorted = Array.copy events in
      Array.stable_sort order sorted;
      Array.mapi
        (fun i (e : Event.t) -> if e.id = i then e else { e with Event.id = i })
        sorted
    end
  in
  {
    id;
    events;
    instances;
    threads;
    memo_index = Atomic.make None;
    memo_key = Atomic.make None;
  }

let skeleton t =
  {
    t with
    events = [||];
    threads = [];
    memo_index = Atomic.make None;
    memo_key = Atomic.make (Atomic.get t.memo_key);
  }

let thread_name t tid =
  match List.assoc_opt tid t.threads with
  | Some name -> name
  | None -> Printf.sprintf "tid%d" tid

let duration t =
  let n = Array.length t.events in
  if n = 0 then 0
  else begin
    let last_end = Array.fold_left (fun acc e -> max acc (Event.end_ts e)) 0 t.events in
    last_end - t.events.(0).Event.ts
  end

let event_count t = Array.length t.events

let group_by key events =
  let acc : (int, Event.t list) Hashtbl.t = Hashtbl.create 64 in
  (* Iterate in reverse so each bucket list ends up timestamp-ordered. *)
  for i = Array.length events - 1 downto 0 do
    let e = events.(i) in
    match key e with
    | None -> ()
    | Some k ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt acc k) in
      Hashtbl.replace acc k (e :: prev)
  done;
  let out = Hashtbl.create (Hashtbl.length acc) in
  Hashtbl.iter (fun k es -> Hashtbl.replace out k (Array.of_list es)) acc;
  out

let index t =
  {
    by_tid = group_by (fun (e : Event.t) -> Some e.tid) t.events;
    unwaits_by_wtid =
      group_by
        (fun (e : Event.t) -> if Event.is_unwait e then Some e.wtid else None)
        t.events;
  }

(* Cache effectiveness of the memoised index — a racing double build
   counts as two misses, which is exactly the wasted work. A
   [pass_index] build counts as a miss too: the lookup is the same. *)
let index_hits = Dpobs.Metrics.lazy_counter "stream.index.hit"
let index_misses = Dpobs.Metrics.lazy_counter "stream.index.miss"

let memoised t =
  let memo = Atomic.get t.memo_index in
  if Dpobs.metrics_on () then
    Dpobs.Metrics.incr
      ((if Option.is_some memo then index_hits else index_misses) ());
  memo

let pass_index t = match memoised t with Some idx -> idx | None -> index t

(* Publication is a single compare-and-set on an [Atomic.t]: the plain
   mutable field it replaces was read outside the old mutex, which was a
   data race under the domain pool (torn in theory, and flagged by TSan).
   Index construction runs before the CAS: a race on the same stream at
   worst computes the (pure, identical) index twice; the first store wins
   and losers adopt it, so every caller observes one index identity. *)
let shared_index t =
  match memoised t with
  | Some idx -> idx
  | None ->
    let idx = index t in
    if Atomic.compare_and_set t.memo_index None (Some idx) then idx
    else
      (* Lost the race: the winner's index is now published. *)
      Option.get (Atomic.get t.memo_index)

let key_memo t = Atomic.get t.memo_key

let set_key_memo t key =
  (* First writer wins; all writers derive the key from the same stream
     content, so losing the race changes nothing. *)
  ignore (Atomic.compare_and_set t.memo_key None (Some key))

let events_of_thread idx tid =
  Option.value ~default:[||] (Hashtbl.find_opt idx.by_tid tid)

(* First index i with arr.(i).ts >= target. *)
let lower_bound (arr : Event.t array) target =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if arr.(mid).Event.ts < target then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length arr)

let thread_events_overlapping idx ~tid ~from_ts ~to_ts =
  let arr = events_of_thread idx tid in
  (* An event overlaps iff ts <= to_ts and end_ts >= from_ts. Events are
     ts-sorted; a long event may start well before [from_ts], so scan back
     from the first event starting at/after [from_ts] while spans still can
     reach the window. Per-thread events do not overlap each other, so at
     most one predecessor qualifies. *)
  let start = lower_bound arr from_ts in
  let before =
    if start > 0 && Event.end_ts arr.(start - 1) >= from_ts then [ arr.(start - 1) ]
    else []
  in
  let rec collect i acc =
    if i >= Array.length arr || arr.(i).Event.ts > to_ts then List.rev acc
    else collect (i + 1) (arr.(i) :: acc)
  in
  before @ collect start []

let find_waker idx (w : Event.t) =
  let arr = Option.value ~default:[||] (Hashtbl.find_opt idx.unwaits_by_wtid w.tid) in
  (* An unwait at exactly [w.ts] belongs to whatever wait ended there, not
     to a wait beginning there — threads commonly re-block at the very
     instant they are woken (FIFO hand-offs), and matching the stale
     unwait would truncate the propagation chain. Only zero-duration
     waits may pair at their own start instant. *)
  let earliest = if w.cost = 0 then w.ts else w.ts + 1 in
  let start = lower_bound arr earliest in
  if start < Array.length arr && arr.(start).Event.ts <= Event.end_ts w then
    Some arr.(start)
  else None

let pp_summary fmt t =
  Format.fprintf fmt "stream %d: %d events, %d instances, %d threads, span %a"
    t.id (Array.length t.events) (List.length t.instances)
    (List.length t.threads) Dputil.Time.pp (duration t)
