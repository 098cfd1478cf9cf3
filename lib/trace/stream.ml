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

let with_id t id =
  { t with id; memo_index = Atomic.make None; memo_key = Atomic.make (Atomic.get t.memo_key) }

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

(* --- the index, built by counting ---

   One scan counts each key's events and a second puts each event into
   its key's exact-size array, so every array is in stream order. A
   key's count, then its fill position, sits in the key's dense slot,
   handed out in first-sighting order by a per-domain table: open
   addressing with linear probing over int arrays, probed inline, so a
   lookup allocates nothing. A cell belongs to the current build while
   its stamp is the build's generation, so no build clears the table.
   Every int is a key: the text codec allows negative tids, and an
   unwait may wake tid -1. *)
type slots = {
  mutable gen : int;
  mutable stamp : int array;  (* by cell *)
  mutable keys : int array;  (* by cell *)
  mutable slot_of : int array;  (* by cell *)
  mutable key : int array;  (* by slot *)
  mutable count : int array;  (* by slot *)
  mutable used : int;  (* slots *)
  mutable of_event : int array;  (* by event: its slot *)
}

let new_slots () =
  let z n = Array.make n 0 in
  { gen = 0; stamp = z 64; keys = z 64; slot_of = z 64; key = z 32; count = z 32;
    used = 0; of_event = z 0 }

let scratch = Domain.DLS.new_key (fun () -> (new_slots (), new_slots ()))

let start s events =
  if Array.length s.of_event < events then s.of_event <- Array.make events 0;
  s.gen <- s.gen + 1;
  s.used <- 0

let hash k =
  let h = k * 0x9E3779B1 in
  h lxor (h lsr 17)

(* The cell holding [k], or the free cell where it would go. *)
let rec cell s k c =
  if Array.unsafe_get s.stamp c <> s.gen || Array.unsafe_get s.keys c = k then c
  else cell s k ((c + 1) land (Array.length s.stamp - 1))

let take s c k n =
  s.stamp.(c) <- s.gen;
  s.keys.(c) <- k;
  s.slot_of.(c) <- n

let grow s =
  let cap = 2 * Array.length s.stamp in
  let extend a = Array.init (cap / 2) (fun i -> if i < s.used then a.(i) else 0) in
  s.key <- extend s.key;
  s.count <- extend s.count;
  s.stamp <- Array.make cap 0;
  s.keys <- Array.make cap 0;
  s.slot_of <- Array.make cap 0;
  for n = 0 to s.used - 1 do
    take s (cell s s.key.(n) (hash s.key.(n) land (cap - 1))) s.key.(n) n
  done

(* The slot of [k], made for it if [k] is new. The table stays at most
   half full. *)
let rec slot s k =
  let c = cell s k (hash k land (Array.length s.stamp - 1)) in
  if s.stamp.(c) = s.gen then s.slot_of.(c)
  else if 2 * (s.used + 1) > Array.length s.stamp then begin
    grow s;
    slot s k
  end
  else begin
    let n = s.used in
    take s c k n;
    s.key.(n) <- k;
    s.count.(n) <- 0;
    s.used <- n + 1;
    n
  end

let count s k i =
  let n = slot s k in
  s.of_event.(i) <- n;
  s.count.(n) <- s.count.(n) + 1

(* Each key's array, made with any event in it; [count] becomes the fill
   position. *)
let arrays s events =
  Array.init s.used (fun n ->
      let a = Array.make s.count.(n) events.(0) in
      s.count.(n) <- 0;
      a)

let place s arrays i e =
  let n = s.of_event.(i) in
  arrays.(n).(s.count.(n)) <- e;
  s.count.(n) <- s.count.(n) + 1

let table s arrays =
  let t = Hashtbl.create s.used in
  for n = 0 to s.used - 1 do
    Hashtbl.add t s.key.(n) arrays.(n)
  done;
  t

let index t =
  let tids, wtids = Domain.DLS.get scratch in
  let events = t.events in
  start tids (Array.length events);
  start wtids (Array.length events);
  for i = 0 to Array.length events - 1 do
    let e = events.(i) in
    count tids e.Event.tid i;
    if Event.is_unwait e then count wtids e.wtid i
  done;
  let by_tid = arrays tids events and by_wtid = arrays wtids events in
  for i = 0 to Array.length events - 1 do
    let e = events.(i) in
    place tids by_tid i e;
    if Event.is_unwait e then place wtids by_wtid i e
  done;
  { by_tid = table tids by_tid; unwaits_by_wtid = table wtids by_wtid }

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

let map_overlapping idx ~tid ~from_ts ~to_ts ~keep f =
  let arr = events_of_thread idx tid in
  (* An event overlaps iff ts <= to_ts and end_ts >= from_ts. Events are
     ts-sorted; a long event may start well before [from_ts], so look back
     from the first event starting at/after [from_ts] while spans still can
     reach the window. Per-thread events do not overlap each other, so at
     most one predecessor qualifies. [f] runs in timestamp order, and the
     list is built in that order with no intermediate list. *)
  let start = lower_bound arr from_ts in
  let[@tail_mod_cons] rec scan i =
    if i >= Array.length arr || arr.(i).Event.ts > to_ts then []
    else
      let e = arr.(i) in
      if keep e then
        let x = f e in
        x :: scan (i + 1)
      else scan (i + 1)
  in
  if start > 0 && Event.end_ts arr.(start - 1) >= from_ts && keep arr.(start - 1)
  then
    let x = f arr.(start - 1) in
    x :: scan start
  else scan start

let unwaits_waking idx tid =
  Option.value ~default:[||] (Hashtbl.find_opt idx.unwaits_by_wtid tid)

let find_waker idx (w : Event.t) =
  let arr = unwaits_waking idx w.tid in
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
