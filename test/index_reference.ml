(* The list-based stream index, kept as the test oracle for
   [Stream.index]'s counting build: a generic [Hashtbl] per grouping,
   each key's events consed onto a list in a backward scan, so every
   list ends in stream order, then copied to an array. [find_waker] and
   [map_overlapping] are [Stream]'s queries, run over these tables. *)

module Event = Dptrace.Event
module Stream = Dptrace.Stream

type t = {
  by_tid : (int, Event.t array) Hashtbl.t;
  unwaits_by_wtid : (int, Event.t array) Hashtbl.t;
}

let group_by key events =
  let acc : (int, Event.t list) Hashtbl.t = Hashtbl.create 64 in
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

let index (st : Stream.t) =
  {
    by_tid = group_by (fun (e : Event.t) -> Some e.tid) st.Stream.events;
    unwaits_by_wtid =
      group_by
        (fun (e : Event.t) -> if Event.is_unwait e then Some e.wtid else None)
        st.Stream.events;
  }

let events_of_thread idx tid =
  Option.value ~default:[||] (Hashtbl.find_opt idx.by_tid tid)

let unwaits_waking idx tid =
  Option.value ~default:[||] (Hashtbl.find_opt idx.unwaits_by_wtid tid)

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
  let start = lower_bound arr from_ts in
  let rec scan i =
    if i >= Array.length arr || arr.(i).Event.ts > to_ts then []
    else if keep arr.(i) then f arr.(i) :: scan (i + 1)
    else scan (i + 1)
  in
  if start > 0 && Event.end_ts arr.(start - 1) >= from_ts && keep arr.(start - 1)
  then f arr.(start - 1) :: scan start
  else scan start

let find_waker idx (w : Event.t) =
  let arr = unwaits_waking idx w.tid in
  let earliest = if w.cost = 0 then w.ts else w.ts + 1 in
  let start = lower_bound arr earliest in
  if start < Array.length arr && arr.(start).Event.ts <= Event.end_ts w then
    Some arr.(start)
  else None
