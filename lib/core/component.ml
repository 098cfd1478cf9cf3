module Signature = Dptrace.Signature
module Event = Dptrace.Event
module Callstack = Dptrace.Callstack

type t = {
  sources : string list;
  compiled : Dputil.Wildcard.t list;
  keep_hw : bool;
  verdicts : Bytes.t Atomic.t;
      (* One byte per signature id: [unknown], [no] or [yes]. The byte of
         an id only ever goes from [unknown] to its one verdict, so racing
         writers store the same byte. Growth publishes a larger copy by
         CAS; a verdict stored into the old copy after the copy was taken
         is lost, and the next reader recomputes it. *)
}

let unknown = '\000'
let no = '\001'
let yes = '\002'

let make sources ~keep_hw =
  {
    sources;
    compiled = List.map Dputil.Wildcard.compile sources;
    keep_hw;
    verdicts = Atomic.make Bytes.empty;
  }

let of_patterns sources = make sources ~keep_hw:false

let drivers = make [ "*.sys" ] ~keep_hw:true

let patterns t = t.sources

let rec store t id verdict =
  let v = Atomic.get t.verdicts in
  if id < Bytes.length v then Bytes.unsafe_set v id verdict
  else begin
    let len = max (id + 1) (max (2 * Bytes.length v) (Signature.interned_count ())) in
    let grown = Bytes.make len unknown in
    Bytes.blit v 0 grown 0 (Bytes.length v);
    Bytes.unsafe_set grown id verdict;
    if not (Atomic.compare_and_set t.verdicts v grown) then store t id verdict
  end

let matches_signature t s =
  let id = Signature.to_int s in
  let v = Atomic.get t.verdicts in
  let b = if id < Bytes.length v then Bytes.unsafe_get v id else unknown in
  if b = yes then true
  else if b = no then false
  else begin
    let m = Signature.matches t.compiled s in
    store t id (if m then yes else no);
    m
  end

let topmost_matching t stack =
  let frames = Callstack.frames stack in
  let rec go i =
    if i = Array.length frames then None
    else if matches_signature t (Array.unsafe_get frames i) then
      Some (Array.unsafe_get frames i)
    else go (i + 1)
  in
  go 0

let none_sig = Signature.of_string "<none>"

let event_signature t (e : Event.t) =
  match e.kind with
  | Event.Hw_service ->
    if t.keep_hw then Callstack.top e.stack
    else topmost_matching t e.stack
  | Event.Running | Event.Wait | Event.Unwait ->
    topmost_matching t e.stack

let event_signature_or_top t (e : Event.t) =
  match event_signature t e with
  | Some s -> s
  | None -> (
    match Callstack.top e.stack with
    | Some s -> s
    | None -> none_sig)
