module Signature = Dptrace.Signature
module Event = Dptrace.Event
module Callstack = Dptrace.Callstack

type t = {
  sources : string list;
  compiled : Dputil.Wildcard.t list;
  keep_hw : bool;
}

let of_patterns sources =
  { sources; compiled = List.map Dputil.Wildcard.compile sources; keep_hw = false }

let drivers =
  {
    sources = [ "*.sys" ];
    compiled = [ Dputil.Wildcard.compile "*.sys" ];
    keep_hw = true;
  }

let patterns t = t.sources

let matches_signature t s = Signature.matches t.compiled s

let stack_relevant t stack = Callstack.contains_matching t.compiled stack

let none_sig = lazy (Signature.of_string "<none>")

let event_signature t (e : Event.t) =
  match e.kind with
  | Event.Hw_service ->
    if t.keep_hw then Callstack.top e.stack
    else Callstack.topmost_matching t.compiled e.stack
  | Event.Running | Event.Wait | Event.Unwait ->
    Callstack.topmost_matching t.compiled e.stack

let event_signature_or_top t (e : Event.t) =
  match event_signature t e with
  | Some s -> s
  | None -> (
    match Callstack.top e.stack with
    | Some s -> s
    | None -> Lazy.force none_sig)
