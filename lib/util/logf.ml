(* The level gate lives here, below every other library, so that dputil
   modules (and anything else) can emit leveled diagnostics without
   depending on the observability layer; Obs.Log installs the real sink
   and drives the level. Formatting only happens past the gate, so a
   disabled debug line costs one int comparison. *)

type level = Error | Warn | Info | Debug

let severity = function Error -> 0 | Warn -> 1 | Info -> 2 | Debug -> 3

let level_name = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

(* Default threshold Warn: errors and warnings reach stderr out of the
   box, info/debug are silent until someone opts in. *)
let threshold = Atomic.make (severity Warn)

let set_level l = Atomic.set threshold (severity l)

let enabled l = severity l <= Atomic.get threshold

(* One mutex around the sink keeps lines from different domains whole. *)
let sink_mutex = Mutex.create ()

let default_sink l msg =
  Printf.eprintf "driveperf: %s: %s\n%!" (level_name l) msg

let sink = ref default_sink

let set_sink f = sink := f

let emit l msg = Mutex.protect sink_mutex (fun () -> !sink l msg)

let logf l fmt =
  if enabled l then Format.kasprintf (emit l) fmt
  else Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

let warn fmt = logf Warn fmt
let debug fmt = logf Debug fmt
