type kind = Running | Wait | Unwait | Hw_service

type t = {
  id : int;
  kind : kind;
  stack : Callstack.t;
  ts : Dputil.Time.t;
  cost : Dputil.Time.t;
  tid : int;
  wtid : int;
}

let end_ts e = e.ts + e.cost

let is_wait e = e.kind = Wait
let is_unwait e = e.kind = Unwait
let is_running e = e.kind = Running

let kind_to_string = function
  | Running -> "run"
  | Wait -> "wait"
  | Unwait -> "unwait"
  | Hw_service -> "hw"

let kind_of_string = function
  | "run" -> Some Running
  | "wait" -> Some Wait
  | "unwait" -> Some Unwait
  | "hw" -> Some Hw_service
  | _ -> None
