(** View bundles: everything needed to {e look at} one scenario's
    contrast, written as openable files next to each other.

    Written by [driveperf flame] and, per alert, by the monitor
    ([--view-dir]): a Perfetto trace of the slow/fast exemplars plus
    folded-stack and speedscope flame views per contrast class and the
    slow-vs-fast differential. *)

type t = {
  files : string list;  (** Written paths, in creation order. *)
  diff : Flame.folded;
      (** The slow-minus-fast per-instance AWG differential, ranked —
          what [flame_diff.*] contains, for callers that print it. *)
}

val write :
  ?components:Dpcore.Component.t ->
  ?slow:int ->
  ?fast:int ->
  dir:string ->
  Dpcore.Pipeline.scenario_result ->
  t
(** Write the bundle for one analysed scenario into [dir] (created, with
    parents, if missing): [trace.json] (exemplar Perfetto export over
    [components], [slow]/[fast] exemplars each, default 3),
    [flame_running_{slow,fast}.folded], [flame_running_slow.speedscope.json],
    [flame_awg_{slow,fast}.folded], [flame_diff.folded] and
    [flame_diff.speedscope.json]. The AWG views are the result's own
    [fast_awg] and [slow_awg], so no AWG is built here (the running-time
    flames still build each exemplar's wait graph); [components] must be
    the ones [r] was computed with. Deterministic byte-for-byte for
    equal inputs. *)
