(** Scenario templates: the 8 named scenarios of Table 1 plus the
    background scenarios that fill out the corpus.

    A template couples a scenario spec (name, [T_fast], [T_slow]) with a
    program generator. Instances come in two work profiles: [Light] (the
    expected path) and [Heavy] (a draw from the scenario's problem-motif
    mix). Whether a heavy instance actually lands in the slow class is
    {e emergent}: it depends on the contention it meets in its episode,
    exactly as in real traces. *)

type profile = Light | Heavy

type template = {
  spec : Dptrace.Scenario.spec;
  entry : Dptrace.Signature.t;  (** Initiating-thread base frame. *)
  thread_name : string;
  heavy_prob : float;  (** Per-instance probability of the heavy profile. *)
  concurrency : int * int;  (** Concurrent instances per episode (min, max). *)
  program : Motifs.ctx -> profile -> Dpsim.Program.step list;
}

val browser_tab_create : template
val menu_display : template

val named : template list
(** The 8 named scenarios, in Table 1 order. *)

val av_scheduled_scan : template
val cfg_refresh : template
val motion_guard : template
(** dp.sys halting I/O by design — the §5.2.5 false-positive source. *)

val all : template list

val find : string -> template option
(** Template by scenario name. *)

val all_specs : Dptrace.Scenario.spec list
