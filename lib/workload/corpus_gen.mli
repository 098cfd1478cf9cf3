(** Corpus generation: packs scenario episodes into trace streams.

    An {e episode} is one trace stream: a machine environment plus a batch
    of concurrent scenario instances (staggered starts), optionally with
    cross-traffic — background AntiVirus / ConfigManager / motion-guard
    instances contending the same kernel objects, which is what creates
    cross-application cost propagation (the Figure 1 situation).

    Everything is a pure function of [config.seed]. [scale] linearly
    scales instance counts: 1.0 targets one tenth of the paper's Table 1
    volumes (≈2,600 instances), small enough to analyse in seconds yet
    large enough for stable mining; tests run at 0.05–0.2. *)

type config = {
  seed : int;
  scale : float;
  quantize_running : bool;
  cross_traffic : bool;
  cores : int option;
      (** [None] (default) models unbounded CPU capacity — the regime the
          paper's numbers live in, where contention flows through locks
          and devices. [Some n] engages the engine's [n]-core run-queue
          model for CPU-pressure studies. *)
}

val default_config : config
(** [seed = 42], [scale = 1.0], quantised running events, cross-traffic
    on. *)

val scaled : float -> config
(** [default_config] at another scale. *)

val build_episode :
  ?cores:int ->
  stream_id:int ->
  prng:Dputil.Prng.t ->
  quantize:bool ->
  cross:bool ->
  Scenarios.template ->
  Dptrace.Stream.t
(** Build and run a single episode (exposed for tests and examples). *)

val generate : config -> Dptrace.Corpus.t

val target_counts : (string * int) list
(** Scenario → instance target at [scale = 1.0] (Table 1 volumes / 10 for
    the named scenarios). *)
