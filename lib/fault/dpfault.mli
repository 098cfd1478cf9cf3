(** Deterministic fault injection for every I/O boundary.

    The paper's pipeline ran over ~19,500 real-world traces, an
    environment where truncated files, torn writes and stalled ingestion
    are the norm; this module is the harness that proves driveperf
    degrades gracefully under them. Three pieces:

    - a {!plan}: a seeded schedule over named {!site}s, each emitting a
      fault {!kind} (EINTR/EAGAIN, outright failure, short reads, torn
      writes, stat races, injected latency) with a given probability.
      The decision for the [i]-th call at a site is a pure function of
      [(seed, site, i)], so a plan replays bit-identically;
    - a global switch: {!install}/{!clear} arm and disarm the plan.
      A disarmed {!guard} costs one atomic load and one branch
      (mirroring the [Dpobs]/[Provenance] switch pattern), so permanent
      guards on hot paths are free;
    - {!Retry}: bounded exponential backoff with deterministic jitter
      from {!Dputil.Prng} and per-site budgets, the policy the injected
      faults exercise. Counters [fault.injected], [retry.attempts] and
      [retry.gave_up] land in the {!Dpobs.Metrics} registry.

    Thread-safety: per-site call counters are atomic, so guards may fire
    from any domain. Under a pool the {e assignment} of faults to calls
    follows arrival order, but because every fault is either retried or
    contained, analysis results stay bit-identical to a fault-free run
    whenever no stream is quarantined. *)

(** {1 Sites and kinds} *)

(** The guarded I/O boundaries. *)
type site =
  | Corpus_open  (** opening/sniffing a corpus file ([Corpus_dir.load]) *)
  | Corpus_read  (** per-stream corpus reads (pipeline screening) *)
  | Snapshot_write  (** the snapshot cache's tmp-file write *)
  | Monitor_stat  (** the monitor's [Unix.stat] of a tailed file *)
  | Monitor_tail  (** the monitor's re-read of a changed corpus file *)
  | Monitor_write
      (** a monitor sink's write: the alert log, the metrics file, a
          view bundle *)
  | Httpd_accept  (** accepting a /metrics connection *)
  | Pool_task  (** a domain-pool task about to run *)

val site_name : site -> string
(** ["corpus.open"], ["corpus.read"], ["snapshot.write"],
    ["monitor.stat"], ["monitor.tail"], ["monitor.write"],
    ["httpd.accept"], ["pool.task"]. *)

val site_of_name : string -> site option

(** What an injection does at the call it hits. *)
type kind =
  | Eintr  (** the syscall was interrupted; retry is expected to work *)
  | Eagain  (** resource temporarily unavailable *)
  | Fail  (** hard failure; retrying does not help within this call *)
  | Short_read  (** a read returned fewer bytes than asked *)
  | Torn_write  (** a write persisted only a prefix before failing *)
  | Stat_race  (** the file changed (or vanished) under the stat *)
  | Latency of int  (** stall the call for this many milliseconds *)

val kind_name : kind -> string

exception Injected of { site : site; kind : kind }
(** Raised by {!guard} (and {!act}) for every kind except [Latency].
    {!Retry.run} treats it like a transient OS error. *)

(** {1 Plans} *)

type rule = {
  r_kind : kind;
  r_prob : float;  (** chance, in [\[0,1\]], that a call is hit *)
  r_attempts : int option;
      (** per-site retry-budget override; [None] = {!Retry.default_attempts} *)
}

type plan = {
  p_seed : int;
  p_rules : (site * rule) list;  (** at most one rule per site *)
  p_spec : string;  (** the normalised [SEED:SPEC] text *)
}

val parse : string -> (plan, string) result
(** [parse "SEED:SPEC"]. [SPEC] is a preset name ({!presets}) or a
    comma-separated list of clauses [site=kind\@prob] with an optional
    [!attempts] budget suffix, e.g.
    ["7:corpus.read=eintr@0.25,snapshot.write=torn@0.5!3"]. Kinds:
    [eintr], [eagain], [fail], [short], [torn], [race], [latencyN]
    (N milliseconds). *)

val presets : (string * string) list
(** Named specs for CI's fault matrix: [io-flaky] (transient EINTR/EAGAIN
    and stat races on the ingestion path — default budgets absorb all of
    it), [torn-writes] (every snapshot save tears), [slow-disk]
    (injected latency on reads and pool tasks). *)

val describe : plan -> string
(** A site table: one line per rule with kind, probability and retry
    budget — what [driveperf faults describe] prints. *)

(** {1 The switch} *)

val install : plan -> unit
(** Arm [plan] globally and reset every per-site call counter (so a
    reinstalled plan replays from call 0). *)

val clear : unit -> unit
(** Disarm. Guards return to their one-atomic-load fast path. *)

val armed : unit -> bool

(** {1 Injection} *)

val draw : plan -> site -> int -> kind option
(** [draw plan site i] is the fault (if any) the plan assigns to the
    [i]-th call at [site] — the pure replayable decision function, also
    what [driveperf faults replay] prints. *)

val check : site -> kind option
(** Armed-path draw for the next call at [site]: advances the site's
    call counter and returns the drawn kind, bumping [fault.injected].
    Returns [None] (for free) when disarmed. Does not raise or sleep —
    callers that need custom handling (e.g. the snapshot's literal torn
    write) branch on the result and finish with {!act}. *)

val act : site -> kind -> unit
(** Apply a drawn kind: [Latency] sleeps, everything else raises
    {!Injected}. *)

val guard : site -> unit
(** [check] then [act] — the one-liner most sites use. *)

val call_count : site -> int
(** Calls seen at [site] since the last {!install}. *)

(** {1 Retry policies} *)

module Retry : sig
  val budget : site -> int
  (** The armed plan's [!attempts] override for [site], or
      {!default_attempts}. *)

  val run : site -> (unit -> 'a) -> 'a
  (** Run [f], retrying on {!Injected} and on [EINTR]/[EAGAIN]-class
      [Unix.Unix_error]s with bounded exponential backoff (deterministic
      jitter seeded from the plan and [site]). After the budget is spent
      the last error re-raises; [retry.attempts] and [retry.gave_up]
      count what happened. Other exceptions pass through untouched. *)

  val run_default : site -> default:(unit -> 'a) -> (unit -> 'a) -> 'a
  (** {!run}, but a spent budget falls back to [default] instead of
      raising — the fail-open flavour for sites where degrading beats
      aborting (a stat that reports "unchanged", an accept that reports
      "no connection", a pool task that proceeds unguarded). *)
end
