(** Incremental snapshot cache for delta re-analysis.

    A snapshot is a versioned, checksummed on-disk cache of {e per-stream}
    analysis results, keyed by content: a stream's key is its
    {!Dptrace.Codec_v2.stream_key} (the CRC of its codec-v2 frame), and a
    cache file is named by a {!fingerprint} of the analysis configuration.
    Re-running an analysis over a corpus that mostly overlaps a previous
    run — the common case: a tracing session appended a few streams —
    recomputes only the new or changed streams and merges the rest from
    cache.

    The merge is {e bit-identical} to a from-scratch run. Each cached
    entry holds exactly the per-stream partials the pipeline's existing
    parallel reductions already merge in stream order: {!Impact.result}
    partials (merged with {!Impact.merge}), provenance
    ({!Provenance.merge_impact}), per-module rows
    ({!Impact.merge_modules}) and unreduced per-class AWG partial forests
    ({!Awg.Partial.merge_all}). Mining, selection and coverage run on the
    merged aggregates as usual, so reports — including [--json] output and
    provenance witnesses — do not depend on which entries came from disk.

    On top of the per-stream entries the snapshot caches each scenario's
    {!Mining.result} (see {!find_mining}): re-mining is the dominant cost
    of a warm re-analysis and its inputs are a deterministic function of
    the fingerprint plus the ordered set of contributing streams, so a
    digest match lets the pipeline skip the miner without affecting
    output. Appending a stream only invalidates the scenarios that stream
    contains.

    Robustness: a snapshot is a cache, never a source of truth. Entries
    are individually CRC-32 framed; an unreadable file, a stale
    fingerprint, a checksum failure or an undecodable entry all degrade to
    cache misses, never to errors or wrong results.

    Observability: {!create}/{!save}/{!ensure} bump the
    [snapshot.hit]/[snapshot.miss]/[snapshot.stale]/[snapshot.bytes]
    metrics, and {!find_mining} the
    [snapshot.mining_hit]/[snapshot.mining_miss] pair, when
    {!Dpobs.metrics_on}. *)

val code_version : string
(** Participates in {!fingerprint}; bumped whenever analysis semantics or
    the entry wire form change, so old caches invalidate wholesale. *)

val fingerprint :
  components:Component.t ->
  specs:Dptrace.Scenario.spec list ->
  k:int ->
  unit ->
  string
(** Fingerprint of everything a cached entry's contents depend on: the
    code version, the component patterns, the scenario specs (name and
    thresholds), the mining [k] and the {!Provenance.enabled} switch.
    Cache files are named [<fingerprint>.dpsnap]; a run with a different
    configuration reads a different file, so entries can never be reused
    across configurations. *)

(** {1 Per-stream entries} *)

type entry
(** One stream's complete analysis contribution. *)

val analyze_stream :
  Component.t -> specs:Dptrace.Scenario.spec list -> Dptrace.Stream.t -> entry
(** The unit of caching: build the stream's wait graphs once (via its
    memoised shared index) and compute its contribution to every pipeline
    output — whole-corpus impact and provenance, per-module rows, each
    scenario's all-instance impact, and per spec'd scenario the
    fast/slow-class impact partials and unreduced {!Awg.Partial}
    forests. *)

val entry_part :
  entry -> Impact.result * Provenance.impact * Impact.module_row list
(** The stream's whole-corpus part, as {!Impact.measure} returned it. *)

val entry_scenario_impact : entry -> string -> Impact.result option
(** Impact over the stream's instances of the named scenario; [None] when
    the stream has none. *)

val entry_scenario_class :
  entry ->
  string ->
  (Impact.result * Provenance.impact * Awg.Partial.partial
  * Awg.Partial.partial)
  option
(** [(slow impact, slow provenance, fast AWG partial, slow AWG partial)]
    for the named scenario; [None] when the stream has no instances of it
    (or it had no spec when the entry was computed). *)

(** {1 Cache instances} *)

type t

val create : ?dir:string -> fingerprint:string -> unit -> t
(** Open a snapshot. With [dir], loads [dir/<fingerprint>.dpsnap] if
    present — corrupt entries are dropped (counted in {!stats}), a
    mismatched fingerprint or unreadable file yields an empty cache.
    Without [dir] the snapshot is purely in-memory (useful in tests). *)

val ensure : ?pool:Dppar.Pool.t -> t -> Component.t -> Dptrace.Corpus.t -> unit
(** Make an entry available for every stream of the corpus: look each
    stream up by content key, and {!analyze_stream} the misses — in
    parallel across [pool] when given, one stream per task. Merging cached
    and fresh entries is exact, so downstream results never depend on the
    hit/miss split. *)

val entry : t -> Dptrace.Stream.t -> entry
(** Lookup after {!ensure}.
    @raise Invalid_argument for a stream never ensured. *)

val save : t -> unit
(** Write every entry back to [dir/<fingerprint>.dpsnap] (creating [dir]
    if needed) via a temp file and atomic rename. Entries are written in
    sorted key order: the file is a pure function of its contents. No-op
    for in-memory snapshots. *)

(** {1 Scenario mining cache} *)

val find_mining :
  t -> Dptrace.Corpus.t -> string -> reduce:bool -> k:int ->
  Mining.result option
(** The cached mining result for the named scenario, provided its digest
    — over the ordered content keys of the corpus streams contributing
    class parts, plus [reduce] and [k] — matches the current corpus.
    [None] (a mining miss) otherwise. Call only after {!ensure} on the
    same corpus. Safe from pool workers. *)

val store_mining :
  t -> Dptrace.Corpus.t -> string -> reduce:bool -> k:int ->
  Mining.result -> unit
(** Record a freshly mined result under the current digest, replacing any
    stale record for that scenario. Safe from pool workers. *)

type stats = {
  s_hits : int;  (** {!ensure} lookups served from cache. *)
  s_misses : int;  (** Streams (re)analysed. *)
  s_stale : int;  (** Loaded entries no current stream references. *)
  s_loaded : int;  (** Records read intact from disk. *)
  s_dropped : int;  (** On-disk records discarded as corrupt. *)
  s_mining_hits : int;  (** Scenarios whose mining result was reused. *)
  s_mining_misses : int;  (** Scenarios re-mined. *)
}

val stats : t -> stats

(** {1 Cache-directory tooling}

    Backs the [driveperf cache] subcommand. *)

type file_info = {
  fi_path : string;
  fi_fingerprint : string;
  fi_bytes : int;
  fi_entries : int;  (** Entries that decode and pass their checksum. *)
  fi_corrupt : int;
  fi_mtime : float;
}

val list_files : string -> string list
(** The [.dpsnap] files in a directory, name-sorted; [] if it does not
    exist. *)

val inspect : string -> file_info
(** Fully verify one cache file (never raises; damage shows up in
    [fi_corrupt] / a placeholder fingerprint). *)

val gc : keep:int -> string -> int * int
(** Delete all but the [keep] most recently modified cache files;
    [(files removed, bytes reclaimed)]. *)
