(** Incremental snapshot cache for delta re-analysis.

    A snapshot is a versioned, checksummed on-disk cache of {e per-stream}
    analysis results, keyed by content: a stream's key is its
    {!Dptrace.Codec_v2.stream_key} (the CRC of its codec-v2 frame), and a
    cache file is named by a {!fingerprint} of the analysis configuration.
    Re-running an analysis over a corpus that mostly overlaps a previous
    run — the common case: a tracing session appended a few streams —
    recomputes only the new or changed streams and merges the rest from
    cache.

    The merge is {e bit-identical} to a from-scratch run by construction.
    An entry is what {!stream_step} — the one per-stream step a fresh
    {!Pipeline.run_report} runs too — computes for the stream:
    {!Impact.result} partials (merged with {!Impact.merge}), provenance
    ({!Provenance.merge_impact}), per-module rows
    ({!Impact.merge_modules}), each scenario's all-instance impact
    ({!Impact.merge} again, into the per-scenario table) and, per spec'd
    scenario, a {!class_part}. Fresh and cached reports then absorb
    these parts into the same accumulators, so reports — including [--json] output,
    provenance witnesses and the per-scenario table — do not depend on
    which entries came from disk. An entry also keeps what a fresh
    report does not: a class part for every spec'd scenario, whichever a
    run requested.

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

    Record lifecycle. {!create} keeps the cache file's bytes and verifies
    every record: its CRC, then one full decode. A record that fails
    either is dropped, and its stream becomes a miss. A loaded entry then
    keeps only its head (stream id, impact, provenance, module rows) and,
    per scenario section, the name, whether it has a class part, and the
    section's offset in the file's bytes. {!entry_part} decodes each
    section's header (its all-instance impact) and
    {!entry_scenario_class} the whole section from those bytes each time
    they are asked, so a merge holds one decoded class part at a time.
    Entries {!ensure} computes are fresh and stay fully decoded; an
    in-memory snapshot holds only fresh entries.

    What {!save} writes, and when. Nothing, if the snapshot still
    matches its file: no miss was analysed, no mining result stored, and
    the file was read whole, undamaged and in save order. It then only
    refreshes the file's mtime, which is what {!gc} ranks recency by.
    Otherwise it streams a new file: records loaded from the old one are
    copied byte for byte, and only fresh entries and re-mined scenario
    records are encoded, one at a time. Either way the file is the one a
    from-scratch save of the same contents would write.

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

(** {1 The per-stream step} *)

type class_part = {
  cl_slow_impact : Impact.result;  (** Over the slow-class instances. *)
  cl_slow_prov : Provenance.impact;  (** Provenance of [cl_slow_impact]. *)
  cl_fast : Awg.Partial.partial;  (** Unreduced fast-class AWG forest. *)
  cl_slow : Awg.Partial.partial;  (** Unreduced slow-class AWG forest. *)
}
(** One stream's contribution to one spec'd scenario's result. *)

val class_part :
  Component.t ->
  Dptrace.Scenario.spec ->
  (Dptrace.Scenario.instance * Dpwaitgraph.Wait_graph.t) list ->
  class_part
(** One stream's class part for the scenario [spec] names, from that
    stream's instances of it and their graphs, in instance order:
    instances [spec] classifies neither fast nor slow contribute
    nothing. *)

type part =
  Impact.result
  * Provenance.impact
  * Impact.module_row list
  * (string * Impact.result) list
(** A stream's whole-stream part, as {!Impact.measure} returns it. *)

val stream_step :
  Component.t ->
  spec_of:(string -> Dptrace.Scenario.spec option) ->
  Dptrace.Stream.t ->
  part * (string * class_part option) list
(** Build the stream's wait graphs once (taking the stream's index for
    this pass only, {!Dptrace.Stream.pass_index}) and measure them once
    ({!Impact.measure}). Then group them by scenario name, in
    first-appearance order, and give each group its class part when
    [spec_of] names a spec for it. No graph outlives the step. *)

(** {1 Per-stream entries} *)

type entry
(** One stream's complete analysis contribution: {!stream_step} under
    every spec of the corpus. *)

val entry_part : entry -> part
(** The stream's whole-stream part, as {!stream_step} returned it. For a
    loaded entry, each scenario's impact is decoded from its section's
    header in the cache file's bytes. *)

val entry_scenario_class : entry -> string -> class_part option
(** The named scenario's class part; [None] when the stream has no
    instances of it (or it had no spec when the entry was computed). For
    a loaded entry each call decodes the section afresh from the cache
    file's bytes, so the caller alone holds the result. Safe from pool
    workers. *)

(** {1 Cache instances} *)

type t

val create : ?dir:string -> fingerprint:string -> unit -> t
(** Open a snapshot. With [dir], loads [dir/<fingerprint>.dpsnap] if
    present — corrupt entries are dropped (counted in {!stats}), a
    mismatched fingerprint or unreadable file yields an empty cache.
    The file's bytes stay in memory for on-demand decoding and verbatim
    saving. Without [dir] the snapshot is purely in-memory (useful in
    tests). *)

val ensure : ?pool:Dppar.Pool.t -> t -> Component.t -> Dptrace.Corpus.t -> unit
(** Make an entry available for every stream of the corpus: look each
    stream up by content key, and compute the misses' entries — in
    parallel across [pool] when given, one stream per task. Merging cached
    and fresh entries is exact, so downstream results never depend on the
    hit/miss split. *)

val drop_stale : t -> unit
(** Forget the entries the last {!ensure}'s corpus does not reference
    (its [s_stale]), here and in the next {!save}: for a corpus that
    slides over time, such as the monitor's window. *)

val entry : t -> Dptrace.Stream.t -> entry
(** Lookup after {!ensure}.
    @raise Invalid_argument for a stream never ensured. *)

val save : t -> unit
(** Write every entry back to [dir/<fingerprint>.dpsnap] (creating [dir]
    and its missing parents if needed) via a temp file and atomic rename.
    Entries are written in sorted key order: the file is a pure function
    of its contents. Untouched records are copied as loaded, and a
    snapshot that still matches its file only refreshes the file's mtime
    (see the record lifecycle above). No-op for in-memory snapshots. *)

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
  s_stale : int;  (** Entries the last {!ensure}'s corpus leaves out. *)
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
