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
    ({!Impact.add_modules}), each scenario's all-instance impact
    ({!Impact.merge} again, into the per-scenario table) and, per spec'd
    scenario, a {!class_part}. Fresh and cached reports then absorb
    these parts into the same accumulators, so reports — including [--json] output,
    provenance witnesses and the per-scenario table — do not depend on
    which entries came from disk. An entry also keeps what a fresh
    report does not: a class part for every spec'd scenario, whichever a
    run requested.

    The snapshot caches nothing else. Every report, cached or not, mines
    its scenarios with {!Mining.mine} over the merged forests: the
    entries reproduce those forests exactly and the miner is
    deterministic over them, so a cached report's patterns are the
    fresh report's.

    Robustness: a snapshot is a cache, never a source of truth. Entries
    are individually CRC-32 framed; an unreadable file, a stale
    fingerprint, a checksum failure or an undecodable entry all degrade to
    cache misses, never to errors or wrong results.

    Record lifecycle. An entry has one form: its framed record, the
    bytes {!save} writes for it. The cache file is never held whole.
    {!create} streams it record by record and verifies each: its CRC,
    then its one reader without [build] (see {!entry_index}). A record
    that fails either is dropped, and its stream becomes a miss. A
    loaded entry keeps no bytes, only where its record lies in the file,
    which stays open; a hit reads that span back into a string the
    returned entry owns. A fresh entry, computed on a miss, is framed
    once. Beside the record an entry keeps only each scenario section's
    name, offset and class flag. {!entry_parts} decodes from the record
    each time it is asked, so a merge holds one entry's decoded parts at
    a time.

    An entry's payload ([dpsnap-4]) names each string and each scenario
    instance once: it starts with the stream id, a table of the entry's
    distinct names in first-use order and its stream's instance table
    ({!Provenance.Tables}); every ref after that is an instance index
    and every name a name index. The head is thus the stream's skeleton,
    which a hit takes instead of parsing its corpus frame.

    What {!save} writes, and when. Nothing, if the snapshot still
    matches its file: it wrote the file, or read it whole, undamaged and
    in save order, and no miss was analysed and no entry dropped since. It then only refreshes the file's
    mtime, which is what {!gc} ranks recency by. Otherwise it streams a
    new file of entry records, each copied byte for byte: a fresh one
    from its string, loaded ones from the open file. Either way the
    file is the one a from-scratch save of the same contents would
    write. A file from before [dpsnap-4] has another fingerprint, so it
    is never opened; {!inspect} counts its records corrupt.

    Observability: spans [snapshot.open] ({!create}), [snapshot.ensure]
    and [snapshot.save]; metrics [snapshot.hit]/[snapshot.miss]
    ({!settle}), [snapshot.bytes], [snapshot.stale] (by {!drop_stale} or
    {!save}, whichever meets the stale entry first), when
    {!Dpobs.metrics_on}. *)

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
    ({!Impact.measure}, which also measures each spec'd scenario's slow
    class). Then group them by scenario name, in first-appearance order,
    and give each group its class part when [spec_of] names a spec for
    it: the slow class's impact and the unreduced AWG forests of the
    group's fast and slow graphs, in instance order. No graph outlives
    the step. *)

(** {1 Per-stream entries} *)

type entry
(** One stream's complete analysis contribution: {!stream_step} under
    every spec of the corpus. *)

val entry_parts :
  id:int -> wants:(string -> bool) -> entry -> part * (string * class_part option) list
(** The stream's whole-stream part, as {!stream_step} returned it, and
    per scenario section, in the entry's order, the class part of each
    scenario [wants] names ([None] for the others, and where the stream
    had no spec for it when the entry was computed). Refs are made under
    the id [id] the stream is absorbed under (a window id in the
    monitor). Decoded afresh at each call, so the caller alone holds
    the parts; names are interned in the order the decode meets them.
    Safe from pool workers. *)

(** {1 Entry records}

    An entry record's payload has one reader, with two modes as
    {!Dptrace.Codec_v2}'s stream payload has. With [build] it decodes:
    {!entry_parts} is made of it. Without
    [build] it makes the same checks, in the same order, but builds no
    impact, ref, reservoir, module row or forest and interns no
    signature (it makes only the entry's name and instance tables,
    which the checks read): {!create}
    and {!inspect} check every record they load that way. Both check
    every name and instance index against its table, and that the name
    table is in first-use order with every name used. *)

val entry_index : build:bool -> string -> (string * int * bool) list
(** Read one record's payload whole and return its section index: each
    scenario section's name, offset in the payload and class flag.
    @raise Dptrace.Wire.Corrupt on a malformed payload, with the same
    message whether or not [build] is set. *)

(** {1 Cache instances} *)

type t

val create : ?dir:string -> fingerprint:string -> unit -> t
(** Open a snapshot. With [dir], loads [dir/<fingerprint>.dpsnap] if
    present — corrupt entries are dropped (counted in {!stats}), a
    mismatched fingerprint or unreadable file yields an empty cache.
    The file stays open, and no record's bytes stay in memory: hits and
    {!save} read them back. Writers only rename over the path, so the
    snapshot reads the file it opened, whatever replaces the path.
    Without [dir] the snapshot is purely in-memory (useful in tests). *)

val lookup_or_step :
  ?borrow:bool ->
  t ->
  Component.t ->
  specs:Dptrace.Scenario.spec list ->
  Dptrace.Codec_v2.frame ->
  entry * Dptrace.Stream.t
(** The per-stream step of a pass, with the stream's skeleton: on a hit,
    the stream's entry, looked up by the frame's key, its record read
    back from the file, and {!Dptrace.Codec_v2.frame_skeleton} given the
    entry's id and instances, so under [`Strict] a hit's payload is
    never parsed (the key is the payload's CRC and length, and an entry
    exists only for a payload that decoded in full), and under
    [`Recover] it is decoded and validated; on a miss, or a hit
    whose record can no longer be read whole (the file was truncated
    since it was opened), {!stream_step} under every spec of the
    decoded stream, framed. Never raises for the cache's sake: a short
    read or an I/O error is a miss. Books nothing, so it is safe on pool
    workers, provided no {!settle} runs meanwhile: a pass settles its
    entries, in order, after its fold.

    A hit's record is read into a string the entry owns, unless
    [~borrow:true] (default [false]): then it is read into a buffer of
    the calling domain, so a hit allocates nothing, and its bytes hold
    only until that domain's next borrowing lookup. The caller decodes
    such an entry ({!entry_parts}) before then,
    keeps it no longer, and settles it under this snapshot, which needs
    only its key. *)

val settle : t -> entry -> unit
(** Book a stepped stream, on one domain in corpus order, while no
    {!lookup_or_step} runs: mark its key used by this pass, and count a
    hit, storing nothing, or a miss, storing the entry (a hit whose
    record could not be read back is a miss, and its fresh entry
    replaces the record).
    Only streams a pass keeps are settled, so a quarantined stream leaves
    no entry. An entry may be settled long after its step, and under
    another {!t} of the same fingerprint: whether it counts as a hit is
    decided here, by this snapshot's entries. *)

val new_pass : t -> unit
(** Forget the last pass's used keys: the {!settle}s that follow make
    the next pass, which {!drop_stale} and {!save} then see. *)

val ensure : ?pool:Dppar.Pool.t -> t -> Component.t -> Dptrace.Corpus.t -> unit
(** A pass over a resident corpus: {!new_pass}, then {!lookup_or_step}
    every stream, borrowing, across [pool], and {!settle} each once
    every lookup has run. Merging
    cached and fresh entries is exact, so downstream results never
    depend on the hit/miss split. *)

val drop_stale : t -> unit
(** Forget the entries the last pass did not settle (its [s_stale]),
    here and in the next {!save}: for a corpus that slides over time,
    such as the monitor's window. *)

val entry : t -> Dptrace.Stream.t -> entry
(** Lookup after a pass that settled the stream, its record read back
    from the file as {!lookup_or_step} reads a hit's.
    @raise Invalid_argument for a stream never settled.
    @raise Failure when its record can no longer be read whole. *)

val save : t -> unit
(** Write every entry back to [dir/<fingerprint>.dpsnap] (creating [dir]
    and its missing parents if needed) via a temp file and atomic rename.
    Entries are written in sorted key order: the file is a pure function
    of its contents. A loaded record that can no longer be read whole is
    left out. The snapshot then reads the file it wrote, and closes the
    one it read. A snapshot that still matches its file only refreshes
    the file's mtime (see the record lifecycle above). No-op for
    in-memory snapshots. *)

type stats = {
  s_hits : int;  (** Settled streams served from cache. *)
  s_misses : int;  (** Settled streams (re)analysed. *)
  s_stale : int;  (** Entries the last pass did not settle. *)
  s_loaded : int;  (** Records read intact from disk. *)
  s_dropped : int;  (** On-disk records discarded as corrupt. *)
  s_mining_hits : int;
  s_mining_misses : int;
      (** Always 0: the snapshot caches no mining results. Kept for
          readers of the stats that predate [dpsnap-3]. *)
}

val stats : t -> stats

(** {1 Cache-directory tooling}

    Backs the [driveperf cache] subcommand. *)

type file_info = {
  fi_path : string;
  fi_fingerprint : string;
  fi_bytes : int;
  fi_entries : int;  (** Records that pass their checksum and read whole. *)
  fi_corrupt : int;
  fi_mtime : float;
}

val list_files : string -> string list
(** The [.dpsnap] files in a directory, name-sorted; [] if it does not
    exist. *)

val inspect : string -> file_info
(** Fully verify one cache file, streamed by {!create}'s reader (never
    raises; damage shows up in [fi_corrupt] / a placeholder
    fingerprint). *)

val gc : keep:int -> string -> int * int
(** Delete all but the [keep] most recently modified cache files;
    [(files removed, bytes reclaimed)]. *)
