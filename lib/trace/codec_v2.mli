(** Framed, checksummed corpus serialisation (format v2), the one binary
    corpus format.

    The text codec ({!Codec}) is read a stream at a time too, but
    parsed on one domain, and a single corrupt byte aborts the rest of
    the read. At the paper's evaluation shape (~19,500 traces / ~505,500
    scenario instances) that is not acceptable: this format holds each
    trace stream in its own length-prefixed, CRC32-checksummed frame, so
    a reader holds one frame at a time, frames decode in parallel on a
    {!Dppar.Pool}, and a corrupt frame costs exactly the stream it
    contains. A file is read through a {!Wire.window}, which clamps a
    frame's length to the bytes the file has left before it allocates,
    so a damaged length field costs no more memory than the file.

    On-disk layout ([u32] is {!Wire.w32}; [v]/[str] are the LEB128
    varint and length-prefixed string of {!Wire}):
    {v
    magic "DPTF" '\002'
    frame*
    frame :=
      marker   4 bytes 0xF7 'D' 'P' 0xF2   (resynchronisation point)
      kind     1 byte  'H' | 'S' | 'E'
      length   u32     payload byte count
      crc32    u32     CRC-32 of kind byte + payload
      payload  length bytes
    'H' (header, frame 0): v #specs, each: str name, v tfast, v tslow
    'S' (one per stream): v #signatures, each str     (frame-local table)
                          v id
                          v #threads,   each: v tid, str name
                          v #events,    each: u8 kind, v tid,
                                        v wtid(+1 biased), v ts, v cost,
                                        v depth, v sig-index ...
                          v #instances, each: str scenario, v tid,
                                        v t0, v t1
    'E' (trailer, last):  v #stream-frames written
    v}

    Each stream frame carries its own signature table, so every frame
    decodes on its own: corruption in one frame cannot strand the
    signatures — hence the data — of any other. A stream payload is
    refused (unknown event kind, stack depth above 65535, signature
    index out of range, instance with [t1 < t0], varint overflow) exactly
    where the text reader would refuse the same stream.

    {b The header is frame 0, enforced.} Readers step streams as they
    arrive, under the specs the header declared, so a specs frame
    anywhere else is damage: [`Strict] raises {!Wire.Corrupt} on it and
    [`Recover] drops it with a diagnostic. A file whose frame 0 is not a
    header (or whose header frame is corrupt) has no specs.

    {b Recovery.} In [`Strict] mode (the default) any corruption raises
    {!Wire.Corrupt}, including truncation at a clean frame boundary (the
    trailer count catches it). In [`Recover] mode the reader records a
    {!diagnostic} for each bad frame, resynchronises on the next frame
    marker, and keeps loading; surviving streams are additionally
    required to pass {!Validate.check} (a checksum collision must not
    leak invalid data into the analysis). The result is the surviving
    corpus plus a {!report} naming every dropped frame; the
    [codec_v2.frames_dropped] counter advances by its length. *)

val magic : string
(** The 5-byte file magic, ["DPTF\002"]; use it to sniff the format. *)

type mode = [ `Strict | `Recover ]

type diagnostic = {
  frame : int;  (** 0-based frame ordinal in the file; the header is 0. *)
  offset : int;  (** Byte offset of the frame (or of the damage). *)
  reason : string;
}

type report = {
  frames : int;  (** Frames successfully framed (checksum verified). *)
  streams : int;  (** Streams delivered to the caller. *)
  dropped : diagnostic list;  (** In file order; empty under [`Strict]. *)
}

val pp_diagnostic : Format.formatter -> diagnostic -> unit

(** {1 Whole corpus} *)

val encode : ?pool:Dppar.Pool.t -> Corpus.t -> string
val save : ?pool:Dppar.Pool.t -> string -> Corpus.t -> unit
(** Header, one frame per stream, trailer. With a [pool] of size > 1 the
    per-stream frame payloads are encoded in parallel (output order is
    the corpus order either way). *)

(** {1 Folding} *)

type frame
(** One stream as a fold hands it to its step: its content key, known
    before anything is parsed, and the stream, parsed on demand. A
    frame is valid only inside the step it was given to. *)

val frame_key : frame -> string
(** The stream's {!stream_key}: for a stream frame, what its envelope
    stores, so nothing is parsed. *)

val frame_stream : frame -> Stream.t
(** The stream, decoded in full (and, under [`Recover], validated). *)

val frame_skeleton : frame -> Stream.t
(** [Stream.skeleton (frame_stream f)], computed under [`Strict] by a
    walk of the payload that makes every check the decode makes but
    builds no event and interns no signature. Under [`Recover] it decodes
    and validates in full, so a stream that fails {!Validate.check} is
    dropped whether or not its events are wanted. *)

val resident : Stream.t -> frame
(** A stream already in memory, handed over as a frame. *)

val fold :
  ?mode:mode ->
  ?pool:Dppar.Pool.t ->
  step:(Scenario.spec list -> frame -> 'a) ->
  consume:('a -> Stream.t option) ->
  string ->
  Corpus.t * report
(** The one read of a framed file: one pass that never holds more than
    a batch of streams. Frames are checksum-verified in file order. Each
    stream frame is handed to [step] (with the header's specs), which
    parses it as far as it needs ({!frame_stream} or
    {!frame_skeleton}), inside one work item, in batches of
    [4 * size pool] on a [pool] of size > 1. Each result then goes to
    [consume] on the calling domain, in file order. The returned corpus
    holds the header's specs and the streams [consume] returned, in file
    order: a {!Stream.skeleton} keeps it small, [None] keeps nothing. The
    report's [streams] counts every stream handed to [consume]. The
    file is read as long as it was when opened; a frame longer than the
    bytes left is refused ([truncated payload]) without allocating its
    length. Results
    are identical for every pool size. Under [`Recover], a stream frame
    that fails to parse or validate in [step] is dropped with its
    diagnostic and never reaches [consume].
    @raise Wire.Corrupt in [`Strict] mode on any corruption, possibly
    after earlier streams were consumed
    @raise Sys_error if the file cannot be opened. *)

(** {1 Stream content identity} *)

val stream_key : Stream.t -> string
(** The stream's content identity: the CRC-32 and byte length of its 'S'
    frame, as ["%08x-%d"] — exactly what the frame envelope stores on
    disk. Streams decoded by {!fold} carry the key
    already (captured from the verified frame checksum, via
    {!Stream.key_memo}); for any other stream the payload is re-encoded
    once here and the key memoised. Two streams share a key iff their
    serialised content is identical, which is what makes it safe as a
    cache key for per-stream analysis results ({!Dpcore.Snapshot}). *)
