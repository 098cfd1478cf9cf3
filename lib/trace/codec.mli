(** Versioned text serialisation of corpora: the interchange format.
    Its binary counterpart, for volume and damage containment, is the
    framed {!Codec_v2}; {!Corpus_dir} picks between the two.

    The format is line-oriented so that real tracing backends (ETW via
    [xperf], DTrace scripts) can be converted to it with a small exporter:

    {v
    dptrace 1
    spec <name> <tfast_us> <tslow_us>
    stream <id>
    thread <tid> <name>
    event <kind> <tid> <ts_us> <cost_us> <wtid> <frame;frame;...>
    instance <scenario> <tid> <t0_us> <t1_us>
    end
    v}

    [kind] is one of [run]/[wait]/[unwait]/[hw]; frames are topmost-first
    and may not contain [';'] or whitespace. [wtid] is [-1] except on
    unwaits. Thread names may not contain whitespace. A file whose first
    line is not the [dptrace 1] header is refused with an error quoting
    at most its first 32 bytes.

    Specs precede the first [stream] line, as a framed file's header is
    its frame 0: a reader steps each stream under the specs read before
    it, so a spec after a stream is a {!Fields.Parse_error}. *)

val save : string -> Corpus.t -> unit
(** Write to a file path, in binary mode (no newline translation), a
    stream at a time as each is formatted: the text is never held whole.
    @raise Invalid_argument, before the file is created, if a thread,
    scenario or spec name, or a callstack frame signature, contains
    whitespace or [';'] — such corpora cannot round-trip through the
    text format (use {!Codec_v2}, or rename). *)

val read : string -> (Scenario.spec list -> Stream.t -> unit) -> Scenario.spec list
(** [read path push] parses a file in one pass, holding only the stream
    being parsed: [push specs st] gets each stream at its [end] line, on
    the calling domain in file order. Returns the specs.
    @raise Fields.Parse_error on malformed input, after the streams
    before it were pushed
    @raise Sys_error if the file cannot be opened. *)
