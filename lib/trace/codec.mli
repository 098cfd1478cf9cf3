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
    at most its first 32 bytes. *)

exception Parse_error of { line : int; message : string }

val corpus_to_string : Corpus.t -> string
(** @raise Invalid_argument if a thread, scenario or spec name, or a
    callstack frame signature, contains whitespace or [';'] — such
    corpora cannot round-trip through the text format (use {!Codec_v2},
    or rename). *)

val corpus_of_string : string -> Corpus.t
(** @raise Parse_error on malformed input. *)

val save : string -> Corpus.t -> unit
(** Write to a file path, in binary mode (no newline translation).
    @raise Invalid_argument as {!corpus_to_string}. *)

val load : string -> Corpus.t
(** Read from a file path.
    @raise Parse_error on malformed input
    @raise Sys_error if the file cannot be opened. *)
