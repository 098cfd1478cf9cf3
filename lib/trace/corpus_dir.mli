(** Corpus files on disk: format sniffing, directory scanning, loading
    and saving.

    The CLI and the monitor share this logic: the monitor tails a
    directory of stream files and must survive — and report — a corrupt
    drop-in rather than [exit 1].

    A "corpus file" is one of the two driveperf encodings: text v1
    ([.dpt], {!Codec}) or framed v2 ([.dpf], {!Codec_v2}). Input is
    detected by content magic with the extension as fallback, so a
    renamed file is never mis-parsed; output is selected by extension.
    The binary v1 container ([DPTB] magic) is no longer read: such a file
    fails to load as text, with a one-line error. *)

type format = Text | Framed

val format_name : format -> string
(** ["text v1"] / ["framed v2"]. *)

val sniff_format : string -> format
(** Read the first bytes of [path] and match the magics ("dptrace",
    "DPTF"); falls back to the extension ([.dpf] is framed), then to
    text. *)

val is_corpus_file : string -> bool
(** By extension: [.dpt] or [.dpf]. *)

(** {1 Directory scanning} *)

type entry = {
  e_path : string;  (** Full path (dir/name). *)
  e_mtime_ms : int;  (** Last modification, milliseconds since epoch. *)
  e_size : int;  (** Bytes. *)
}

val scan : string -> entry list
(** Corpus files directly under the directory, sorted by file name (no
    recursion). Files that vanish between listing and [stat] are
    skipped. @raise Sys_error when the directory itself is unreadable. *)

(** {1 Loading and saving} *)

type loaded = {
  l_corpus : Corpus.t;
  l_format : format;
  l_bytes : int;  (** File size. *)
  l_report : Codec_v2.report option;  (** Framed v2 loads only. *)
}

val load :
  ?pool:Dppar.Pool.t ->
  ?mode:Codec_v2.mode ->
  string ->
  (loaded, string) result
(** Sniff and decode one corpus file. All decode failures — including
    [`Strict]-mode corruption and text parse errors — come back as
    [Error message] rather than an exception, so a long-running caller
    can count the failure and move on. [mode] defaults to [`Strict]. *)

val save : ?pool:Dppar.Pool.t -> string -> Corpus.t -> format * int
(** Encode by extension — [.dpf] framed v2 (payloads encoded on [pool]),
    anything else text — and return the format written and the file
    size in bytes.
    @raise Invalid_argument if the text format cannot encode a name
    ({!Codec.corpus_to_string})
    @raise Sys_error if the file cannot be written. *)
