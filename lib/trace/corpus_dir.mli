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
  l_corpus : Corpus.t;  (** What the read kept; see {!fold}. *)
  l_format : format;
  l_bytes : int;  (** File size. *)
  l_report : Codec_v2.report option;  (** Framed v2 loads only. *)
}

val fold :
  ?pool:Dppar.Pool.t ->
  ?mode:Codec_v2.mode ->
  step:(Scenario.spec list -> Stream.t -> 'a) ->
  consume:('a -> Stream.t option) ->
  string ->
  (loaded, string) result
(** Sniff one corpus file and hand it over stream by stream: each stream
    goes through [step] (with the corpus specs), on [pool] in batches,
    and each result through [consume], on the calling domain in file
    order. [l_corpus] holds the specs and the streams [consume]
    returned. A framed v2 file is read by {!Codec_v2.fold}, so only a
    batch of its streams is ever decoded at once; a text file is loaded
    whole and then handed over by {!fold_corpus}. All decode failures —
    including [`Strict]-mode corruption and text parse errors — come
    back as [Error message] rather than an exception, so a long-running
    caller can count the failure and move on. [mode] defaults to
    [`Strict]. *)

val load :
  ?pool:Dppar.Pool.t ->
  ?mode:Codec_v2.mode ->
  string ->
  (loaded, string) result
(** {!fold} that keeps every stream whole: the resident corpus. A text
    file is returned as loaded. *)

val fold_corpus :
  ?pool:Dppar.Pool.t ->
  step:(Scenario.spec list -> Stream.t -> 'a) ->
  consume:('a -> Stream.t option) ->
  Corpus.t ->
  Corpus.t
(** {!fold}'s hand-over for a corpus already in memory: the same
    batches on [pool] and the same consumption order. *)

val save : ?pool:Dppar.Pool.t -> string -> Corpus.t -> format * int
(** Encode by extension — [.dpf] framed v2 (payloads encoded on [pool]),
    anything else text — and return the format written and the file
    size in bytes.
    @raise Invalid_argument if the text format cannot encode a name
    ({!Codec.corpus_to_string})
    @raise Sys_error if the file cannot be written. *)
