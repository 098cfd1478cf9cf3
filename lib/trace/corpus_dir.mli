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
  step:(Scenario.spec list -> Codec_v2.frame -> 'a) ->
  consume:('a -> Stream.t option) ->
  string ->
  (loaded, string) result
(** Sniff one corpus file and hand it over stream by stream under
    {!Codec_v2.fold}'s contract, whatever the format: [step] applied to
    the corpus specs once, on the calling domain, at the first stream;
    each stream through the closure it returned, on [pool] through its
    window; each result through [consume], on the calling domain in file
    order. [l_corpus] holds the specs and the streams [consume] returned.
    A text file is read by {!Codec.read} through {!fold_streams}. All
    decode failures — including [`Strict]-mode corruption and text parse
    errors, met after the streams before them were stepped — come back
    as [Error message] rather than an exception, so a long-running
    caller can count the failure and move on. [mode] defaults to
    [`Strict]. *)

val load :
  ?pool:Dppar.Pool.t ->
  ?mode:Codec_v2.mode ->
  string ->
  (loaded, string) result
(** {!fold} keeping every stream whole: the resident corpus. *)

val reload :
  ?pool:Dppar.Pool.t ->
  ?mode:Codec_v2.mode ->
  string ->
  Stream.t list ->
  (Stream.t list, string) result
(** [reload path skeletons]: {!fold} keeping, whole and in file order,
    the first stream of each content key ({!Codec_v2.frame_key}) that
    one of [skeletons] carries ({!Stream.key_memo}). A frame is decoded
    only when its key is wanted, and a framed file's key is read from
    the frame envelope; a text file's streams are parsed again, and the
    key computed only of those whose instances are a skeleton's. A key
    not in the file is [Error "<path> changed since it was read"]. *)

val fold_streams :
  ?pool:Dppar.Pool.t ->
  step:(Scenario.spec list -> Codec_v2.frame -> 'a) ->
  consume:('a -> Stream.t option) ->
  ((Scenario.spec list -> Stream.t -> unit) -> Scenario.spec list) ->
  Corpus.t
(** [fold_streams ~step ~consume feed]: {!fold}'s hand-over for parsed
    streams. [feed push], on the calling domain, pushes each stream with
    its specs (the first push applies [step] to them) and returns the
    corpus specs. Each stream is stepped as a {!Codec_v2.resident}
    frame, through the window, so at most a window of them is held. *)

val save : ?pool:Dppar.Pool.t -> string -> Corpus.t -> format * int
(** Encode by extension — [.dpf] framed v2 (payloads encoded on [pool]),
    anything else text — and return the format written and the file
    size in bytes.
    @raise Invalid_argument if the text format cannot encode a name
    ({!Codec.save})
    @raise Sys_error if the file cannot be written. *)
