(** Component selection.

    Both analyses are scoped to "chosen components" — in the paper's study,
    all device drivers, selected by matching the module part of callstack
    frames against the wildcard ["*.sys"] (Section 5.1). *)

type t

val of_patterns : string list -> t
(** Compile wildcard patterns over module names. *)

val drivers : t
(** The paper's device-driver filter: [of_patterns \["*.sys"\]] plus
    hardware-service dummy signatures (["DiskService"]-style names carry no
    ['!'], but represent the devices that drivers serve, and Definition 3
    keeps them as dummy signatures in the analysis). *)

val patterns : t -> string list

val matches_signature : t -> Dptrace.Signature.t -> bool
(** Does a single signature's module part match? Equal to
    [Dptrace.Signature.matches] over the compiled patterns, with each
    signature's verdict computed once per [t] and kept; safe to call
    from several domains at once. *)

val event_signature : t -> Dptrace.Event.t -> Dptrace.Signature.t option
(** The paper's per-event "signature": the topmost frame whose module part
    matches one of the patterns (Definition 2's preamble), or [None] when
    the event is component-irrelevant; for hardware-service events under
    {!drivers}, the dummy signature. *)

val event_signature_or_top : t -> Dptrace.Event.t -> Dptrace.Signature.t
(** [event_signature], falling back to the topmost frame, then to
    ["<none>"] for an empty stack — total, for graph labelling. *)
