(** Minimal single-threaded HTTP responder for the metrics endpoint.

    One listening socket, one connection at a time, served inline from
    the monitor's own loop between ticks — no threads, no domain, no
    request queueing. That is deliberately tiny: the only client is a
    metrics scraper hitting [/metrics] every few seconds, and serving
    from the loop means the exposition is always a consistent snapshot
    (never read mid-tick). *)

type t

val start : string -> t
(** [start spec] binds and listens. [spec] is ["PORT"] (loopback) or
    ["HOST:PORT"]; port 0 picks an ephemeral port (see {!port}). It also
    sets SIGPIPE to be ignored for the whole process, so a client that
    disconnects mid-response surfaces as a write error on that
    connection instead of killing the process.
    @raise Failure when the address cannot be bound or parsed. *)

val port : t -> int
(** The bound port — useful after binding port 0. *)

val poll : t -> timeout_s:float -> body:(unit -> string) -> bool
(** Wait up to [timeout_s] for one connection and serve it: [GET /] and
    [GET /metrics] answer 200 with [body ()] as an OpenMetrics
    exposition, any other path 404, anything unparsable 400. Returns
    whether a connection was handled. Never raises on client
    misbehaviour (bad request, early close): the connection is dropped
    and [poll] returns [true]. A client that has not sent a complete
    request head within [timeout_s] (at least 50 ms) of being accepted
    gets 400 and is dropped, so a client that connects and sends
    nothing delays [poll] by at most that long. *)

val stop : t -> unit
(** Close the listening socket. Idempotent. *)
