(** The request server: a hand-rolled accept loop on a Unix-domain
    socket, speaking line-delimited JSON.

    Protocol: a client connects, writes one JSON object per line, and
    receives one JSON response line per request, in order.  Lines that
    parse as a {!Request} are queued; everything queued when the loop
    wakes up — across {e all} connected clients — is drained as one
    {!Executor.run_batch}, which is where coalescing and in-flight
    deduplication happen: two clients asking for the same table while it
    is being scheduled get one computation.  Control lines

    {v {"op": "ping"} | {"op": "metrics"} | {"op": "shutdown"} v}

    are answered immediately ([metrics] returns the current
    {!Lb_observe.Metrics} registry snapshot — the [service.*] family
    included; [shutdown] answers, finishes nothing further and stops the
    loop).  Malformed lines get an ["error"] response rather than killing
    the connection.

    The loop multiplexes with [Unix.select] — no helper threads, no
    external dependencies — and shuts down gracefully on [SIGINT] /
    [SIGTERM] (current batch finished, every pending response written,
    socket file unlinked, cache journal flushed and closed).

    {b Robustness} (docs/ROBUSTNESS.md).  Replies are written with an
    explicit short-write-safe loop, so a tiny send buffer only slows a
    reply, never corrupts it.  The journal append for a stored result
    happens inside {!Executor.run_batch}, strictly before the reply is
    written, so an acknowledged result is always already journalled. *)

type stats = {
  served : int;  (** requests answered (control lines excluded). *)
  batches : int;  (** coalesced batches drained. *)
  clients : int;  (** connections accepted over the server's lifetime. *)
}

val write_line : Unix.file_descr -> Lb_observe.Json.t -> unit
(** Write one newline-terminated JSON line, looping until every byte is
    written ([Unix.single_write] can stop short on nonblocking or
    small-buffer fds).  Swallows [Unix_error] — a vanished peer drops the
    line.  Exposed for tests and for tools speaking the wire protocol. *)

val serve :
  socket:string ->
  executor:Executor.t ->
  ?max_requests:int ->
  ?log:(string -> unit) ->
  unit ->
  stats
(** Bind a Unix-domain socket at path [socket] (an existing socket file is
    replaced) and serve until a [shutdown] op, a signal, or — when
    [max_requests] is given — until that many requests have been
    answered.  [log] receives one-line progress notes (default: silent).
    Once bound, every exit — including an exception escaping the loop,
    which is re-raised — closes the client and listening fds, unlinks the
    socket file, closes the executor's cache journal and restores the
    [SIGPIPE]/[SIGINT]/[SIGTERM] handlers. *)
