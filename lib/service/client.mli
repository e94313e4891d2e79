(** The line-JSON client side of the service protocol.

    [call] opens one connection to the server's Unix-domain socket, writes
    every given JSON value as its own line, and reads exactly one response
    line per line sent — the server answers in order.  Reads are
    multiplexed through [Unix.select] with a deadline, so a wedged server
    yields [Error] rather than a hang.

    Every failure mode is a typed {!error}; no function here raises on
    malformed server behaviour (truncated line, non-JSON reply, a reply
    keyed by an unknown hash) — that is pinned by fuzz tests against
    deliberately broken servers in [suite_service]. *)

open Lb_observe

type error =
  | Connect of { socket : string; reason : string }
  | Send of string
  | Timeout of float  (** the configured deadline, in seconds. *)
  | Closed  (** the server closed the connection before every reply. *)
  | Bad_line of { line : string; reason : string }
      (** a complete reply line that is not valid JSON. *)
  | Unknown_key of { key : string; line : string }
      (** a reply whose ["key"] matches no request in the batch
          ({!request} only). *)

val error_message : error -> string
val pp_error : Format.formatter -> error -> unit

val call : socket:string -> ?timeout_s:float -> Json.t list -> (Json.t list, error) result
(** Connect to the Unix-domain socket at path [socket], send the lines,
    await as many responses ([timeout_s] defaults to 60 seconds of total
    wall-clock).  An incomplete trailing line at the point the expected
    reply count is reached is ignored — only complete (newline-terminated)
    lines count as replies. *)

val request :
  socket:string -> ?timeout_s:float -> Request.t list -> (Json.t list, error) result
(** {!call} on the canonical serialisations, then validate that every
    keyed reply's ["key"] belongs to the batch ([Unknown_key] otherwise).
    Replies arrive in request order. *)

val wait_ready : socket:string -> ?attempts:int -> ?interval_s:float -> unit -> bool
(** Poll until a [ping] round-trips (true) or [attempts] (default 100)
    spaced [interval_s] (default 0.05 s) are exhausted (false) — for
    scripts that just started a server in the background. *)
