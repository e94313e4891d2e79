(** The content-keyed result cache: an in-memory LRU with an optional
    append-only on-disk JSONL journal.

    Entries are keyed by {!Request.key} content hashes and hold the
    response payload (a {!Lb_observe.Json.t} — an experiment table or a
    certification verdict).  The in-memory side is a bounded LRU: a
    {!find} touches the entry, a {!store} past capacity evicts the least
    recently used one.

    When created with a [path], every store {e appends} one JSONL line

    {v {"key": <hash>, "request": <canonical request>, "response": <payload>} v}

    and flushes, so the journal survives a crash at any point: reloading
    replays the lines oldest-first (the last occurrence of a key wins,
    capacity applies as usual) and {e skips} lines that are truncated,
    unparseable or missing fields, counting them in {!corrupt} instead of
    failing — a damaged cache file degrades to a smaller cache, never to a
    dead server.  The journal is a log, not a snapshot: it is never
    rewritten, and re-stores of a key simply append a newer line.

    Durability has two notches.  By default every append is flushed to
    the OS (survives a process crash); with [~fsync:true], {!sync} —
    which the server calls at each batch boundary — additionally
    [fsync]s the journal fd (survives a machine crash, at a
    per-batch rather than per-store cost). *)

open Lb_observe

type t

val create : ?capacity:int -> ?path:string -> ?fsync:bool -> unit -> t
(** [capacity] defaults to 256 entries (raises [Invalid_argument] when
    [< 1]).  With [path], an existing journal is reloaded first and the
    file is then opened for appending (created if absent); a torn final
    record is newline-terminated so subsequent appends start clean.
    [fsync] (default [false]) arms {!sync}. *)

val find : t -> string -> Json.t option
(** Lookup by content hash; a hit makes the entry most-recently-used. *)

val mem : t -> string -> bool
(** [mem] does {e not} touch LRU order. *)

val store : t -> key:string -> request:Json.t -> Json.t -> unit
(** Insert or refresh an entry (now most-recently-used), evicting the LRU
    entry if the capacity is exceeded, and journal the store when the
    cache is disk-backed ([request] is written to the journal line for
    human readers; reload ignores it). *)

val length : t -> int
(** Live entries currently in memory. *)

val capacity : t -> int
(** The LRU bound this cache was created with. *)

val evictions : t -> int
(** Entries dropped by LRU eviction since creation. *)

val loaded : t -> int
(** Journal lines successfully replayed at creation (0 for memory-only). *)

val corrupt : t -> int
(** Journal lines skipped as damaged at creation. *)

val sync : t -> unit
(** [fsync] the journal fd — a no-op unless the cache was created with
    [~fsync:true] and a [path].  The server calls this at every batch
    boundary, so acknowledged results are machine-crash durable without
    paying an fsync per store. *)

val close : t -> unit
(** Flush and close the journal channel (idempotent; no-op when
    memory-only).  The cache remains usable in memory afterwards, but
    further stores are no longer journalled. *)
