(** The batching executor: the cache-aware bridge between queued requests
    and the domain pool.

    [run_batch] takes every request currently queued (one coalesced batch)
    and serves it in three tiers:

    + {e cache hits} — requests whose {!Request.key} is already cached are
      answered immediately, without recomputation;
    + {e in-flight duplicates} — among the remaining requests, those with
      an identical key are collapsed onto one computation: the table is
      computed exactly once per distinct key, however many clients asked
      for it in the batch;
    + {e distinct misses} — fanned across {!Lb_exec.Pool.map} at the
      executor's job count, each task under the pool's per-task
      metrics/tracer capture (merged deterministically at join), then
      stored in the cache.

    Responses come back in request order.  A compute that raises is caught
    and reported as an [Error] response — one poisoned request must not
    take down a batch, let alone the server.

    Every batch publishes [service.*] metrics into the current
    {!Lb_observe.Metrics} registry: [service.requests], [service.hits],
    [service.misses], [service.dedup_inflight], [service.errors],
    [service.timeouts] (counters), [service.queue_depth] (gauge: the size
    of the batch being drained), and [service.latency_ms] (histogram, one
    observation per response).

    {b Timeouts.}  With [timeout_s] set and [jobs = 1], each computation
    runs under a [SIGALRM] interval-timer deadline and times out
    individually.  At [jobs > 1] signal delivery cannot safely interrupt
    sibling domains mid-join, so the deadline is not armed and the
    timeout is advisory only — the trade-off is documented rather than
    half-enforced. *)

open Lb_observe

type t

val create :
  ?jobs:int ->
  ?timeout_s:float ->
  cache:Cache.t ->
  compute:(jobs:int -> Request.t -> (Json.t, string) result) ->
  unit ->
  t
(** [jobs] (default 1) is the fan-out across distinct misses; [0] means
    {!Lb_exec.Pool.default_jobs}.  [compute ~jobs req] receives the job
    count the computation itself may use internally: the request's own
    [jobs] hint when the executor is sequential, [1] when the executor is
    already fanning out (nested pools stay sequential inside). *)

type outcome =
  | Ok of Json.t  (** the computed or cached payload. *)
  | Error of string
  | Timeout

type response = {
  request : Request.t;
  key : string;
  outcome : outcome;
  cached : bool;  (** served from the cache without recomputation. *)
  deduped : bool;  (** collapsed onto another in-flight request's computation. *)
  elapsed_s : float;  (** this request's service time (≈0 for hits/dups). *)
}

val run_batch : t -> Request.t list -> response list
(** Serve one coalesced batch; responses in request order. *)

val response_to_json : response -> Json.t
(** The wire form: [{"status": "ok"|"error"|"timeout", "key", "cached",
    "deduped", "elapsed_s", "request", and "data" | "error"}]. *)

val cache : t -> Cache.t
