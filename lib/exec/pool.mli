(** A fixed pool of domains with deterministic, order-preserving results.

    [map ~jobs f xs] computes [List.map f xs], running up to [jobs] tasks
    concurrently on stdlib [Domain]s.  Results come back in input order
    regardless of completion order, and observability is scheduling-proof:
    each task runs under a fresh domain-local {!Lb_observe.Metrics}
    registry (and, when the caller is tracing, a fresh ring
    {!Lb_observe.Tracer}), and those captures are merged into the caller's
    registry/tracer at join: counters add, and events are re-emitted
    {e in task index order}.  A same-seed run
    therefore produces identical tables, metrics and traces at any job
    count — [~jobs:1] literally {e is} [List.map].

    Tasks are claimed dynamically from an atomic counter, so uneven task
    costs (the large-[n] rows of an experiment table) balance across
    domains.  The calling domain participates as a worker; [jobs - 1]
    helper domains are spawned at most.

    Nested pools are not detected: callers fanning out at an outer level
    should pass [~jobs:1] (the default) to inner levels. *)

val default_jobs : unit -> int
(** Job count for "auto": [LOWERBOUND_JOBS] from the environment if set to
    a positive integer, otherwise [Domain.recommended_domain_count ()]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ?jobs f xs] is [List.map f xs] evaluated on up to [jobs] domains.

    [jobs] defaults to [1] (fully sequential — parallelism is strictly
    opt-in); [~jobs:0] means {!default_jobs}[ ()]; negative values raise
    [Invalid_argument].

    If one or more tasks raise, the remaining tasks still run to
    completion, every task's metrics/trace captures — including what a
    failing task published before it raised — are still merged, and then
    the exception of the {e lowest-indexed} failing task re-raises with its
    original backtrace — again independent of scheduling. *)

val mapi : ?jobs:int -> (int -> 'a -> 'b) -> 'a list -> 'b list
(** [map] with the task index passed to [f]. *)

val iter : ?jobs:int -> ('a -> unit) -> 'a list -> unit
(** [map] for effects only. *)
