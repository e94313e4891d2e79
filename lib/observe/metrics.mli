(** The metrics registry: named counters that experiments, the harness and
    the conformance drivers publish into.

    A registry is a flat name → count map.  Names are dotted strings
    ("harness.ops_completed", "conformance.runs").

    There is always a {e current} registry ({!current}) that instrumented
    code publishes into; tests and drivers swap in a fresh one with
    {!with_registry} to get an isolated window. *)

type t

val create : unit -> t
val current : unit -> t

val with_registry : t -> (unit -> 'a) -> 'a
(** Make [t] current for the extent of the callback (exception-safe).

    The ambient registry is {e domain-local}: each domain starts with an
    empty registry of its own, and [with_registry] only affects the
    calling domain.  {!Lb_exec.Pool} exploits this to give
    each parallel task an isolated registry, merged deterministically at
    join. *)

val merge : into:t -> t -> unit
(** Add every counter of the source into [into]. *)

(** {1 Counters} — monotonically increasing integers. *)

val incr : ?by:int -> t -> string -> unit
val counter_value : t -> string -> int
(** 0 for names never incremented. *)
