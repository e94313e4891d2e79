(** The ring event sink and the ambient tracer.

    A tracer stamps {!Event.t}s with a per-run sequence number and stores
    them in a bounded ring buffer that keeps the most recent events and
    counts what it drops.  [Trace_file.save] writes what it kept as a
    JSONL artifact.

    Instrumented code does not thread a tracer through every call: it asks
    the {e ambient} tracer ({!record}), installed for the extent of a run
    with {!with_tracer}.  When no tracer is installed,
    {!active} is false and every instrumentation site reduces to one ref
    read — runs with tracing disabled are bit-identical to, and within
    noise as fast as, untraced runs (checked by [test/suite_observe.ml]
    and the E7 overhead gate). *)

open Lb_memory

type t

val ring : ?capacity:int -> unit -> t
(** A sink keeping the most recent [capacity] (default [1 lsl 20])
    events. *)

val emit : t -> Event.t -> unit
(** Stamp and record one event. *)

val events : t -> Event.stamped list
(** Recorded events still in the ring, oldest first. *)

val emitted : t -> int
(** Total events emitted, including any dropped by a full ring. *)

val dropped : t -> int
(** Events the ring has overwritten. *)

(** {1 The ambient tracer} *)

val active : unit -> bool
(** True iff a tracer is installed — the guard every instrumentation site
    checks before constructing an event. *)

val record : Event.t -> unit
(** Emit to the ambient tracer; no-op when none is installed. *)

val with_tracer : t -> (unit -> 'a) -> 'a
(** Install for the extent of the callback, restoring the previous ambient
    tracer afterwards (exception-safe).

    The ambient tracer is {e domain-local}: installing only affects the
    calling domain, and a fresh domain starts untraced.  {!Lb_exec.Pool}
    gives each parallel task its own ring sink and {!absorb}s the captured
    events into the parent's tracer in task order at join. *)

val absorb : Event.stamped list -> unit
(** Re-emit previously captured events into the ambient tracer (re-stamping
    them with the ambient sequence); no-op when none is installed. *)

val attach_memory : Memory.t -> unit
(** If a tracer is active, install a {!Lb_memory.Memory.tap} on the memory
    that records every applied operation as a {!Event.Shared_access}
    (spurious SC failures flagged).  No-op when tracing is off, so
    executors can call it unconditionally at memory-creation time. *)
