(** Workload driver for implemented objects.

    Runs [n] processes, each with a list of object operations, against a
    construction handle.  Operations execute one at a time per process (a
    process invokes its next operation only after the previous one
    responded), interleaved at shared-memory-operation granularity by a
    {!Lb_runtime.Scheduler.choice}.  The driver records, per operation: its
    response, its invocation/response times on a global clock, and its exact
    shared-memory operation count — the paper's shared-access cost.

    The recorded {!Lb_objects.History.t} feeds {!Lb_objects.Linearize}; the
    cost maxima feed the complexity experiments. *)

open Lb_memory
open Lb_runtime

type op_stat = {
  pid : int;
  seq : int;
  op : Value.t;
  response : Value.t;
  invoked : int;
  responded : int;
  cost : int;
      (** shared-memory operations this operation took, including work lost
          to crash-recovery restarts. *)
}

type op_failure = {
  pid : int;
  seq : int;
  op : Value.t;
  reason : string;  (** the [Failure] message the operation gave up with. *)
  cost : int;  (** shared ops spent before giving up — still part of t(R). *)
  invoked : int;
  gave_up : int;
}
(** An operation that raised [Failure] mid-run — e.g. a bounded retry loop
    exhausted by injected spurious SC failures.  The driver records it and
    moves on instead of crashing: graceful degradation, so a certification
    sweep can report the failure rather than die on it. *)

(** Fault interposition points of the driver, all optional (see
    {!Lb_faults.Fault_engine} for the implementation built on top):
    - [filter] restricts which runnable pids may be scheduled this step
      (crash-stop, crash-recovery windows, delays, stalled regions).
      [pending] exposes each runnable process's next shared-memory
      operation, so region stalls can look at target registers.
    - [note_step] is called after a pid executed one shared-memory step —
      the accurate per-process step count (scheduling decisions alone would
      overcount processes advanced only through local tosses).
    - [recover] names pids whose in-flight operation must be restarted from
      scratch this step (crash-recovery: volatile state lost, the operation
      is re-invoked with the same (pid, seq) descriptor).
    - [may_unblock] tells the driver whether an all-blocked configuration
      can still unblock later (pending recovery or window expiry); if not,
      the run stalls immediately instead of burning fuel. *)
type fault_hooks = {
  filter :
    step:int -> pending:(int -> Op.invocation option) -> runnable:int list -> int list;
  note_step : step:int -> pid:int -> unit;
  recover : step:int -> int list;
  may_unblock : step:int -> bool;
}

type result = {
  stats : op_stat list;  (** in global response order. *)
  failures : op_failure list;  (** operations that gave up, in give-up order. *)
  restarts : int;  (** crash-recovery re-invocations performed. *)
  max_cost : int;
  mean_cost : float;
  total_shared_ops : int;
  completed : bool;  (** all scheduled operations ran to completion. *)
  largest_register : int;
  history : Lb_objects.History.t;
      (** [stats] as completed ops; [failures] and the operations still
          running when the run ended (a crash-stopped pid, or fuel ran out)
          as pending ops, since either may have taken effect; plus one ghost
          pending op per crash-recovery restart, since a restarted
          operation may have applied its effect before the crash. *)
}

(** {1 The step machine}

    A run is a value of type {!state}: the programs in flight, the clock,
    the records so far, the step and fuel counters.  {!start} makes the
    initial one, {!poll} and {!step} move it and {!finish} turns the final
    one into a {!result}; {!run_handle} loops those under a scheduler.  A
    state is immutable, so a runner can keep the states a run passes
    through and later continue from one of them as if the run had been
    replayed to that point, provided it also puts back the memory
    ({!Lb_memory.Memory.checkpoint}) and the handle's local state
    ([Iface.handle.snapshot]) as they were.  The conformance certifier does
    this to resume each schedule where it leaves the previous one. *)

type state

val start :
  memory:Memory.t ->
  handle:Iface.handle ->
  n:int ->
  ops:(int -> Value.t list) ->
  ?assignment:Coin.assignment ->
  ?fuel:int ->
  unit ->
  state
(** The initial state: every process has invoked its first operation. *)

val poll : ?hooks:fault_hooks -> state -> state * Scheduler.poll
(** Everything before a scheduling decision — crash-recovery restarts,
    each process's local coin tosses, idle ticks while only a fault keeps
    everyone blocked — then the ids the scheduler may choose from, or
    [Finished completed], [true] if every operation responded.  At
    quiescence the remaining buffered stores drain. *)

val step : ?hooks:fault_hooks -> state -> choices:int list -> int -> state
(** Execute the chosen id, one of the [choices] {!poll} offered: a pid's
    next shared-memory operation, or a flush pseudo-pid's buffered
    write. *)

val pending : state -> int -> Op.invocation option
(** The shared-memory operation the pid executes when it next steps. *)

val boundary : state -> state -> bool
(** [boundary st (step st ~choices id)]: the step published a response or a
    give-up, whose order against other steps the history records. *)

val finish : state -> completed:bool -> result
(** The run's record, from the final state and {!poll}'s flag. *)

val run_handle :
  memory:Memory.t ->
  handle:Iface.handle ->
  n:int ->
  ops:(int -> Value.t list) ->
  ?scheduler:Scheduler.choice ->
  ?assignment:Coin.assignment ->
  ?fuel:int ->
  ?hooks:fault_hooks ->
  unit ->
  result
(** Drive a pre-installed handle ([memory] must already contain the layout's
    initial values).  When [memory] runs a relaxed model
    ({!Lb_memory.Memory_model}), every enabled store-buffer flush joins the
    scheduler's choice set as a pseudo-pid
    ({!Lb_memory.Semantics.flush_id}) and once the run is quiescent, remaining
    buffers drain deterministically.  Fault hooks only ever see real pids. *)

val run :
  construction:Iface.t ->
  spec:Lb_objects.Spec.t ->
  n:int ->
  ops:(int -> Value.t list) ->
  ?scheduler:Scheduler.choice ->
  ?fuel:int ->
  ?hooks:fault_hooks ->
  unit ->
  result
(** Instantiate the construction on a fresh memory and drive it. *)

val check_linearizable : spec:Lb_objects.Spec.t -> result -> bool
(** {!Lb_objects.Linearize.is_linearizable} on [result.history], with no
    state budget. *)
