(** Differential schedule fuzzing of the universal constructions.

    A fuzz {e cell} is one (construction, object type, fault plan) triple:
    [schedules] seeded random schedules are driven through the
    {!Lb_universal.Harness} (fault engine armed), every produced history is
    checked with {!Lb_objects.Linearize}, and the first failing schedule — if any — is
    minimized with {!Shrink} to a locally-minimal interleaving that replays
    deterministically to the same failure class.

    Give-ups are excused (degraded, not failing) exactly when the plan
    injects spurious SC failures, mirroring {!Lb_faults.Certify}; crash-
    stopped pids are exempt from the completion requirement; crash-recovery
    restarts contribute ghost pending operations to the checked history (see
    {!Lb_objects.History.ghosts}). *)

open Lb_memory
open Lb_runtime
open Lb_universal
open Lb_faults

type object_type = {
  ot_name : string;
  spec_of : n:int -> Lb_objects.Spec.t;
  op_of : n:int -> seed:int -> pid:int -> idx:int -> Value.t;
      (** Deterministic seeded workload: the [idx]-th operation of [pid]. *)
  direct_ok : bool;
      (** Whether the non-oblivious [direct] target implements this type
          (it {e is} fetch&increment and accepts nothing else). *)
}

val object_types : object_type list
(** The fuzzed zoo: fetch-inc, fetch-add, read-inc, fetch-or,
    fetch-multiply, queue, stack, swap, test-set, cas, snapshot,
    consensus. *)

val find_type : string -> object_type option
val type_names : string list

val supports : construction:Iface.t -> object_type -> bool

type failure =
  | Not_linearizable of { states : int; bad_prefix : int; completed : int }
  | Unexcused_give_up of { pid : int; seq : int; reason : string }
  | Starved of { pids : int list }
  | Bound_exceeded of { pid : int; seq : int; cost : int; bound : int }
      (** A fault-free run where an operation's shared-access cost exceeds
          the construction's analytic worst case — the paper's upper-bound
          claim is about time, so overshooting it is a conformance failure
          (and the kill condition for helping-removal mutants that preserve
          linearizability). *)
  | Check_budget of { states : int }

type verdict = Pass | Degraded of string | Fail of failure

type run = {
  verdict : verdict;
  schedule : int list;  (** every scheduling choice taken, in order. *)
  checked_ops : int;
  states : int;
}

val same_class : verdict -> verdict -> bool
(** Same constructor (the shrinker's notion of "reproduces the failure"). *)

val execute :
  construction:Iface.t ->
  ot:object_type ->
  plan:Fault_plan.t ->
  n:int ->
  ops:int ->
  seed:int ->
  ?model:Memory_model.t ->
  ?wrap_hooks:(Harness.fault_hooks -> Harness.fault_hooks) ->
  scheduler:Scheduler.choice ->
  unit ->
  Harness.result * int list
(** Drive one execution (construction and fault engine instantiated on a
    fresh memory running [model], default SC) and return the harness result
    plus the recorded schedule.  Under a relaxed model the schedule may
    contain flush pseudo-pids (see {!Harness.run_handle}); the recorded log
    replays them like any other choice.  [wrap_hooks] interposes on the
    fault hooks — the exhaustive checker taps [filter] to read each
    process's pending shared operation for its dependency footprints. *)

val assess :
  construction:Iface.t ->
  ot:object_type ->
  plan:Fault_plan.t ->
  n:int ->
  ops:int ->
  max_states:int ->
  schedule:int list ->
  Harness.result ->
  run
(** Judge an executed run: completion accounting, the analytic cost bound,
    give-up excuses, then {!Lb_objects.Linearize} on [result.history].
    [run_once] is [execute] followed by [assess]; the exhaustive checker
    shares this judge so a schedule is assessed identically however it was
    produced. *)

val run_once :
  construction:Iface.t ->
  ot:object_type ->
  plan:Fault_plan.t ->
  n:int ->
  ops:int ->
  seed:int ->
  ?model:Memory_model.t ->
  max_states:int ->
  scheduler:Scheduler.choice ->
  unit ->
  run

val tree_scheduler : 'k Lb_check.Sched_tree.sched -> Scheduler.choice
(** View a {!Lb_check.Sched_tree} oracle as a harness scheduler: the
    fuzzer's random sampling ({!Lb_check.Sched_tree.sampler}), replay
    ({!Lb_check.Sched_tree.replayer}) and the exhaustive checker's DPOR
    walk all draw schedules from the same abstraction. *)

val sample_scheduler : seed:int -> Scheduler.choice
(** [tree_scheduler (Lb_check.Sched_tree.sampler ~seed)]: the one seeded
    random sampling path, shared by the fuzz matrix and the mutant hunt. *)

val replay :
  construction:Iface.t ->
  ot:object_type ->
  plan:Fault_plan.t ->
  n:int ->
  ops:int ->
  seed:int ->
  ?model:Memory_model.t ->
  max_states:int ->
  int list ->
  run
(** Re-run under a recorded schedule (non-runnable entries skipped,
    round-robin after exhaustion).  Deterministic. *)

type counterexample = {
  seed_used : int;
  original : int list;
  minimized : int list;
  minimized_verdict : verdict;
  locally_minimal : bool;
  deterministic : bool;
}

val shrink_failure :
  construction:Iface.t ->
  ot:object_type ->
  plan:Fault_plan.t ->
  n:int ->
  ops:int ->
  seed:int ->
  ?model:Memory_model.t ->
  max_states:int ->
  run ->
  counterexample
(** Minimize a failing run's schedule with {!Shrink.minimize} ([test] =
    same failure class on replay), then certify local minimality and replay
    determinism. *)

type cell = {
  construction : string;
  object_type : string;
  plan_name : string;
  model : Memory_model.t;
  n : int;
  ops : int;
  budget : int;
  runs : int;
  passed : int;
  degraded : int;
  counterexample : counterexample option;
}

val check_cell :
  construction:Iface.t ->
  ot:object_type ->
  plan_name:string ->
  plan:Fault_plan.t ->
  ?model:Memory_model.t ->
  n:int ->
  ops:int ->
  schedules:int ->
  seed:int ->
  max_states:int ->
  unit ->
  cell
(** Fuzz one cell; stops at (and shrinks) the first failure. *)

val cell_ok : cell -> bool

val pp_failure : Format.formatter -> failure -> unit
val pp_verdict : Format.formatter -> verdict -> unit
val pp_cell : Format.formatter -> cell -> unit
