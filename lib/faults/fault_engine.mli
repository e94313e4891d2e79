(** Instantiates a {!Fault_plan.t} into per-run mutable state and the two
    interposition points the rest of the system exposes:

    - a {!Lb_memory.Memory.interposer} (installed with {!arm}) that injects
      weak-LL/SC spurious failures — deterministically in the engine seed;
    - scheduling hooks: {!hooks} for the {!Lb_universal.Harness} driver
      (crash-stop, crash-recovery with operation re-invocation, delays,
      region stalls), and {!choice} for plain {!Lb_runtime.System} runs
      (where a crash-recover pid simply resumes — checkpointed local state —
      and an all-blocked step reads as a stall).

    Step counting is exact: a pid's crash budget is decremented only when it
    {e executes} a shared-memory operation ([note_step]), never when it is
    merely advanced through local coin tosses — the double-count bug of the
    old hand-rolled crash scheduler. *)

open Lb_memory
open Lb_runtime

type t

val instantiate : ?seed:int -> Fault_plan.t -> t
(** Fresh run state.  Two engines with the same plan and seed behave
    identically — fault injection is replayable. *)

val arm : t -> Memory.t -> unit
(** Install this engine's spurious-SC interposer on the memory.  Required
    before the run if the plan has spurious injectors; harmless otherwise. *)

val hooks : t -> Lb_universal.Harness.fault_hooks
(** The harness-facing hooks (crash/recover/delay/stall + step counting). *)

val choice : t -> ?pending:(int -> Op.invocation option) -> Scheduler.choice -> Scheduler.choice
(** Wrap a scheduler for a {!Lb_runtime.System} run: filters crashed,
    delayed and stalled pids, counts executed steps.  [pending] (typically
    [fun pid -> Process.pending_op (System.process sys pid)]) enables
    stall-region filtering; without it region stalls are inert. *)

(** {1 Run accounting} *)

val spurious_injected : t -> int
(** Total spurious SC failures injected (only SCs that would have
    succeeded count — an SC that had already lost its link fails for the
    strong-semantics reason). *)

val crashed : t -> Ids.t
(** Pids currently crashed (crash observed, not recovered). *)
