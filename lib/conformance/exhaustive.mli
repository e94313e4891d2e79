(** Bounded-exhaustive conformance certification: the walked cell runner.

    Where {!Fuzz.check_cell} samples seeded random schedules, this module walks the
    schedule space of one (construction, object type, fault plan) cell
    systematically with {!Lb_check.Sched_tree}'s bounded DPOR: every
    in-bound interleaving of the harness workload is executed and judged
    by the {e same} {!Fuzz.assess} verdict chain as the fuzzer, so a cell
    certificate strengthens the fuzz cell from "no failing schedule
    sampled" to "no failing schedule exists within the bounds" —
    {!Lb_check.Sched_tree.stats}'s [elided] field says exactly how much the bounds
    cut.

    Dependency footprints come from each step's executed shared-memory
    invocation (register overlap, which subsumes LL/SC link-kill
    dependence); operation boundaries — a response published or a
    give-up — are {e blocking} (dependent with everything), because
    commuting them changes history precedence and so possibly the
    linearizability verdict.  Under a non-empty fault plan every step is
    blocking: injectors read the global step clock, so no commutation is
    sound — the walk degrades to bounded enumeration, still exhaustive
    within the bounds.

    The cell is a {!Lb_check.Sched_tree.machine} over the
    {!Lb_universal.Harness} step machine, on one memory and one handle per
    cell.  Under a pure plan its snapshot of a state is a memory
    checkpoint and a handle snapshot, and each run resumes where it parts
    from the previous one, so no run re-executes a shared prefix; impure
    plans replay every run from the root.  Either way the
    walk, its stats, verdicts and counterexamples are those of a walk
    that replays every run.

    Soundness scope is inherited from the sleep-set and race argument of
    {!Lb_check.Explore.iter_dpor}: the set of distinct verdicts is preserved;
    individual schedule orders are not.  See docs/EXPLORATION.md.

    The campaign around the cell — matrices, the mutant hunt and the
    report — is {!Conform}'s, shared with the sampled runner. *)

open Lb_universal
open Lb_faults

val pure : Fault_plan.t -> bool
(** Whether schedule commutation is sound under this plan (no injectors). *)

type cert = {
  xc_construction : string;
  xc_object_type : string;
  xc_plan : string;
  xc_model : Lb_memory.Memory_model.t;
  xc_n : int;
  xc_ops : int;
  xc_bounds : Lb_check.Sched_tree.bounds;
  xc_stats : Lb_check.Sched_tree.stats;
  xc_degraded : int;  (** schedules that passed with excused degradation. *)
  xc_counterexample : Fuzz.counterexample option;
      (** the first failing schedule found, minimized with {!Shrink}. *)
}

val cert_ok : cert -> bool
(** No counterexample, and at least one schedule completed: a walk whose
    bounds cut every run certifies nothing. *)

exception Inconclusive of string
(** Raised by {!certify_cell} when a schedule's history exhausts the
    checker's [max_states] budget: that schedule neither passes nor fails,
    so the cell is neither certified nor refuted.  The message names the
    cell. *)

val default_bounds : Lb_check.Sched_tree.bounds
(** Pre-emption bound 2, the classic systematic-testing default: most
    concurrency bugs need at most two pre-emptions, and the schedule count
    stays polynomial. *)

val certify_cell :
  construction:Iface.t ->
  ot:Fuzz.object_type ->
  plan_name:string ->
  plan:Fault_plan.t ->
  ?model:Lb_memory.Memory_model.t ->
  n:int ->
  ops:int ->
  seed:int ->
  ?bounds:Lb_check.Sched_tree.bounds ->
  ?max_schedules:int ->
  max_states:int ->
  unit ->
  cert
(** Walk every in-bound schedule of one cell (stopping at the first
    failure, which is then shrunk).  [seed] fixes the workload; the walk
    itself is deterministic.  [max_schedules] (default 200_000) raises
    {!Lb_check.Sched_tree.Schedule_limit} when exceeded; an exhausted
    checker budget raises {!Inconclusive}.  [model] (default
    SC) runs the cell on a relaxed memory: flush pseudo-pids enter the
    DPOR alphabet with their encoded register as footprint, and since the
    constructions use only the fencing LL/SC repertoire, certificates must
    match SC exactly. *)

val pp_cert : Format.formatter -> cert -> unit
(** One row of the [conform --exhaustive] cell table. *)

val json_of_stats : Lb_check.Sched_tree.stats -> Lb_observe.Json.t
val json_of_cert : cert -> Lb_observe.Json.t
