(** The conformance campaign: cell matrices, mutation testing, reports.

    A {!mode} picks the cell runner: {!Fuzz.check_cell} samples seeded
    random schedules, {!Exhaustive.certify_cell} walks every in-bound
    schedule.  Either way the cell matrix crosses constructions × object
    types × fault plans into cells, and the mutant matrix crosses
    constructions × {!Mutate.all} and demands that every applicable
    mutant be {e killed} — some schedule's history must fail the
    {!Fuzz.assess} judge.  [ok] is the gate the CLI turns into its exit
    code and CI asserts in the conformance smoke steps. *)

open Lb_universal
open Lb_faults

type mode =
  | Sample of { schedules : int }  (** seeds [seed] .. [seed + schedules - 1]. *)
  | Walk of { bounds : Lb_check.Sched_tree.bounds; max_schedules : int }
      (** bounded DPOR; past [max_schedules] runs the walk raises
          {!Lb_check.Sched_tree.Schedule_limit}. *)

type cell = Sampled of Fuzz.cell | Walked of Exhaustive.cert

val check_cell :
  mode:mode ->
  construction:Iface.t ->
  ot:Fuzz.object_type ->
  plan_name:string ->
  plan:Fault_plan.t ->
  ?model:Lb_memory.Memory_model.t ->
  n:int ->
  ops:int ->
  seed:int ->
  max_states:int ->
  unit ->
  cell
(** Run one cell with the mode's runner.  A walked cell raises
    {!Exhaustive.Inconclusive} on a history the checker cannot decide. *)

val counterexample : cell -> Fuzz.counterexample option
val cell_ok : cell -> bool

val cell_inconclusive : cell -> bool
(** Neither ok nor refuted: the checker could not decide a sampled
    history, or the bounds cut every walked run. *)

type mutant = {
  mc_construction : string;
  mc_mutant : string;
  seed : int;  (** the workload's; a sampled hunt's schedule [i] runs under [seed + i]. *)
  fired : int;  (** rewrites the mutation made over the whole cell. *)
  cell : cell;  (** the mutated construction's fetch&increment cell, fault-free. *)
}

type outcome =
  | Killed  (** the cell has a counterexample. *)
  | Survived
  | Inconclusive
      (** A sampled hunt stopped at a history the checker could not decide
          (never shrunk), or the bounds cut every walked run. *)
  | Not_applicable
      (** The mutation never fired (e.g. a Swap mutant on a construction
          that never swaps) — excluded from the gate. *)

val outcome : mutant -> outcome

val mutant_ok : mutant -> bool
(** [Killed] or [Not_applicable]. *)

val hunt_mutant :
  mode:mode ->
  construction:Iface.t ->
  mutant:Mutate.t ->
  ?model:Lb_memory.Memory_model.t ->
  n:int ->
  ops:int ->
  seed:int ->
  max_states:int ->
  unit ->
  mutant
(** {!check_cell} on [Mutate.wrap mutant construction], fetch&increment
    under the fault-free plan.  A walked kill is a strictly stronger claim
    than a sampled one: {e some} in-bound schedule fails. *)

val mutant_matrix :
  ?jobs:int ->
  ?constructions:Iface.t list ->
  mode:mode ->
  ?model:Lb_memory.Memory_model.t ->
  n:int ->
  ops:int ->
  seed:int ->
  max_states:int ->
  unit ->
  mutant list
(** Every construction (default {!Lb_faults.Targets.all}) against every
    mutant of {!Mutate.all}.  [jobs] fans the (construction, mutant) cells
    across a {!Lb_exec.Pool} (default 1, sequential); every cell is a pure
    function of its key and the seed, and the pool preserves order, so the
    report is identical at every job count. *)

val matrix :
  ?jobs:int ->
  ?constructions:Iface.t list ->
  ?types:Fuzz.object_type list ->
  ?plans:(string * Fault_plan.t) list ->
  mode:mode ->
  ?model:Lb_memory.Memory_model.t ->
  n:int ->
  ops:int ->
  seed:int ->
  max_states:int ->
  unit ->
  cell list
(** Cells a construction does not support (the direct target on anything
    but fetch-inc) are skipped.  [jobs] as in {!mutant_matrix}.  [model]
    (default SC) runs every cell on a memory with that consistency model —
    the constructions use only the fencing LL/SC repertoire, so conformance
    must survive relaxation unchanged (asserted in EXPERIMENTS.md). *)

type report = { mode : mode; cells : cell list; mutants : mutant list }

val ok : report -> bool

val inconclusive : report -> bool
(** Not {!ok}, yet nothing refuted: every cell short of ok is
    {!cell_inconclusive} and every mutant short of {!mutant_ok} is
    [Inconclusive]. *)

val pp_report : Format.formatter -> report -> unit
(** The cell table's last column is headed "verdict" when sampled and
    "exploration" when walked; an ok report is CONFORMANT when sampled
    and CERTIFIED when walked. *)

val json_of_report : report -> Lb_observe.Json.t
(** Every mutant row has the same fields in both modes: [outcome] (the
    table's outcome text), [killed] (true exactly for a KILLED outcome)
    and [ok] ({!mutant_ok}: killed or not applicable); a walked row adds
    its walk's [stats]. *)
