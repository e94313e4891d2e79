(** Conformance campaign driver: fuzz matrices, mutation testing, reports.

    The fuzz matrix crosses constructions × object types × fault plans into
    {!Fuzz.check_cell} cells; the mutation matrix crosses constructions ×
    {!Mutate.all} and demands that every applicable mutant be {e killed} —
    some schedule's history must fail the {!Lb_objects.Linearize} checker.
    [ok] is the gate the CLI turns into its exit code and CI asserts in the
    conformance smoke step. *)

open Lb_universal
open Lb_faults

val constructions : Iface.t list
(** {!Lb_faults.Targets.all}: the universal constructions plus the direct
    LL/SC fetch&increment. *)

val find_construction : string -> Iface.t option

type mutant_outcome =
  | Killed of { seed : int; failure : Fuzz.failure; minimized_len : int }
  | Survived of { runs : int }
  | Not_applicable
      (** The mutation never fired on this construction (e.g. a Swap mutant
          on a construction that never swaps) — excluded from the gate. *)

type mutant_cell = {
  mc_construction : string;
  mc_mutant : string;
  fired : int;
  outcome : mutant_outcome;
}

val mutant_killed : mutant_cell -> bool
(** [Killed] or [Not_applicable]. *)

val hunt_mutant :
  construction:Iface.t ->
  mutant:Mutate.t ->
  ?model:Lb_memory.Memory_model.t ->
  n:int ->
  ops:int ->
  schedules:int ->
  seed:int ->
  max_states:int ->
  unit ->
  mutant_cell

val mutation_matrix :
  ?jobs:int ->
  ?constructions:Iface.t list ->
  ?mutants:Mutate.t list ->
  ?model:Lb_memory.Memory_model.t ->
  n:int ->
  ops:int ->
  schedules:int ->
  seed:int ->
  max_states:int ->
  unit ->
  mutant_cell list
(** [jobs] fans the (construction, mutant) cells across a
    {!Lb_exec.Pool} (default 1, sequential); every cell is a pure
    function of its key and the seed, and the pool preserves order, so
    the report is identical at every job count. *)

val fuzz_matrix :
  ?jobs:int ->
  ?constructions:Iface.t list ->
  ?types:Fuzz.object_type list ->
  ?plans:(string * Fault_plan.t) list ->
  ?model:Lb_memory.Memory_model.t ->
  n:int ->
  ops:int ->
  schedules:int ->
  seed:int ->
  max_states:int ->
  unit ->
  Fuzz.cell list
(** Cells a construction does not support (the direct target on anything
    but fetch-inc) are skipped.  [jobs] as in {!mutation_matrix}.  [model]
    (default SC) runs every cell on a memory with that consistency model —
    the constructions use only the fencing LL/SC repertoire, so conformance
    must survive relaxation unchanged (asserted in EXPERIMENTS.md). *)

type report = { cells : Fuzz.cell list; mutants : mutant_cell list }

val ok : report -> bool

val pp_mutant_cell : Format.formatter -> mutant_cell -> unit
val pp_report : Format.formatter -> report -> unit

val json_of_cell : Fuzz.cell -> Lb_observe.Json.t
val json_of_mutant_cell : mutant_cell -> Lb_observe.Json.t
val json_of_report : report -> Lb_observe.Json.t
