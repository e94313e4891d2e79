(** Wakeup certification: runs wakeup algorithms under fault plans and
    returns structured verdicts instead of raising.

    A run is {e certified} when every survivor terminated with a 0/1 answer
    and nobody claimed wakeup while another process never took a step;
    {e degraded} when crashes made wakeup unattainable and the survivors
    declined to claim it; {e violated} when a survivor did not terminate,
    returned something else, or a claim was false.  Constructions are
    judged by [Lb_conformance.Fuzz.assess] instead. *)

open Lb_runtime

type status = Certified | Degraded | Violated

(** {1 Wakeup certification}

    Wakeup algorithms run whole programs under {!Lb_runtime.System}, so
    their certification is built on {!Lb_runtime.System.run_diagnosed} and
    {!Fault_engine.choice} rather than the harness: crash-recovery resumes
    in place (checkpointed local state) instead of re-invoking. *)

type wakeup_report = {
  algorithm : string;
  wplan : Fault_plan.t;
  wn : int;
  wseed : int;
  wstatus : status;
  wreasons : string list;
  wnotes : string list;
  diagnostics : System.diagnostics;
  results : (int * int) list;  (** terminated pid -> returned value. *)
  woke : int list;  (** pids that returned 1. *)
  crashed_pids : int list;
  false_claim : bool;
      (** someone claimed wakeup while another process never took a
          shared-memory step — the correctness violation the lower bound's
          adversary manufactures. *)
}

val run_wakeup :
  algorithm:string ->
  make:(n:int -> (int -> int Lb_runtime.Program.t) * (int * Lb_memory.Value.t) list) ->
  plan:Fault_plan.t ->
  n:int ->
  ?seed:int ->
  ?randomized:bool ->
  unit ->
  wakeup_report
(** [make ~n] yields the per-pid program and the initial register values
    (the {!Lb_wakeup.Problem} instance shape).  [randomized] selects a
    seeded uniform coin assignment instead of the constant one.  The run
    gets [1000 n] steps of fuel beyond the plan's horizon. *)

(** {1 Printing} *)

val status_string : status -> string
val pp_status : Format.formatter -> status -> unit
val pp_wakeup_report : Format.formatter -> wakeup_report -> unit
