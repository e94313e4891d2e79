(** Generic (non-adversarial) schedulers.

    The paper's formal scheduler maps each finite run to the process taking
    the next step.  For the generic executor we use the simpler decision
    interface below; the paper's specific adversary (Figure 2) has its own
    round/phase structure and lives in [lb_adversary].

    A [choice] picks the next process given the global step index and the
    set of runnable (non-terminated, non-crashed) processes; [None] stalls
    the run (used to model crash failures of all remaining processes). *)

type choice = step:int -> runnable:int list -> int option

type poll =
  | Enabled of int list  (** the ids that may step next. *)
  | Finished of bool  (** the run is over; [true] if it completed. *)
(** What a stepped system offers its scheduler before each decision
    ([Lb_universal.Harness.poll], a [Lb_check.Sched_tree.machine]). *)

val round_robin : choice
(** Cycles over the runnable processes in id order. *)

val random : seed:int -> choice
(** Uniform pseudo-random choice, deterministic in [seed]. *)

val fixed : int list -> choice
(** Plays the given pid sequence, then stalls.  Skips entries that are no
    longer runnable. *)
