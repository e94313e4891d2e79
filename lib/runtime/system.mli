(** A system: [n] processes sharing one memory, driven by a scheduler.

    This is the generic, step-granularity executor used by tests, the
    linearizability harness, and the examples.  The paper's round-based
    adversary has a dedicated executor in [lb_adversary]. *)

open Lb_memory

type 'a t

val create :
  ?memory:Memory.t ->
  ?assignment:Coin.assignment ->
  n:int ->
  (int -> 'a Program.t) ->
  'a t
(** [create ~n program_of] builds processes [p0 .. p(n-1)], process [i]
    running [program_of i].  Default memory is fresh and unlogged; the
    default assignment is [Coin.constant 0]. *)

val n : 'a t -> int
val memory : 'a t -> Memory.t
val process : 'a t -> int -> 'a Process.t
val processes : 'a t -> 'a Process.t array

val runnable : 'a t -> int list
(** Pids of processes that have not terminated, in id order.  Each process is
    first advanced through its local coin tosses, so every listed process has
    a pending shared-memory operation.

    When the memory runs a relaxed model ({!Lb_memory.Memory_model}), every
    enabled store-buffer flush is appended as a {e pseudo-pid}
    ({!Lb_memory.Semantics.flush_id}) — schedulers choose flushes
    exactly like process steps and need no special handling (they pick from
    the list).  Once every process has terminated, remaining buffers drain
    deterministically (their order is unobservable) and the list is empty;
    under SC the list is always plain pids. *)

val step : 'a t -> pid:int -> unit
(** Advance the process through local tosses and execute its next
    shared-memory operation.  No-op if it terminated during the tosses.
    A flush pseudo-pid from {!runnable} performs that flush instead. *)

type outcome = All_terminated | Out_of_fuel | Stalled

type diagnostics = {
  outcome : outcome;
  steps : int;  (** shared-memory steps actually executed. *)
  last_scheduled : int option;  (** pid of the last scheduled process. *)
  ops_per_process : (int * int) list;
      (** [(pid, shared ops)] in id order — the paper's [t(p, R)] per
          process. *)
  unfinished : int list;  (** pids that never terminated, in id order. *)
}

val run : 'a t -> Scheduler.choice -> fuel:int -> outcome
(** Drive the system until every process terminates, the scheduler stalls,
    or [fuel] shared-memory steps have been executed. *)

val run_diagnosed : 'a t -> Scheduler.choice -> fuel:int -> diagnostics
(** Like {!run} but the outcome carries diagnostics — who was scheduled
    last, how many shared operations each process performed, and who never
    finished.  This is what fault-certification reports are built from:
    an [Out_of_fuel] or [Stalled] outcome alone says nothing about {e which}
    process starved. *)

val diagnostics_event : diagnostics -> Lb_observe.Event.t
(** The diagnostics as an {!Lb_observe.Event.Run_end} trace event — the same
    rendering certification verdict tables use, so a trace and a verdict
    report show identical run summaries.  [run_diagnosed] records it
    automatically when a tracer is active. *)

val results : 'a t -> 'a option array
(** Per-process results; [None] for processes still running. *)

val result_exn : 'a t -> int -> 'a
(** Result of a terminated process; raises [Invalid_argument] otherwise. *)

val pp_outcome : Format.formatter -> outcome -> unit
val pp_diagnostics : Format.formatter -> diagnostics -> unit
