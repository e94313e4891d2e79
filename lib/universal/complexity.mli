(** Complexity sweeps: measured worst-case shared-access cost vs. predictions.

    Used by experiments E7 (Θ(log n) combining tree vs. Θ(n) baseline), E9
    (constant-time direct CAS) and E10 (the sandwich around the wakeup
    bound). *)

open Lb_memory
open Lb_runtime

type row = {
  n : int;
  measured_worst : int;  (** max shared ops over all object operations. *)
  measured_mean : float;
  predicted : int;  (** the construction's own [worst_case ~n]. *)
  lower_bound : int;  (** [⌈log₄ n⌉] — the paper's floor for oblivious constructions. *)
  largest_register : int;
  linearizable : bool;
}

val sweep :
  construction:Iface.t ->
  spec_of:(int -> Lb_objects.Spec.t) ->
  ops_of:(n:int -> int -> Value.t list) ->
  ?scheduler:Scheduler.choice ->
  ns:int list ->
  unit ->
  row list
(** One row per [n]: run the workload ([ops_of ~n pid] per process) through
    the construction and measure.  Linearizability checking is exponential in
    history size, so it is skipped for [n > 8]. *)

val pp_row : Format.formatter -> row -> unit
val pp_table : header:string -> Format.formatter -> row list -> unit
