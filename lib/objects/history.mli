(** Concurrent histories, with pending operations.

    A history records, per operation, its operation value, the (global,
    totally ordered) time it was invoked and its outcome: a response with
    the time it arrived, or {e pending} — invoked but never responded (a
    give-up, a crash, or fuel exhaustion), so it may or may not have taken
    effect.  {!Linearize} decides whether a history is linearizable
    w.r.t. a sequential specification.

    [Lb_universal.Harness] records the history of every simulated run, and
    the hardware backend builds one from wall-clock stamps. *)

open Lb_memory

type outcome =
  | Completed of { response : Value.t; responded : int }
  | Pending  (** Invoked, no response: the operation's effect is optional. *)

type op = {
  pid : int;
  seq : int;
  op : Value.t;
  invoked : int;
  outcome : outcome;
  ghost : bool;
      (** A ghost is the extra optional occurrence contributed by a
          crash-recovery restart: the lost attempt may have applied its
          effect before the crash, so the operation can take effect twice. *)
}

type t = op list
(** In ascending invocation order. *)

val completed_op :
  pid:int -> seq:int -> op:Value.t -> response:Value.t -> invoked:int -> responded:int -> op
(** A completed, non-ghost operation.  Raises [Invalid_argument] when
    [responded < invoked]. *)

val pending_op : pid:int -> seq:int -> op:Value.t -> invoked:int -> op
(** A pending, non-ghost operation. *)

val completed : t -> op list
val pending : t -> op list

val by_invocation : op list -> t
(** Stable sort on invocation time. *)

val ghosts : restarted:(int * int) list -> op list -> op list
(** One ghost pending op per [(pid, seq)] entry of [restarted] (duplicates
    kept), copied from the matching non-ghost op of the list. *)

val pp_op : Format.formatter -> op -> unit
val pp : Format.formatter -> t -> unit
