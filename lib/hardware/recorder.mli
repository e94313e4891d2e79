(** Per-domain operation recorder: preallocated parallel arrays of a
    fixed capacity, written on the hot path without allocating (int
    stores, unboxed float stores, and pointer stores of values the caller
    already holds), flushed to a list after the run.

    Each domain owns exactly one recorder; nothing here is
    thread-safe. *)

open Lb_memory

type t

val create : capacity:int -> t

val record :
  t ->
  seq:int ->
  op:Value.t ->
  response:Value.t ->
  invoked:float ->
  responded:float ->
  cost:int ->
  unit
(** Append one completed operation.  Raises [Invalid_argument] when the
    recorder already holds [capacity] records: the caller sizes it to the
    operations it will record. *)

type entry = {
  seq : int;
  op : Value.t;
  response : Value.t;
  invoked : float;  (** wall-clock seconds at invocation. *)
  responded : float;  (** wall-clock seconds at response. *)
  cost : int;  (** shared-memory operations this op executed. *)
}

val entries : t -> entry list
(** Every recorded op, in recording order. *)
