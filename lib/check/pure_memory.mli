(** Immutable shared memory, for exhaustive exploration: the persistent
    instance of {!Lb_memory.Semantics}.

    Same semantics as {!Lb_memory.Memory}, by construction — both stores
    run {!Lb_memory.Semantics.Make} — but [apply] returns a new memory
    instead of mutating, so the model checker can branch on every
    interleaving without copying or undo logs (persistent maps share
    structure between branches).  There is no interposer, so every SC is
    strong. *)

open Lb_memory

type t

val create :
  ?default:Value.t -> ?model:Memory_model.t -> inits:(int * Value.t) list -> unit -> t
(** A memory whose registers all read [default] (unit when omitted) except
    the listed initial bindings.  [model] defaults to {!Memory_model.SC}.
    Raises [Invalid_argument] on a negative register, like
    {!Lb_memory.Memory.set_init}. *)

val model : t -> Memory_model.t

(** {1 The semantics} — see {!Lb_memory.Semantics.Make} for each function. *)

val apply : t -> pid:int -> Op.invocation -> Op.response * t
val peek : t -> int -> Value.t
val pset : t -> int -> Ids.t
val flushable : t -> (int * int) list
val flush : t -> pid:int -> reg:int -> t
val drain_all : t -> t
val buffers : t -> (int * (int * Value.t) list) list
val buffered_regs : t -> pid:int -> int list
val flush_ids : t -> n:int -> int list

(** {1 State keys} *)

val canonical : t -> (int * (Value.t * Ids.t)) list
(** The {e shared-register} bindings that differ from the default state, in
    ascending register order.  Two memories with the same default and {b no
    buffered writes} are observationally equal iff their canonical forms are
    structurally equal ({!Lb_memory.Ids.t} values built through the [Ids] API
    are themselves canonical).  Under a relaxed model this is {e not} a
    complete state key — a buffered-but-unflushed write is invisible here —
    so dedup must use {!canonical_full}. *)

val canonical_full : t -> (int * (Value.t * Ids.t)) list * (int * (int * Value.t) list) list
(** [(canonical t, buffers t)] — the complete observational state, including
    writes that are issued but not yet visible.  This is the dedup key the
    explorers use; collapsing states that differ only in buffer contents
    would be unsound (they diverge once the buffers flush). *)
