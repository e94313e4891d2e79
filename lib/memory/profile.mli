(** Access profiles from a run's shared-memory accesses.

    A {!Memory.tap} sees every applied operation; this module condenses the
    [(pid, invocation, response)] stream it collects into the contention
    statistics a systems reader expects next to the shared-access counts:
    per-operation-kind totals, SC success rate, and the per-register access
    distribution (the paper's adversary works precisely by steering all
    processes onto the registers where invalidation hurts most). *)

type register_stats = {
  reg : int;
  accesses : int;
  ll : int;
  sc_success : int;
  sc_fail : int;
  validates : int;
  swaps : int;
  writes : int;
  moves_in : int;
  moves_out : int;
}

type t = {
  total : int;
  per_kind : (Op.kind * int) list;  (** every kind, fixed order. *)
  sc_success_rate : float;  (** successful SCs / all SCs; 1.0 if no SC. *)
  registers : register_stats list;  (** sorted by [accesses], descending. *)
  hottest : int option;  (** register with the most accesses. *)
  distinct_processes : int;
}

val of_accesses : (int * Op.invocation * Op.response) list -> t
(** Profile of [(pid, invocation, response)] accesses, oldest first. *)

val pp : Format.formatter -> t -> unit
(** Multi-line summary with a top-registers table. *)
