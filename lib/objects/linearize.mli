(** Wing–Gong linearizability checking over histories with pending
    operations.

    The search explores the frontier of minimal (in real-time precedence)
    untaken operations: a completed operation can be linearized next only if
    the specification reproduces its recorded response; a pending operation
    (no response — a give-up, crash, or restart ghost) can be linearized
    next with whatever response the specification produces, or left out
    entirely.  Search nodes are memoized on (taken set, canonical abstract
    state) — the state is a single {!Lb_memory.Value.t}, canonicalized by
    its printed form, the same dedup-key discipline as
    [Lb_check.Pure_memory.canonical].

    The verdict is either a witness order, a {e certified} violation
    (with the length of the shortest violating response-prefix), or an
    explicit budget exhaustion — never a silent wrong answer. *)

open Lb_memory

type step = {
  pid : int;
  seq : int;
  op : Value.t;
  response : Value.t;
      (** The response the specification produced at this point — for a
          completed op this equals the recorded response. *)
  was_pending : bool;
}

type stats = { states : int; memo_hits : int }

type verdict =
  | Linearizable of { witness : step list; stats : stats }
  | Not_linearizable of {
      stats : stats;
      completed : int;  (** completed operations in the history. *)
      bad_prefix : int;
          (** The first [bad_prefix] responses (in response order) already
              form a non-linearizable sub-history: the violation's minimal
              certificate. *)
    }
  | Budget_exhausted of { stats : stats; budget : int }

val check : ?max_states:int -> Spec.t -> History.t -> verdict
(** [max_states] bounds the number of distinct DFS nodes expanded
    (default 200_000). *)

val is_linearizable : ?max_states:int -> Spec.t -> History.t -> bool
(** [Budget_exhausted] counts as [false]. *)

val pp_step : Format.formatter -> step -> unit
val pp_verdict : Format.formatter -> verdict -> unit
