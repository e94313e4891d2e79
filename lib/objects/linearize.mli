(** Wing–Gong linearizability checking over histories with pending
    operations.

    The search explores the frontier of minimal (in real-time precedence)
    untaken operations: a completed operation can be linearized next only if
    the specification reproduces its recorded response; a pending operation
    (no response — a give-up, crash, or restart ghost) can be linearized
    next with whatever response the specification produces, or left out
    entirely.  Search nodes are memoized on (taken set, abstract state):
    the taken set is a bitset packed [Sys.int_size] ops to a word, and the
    state, a single {!Lb_memory.Value.t}, is interned by
    {!Lb_memory.Value.equal}, which is equivalent to the printed form
    (tested).

    At each node the search tries, each group in history order: completed
    operations whose response matches and that leave the state equal
    (a read-like step that moves the search on without changing the
    state), then the other
    matching completed operations, then pending operations that change
    the state.  It applies each enabled completed operation once per node,
    and a pending one only when no completed operation led to a witness.
    A node scans only the completed operations invoked before the first
    untaken one responded, since no later one is enabled, so what a node
    does and keeps grows with how many operations overlap, not with the
    length of the history.
    A pending operation that leaves the state equal is never taken:
    pending operations precede nothing, so dropping such a step from a
    witness leaves a witness.

    The order decides which witness is found and the [states] and
    [memo_hits] counts.  The search is complete in any order, so while no
    search runs out of budget, the verdict, [completed] and [bad_prefix]
    do not depend on it.  A search that runs out in one order may finish
    in another, and the [bad_prefix] scan passes over a prefix that runs
    out, so under a small budget [bad_prefix] can be longer than the
    shortest violating prefix and depend on the order.

    The verdict is either a witness order, a {e certified} violation
    (with the length of the first response-prefix proven violating), or an
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
              form a non-linearizable sub-history: the first prefix the
              scan proves violating.  It is the shortest violating prefix
              whenever no shorter prefix's search ran out of budget. *)
    }
  | Budget_exhausted of { stats : stats; budget : int }

val check : ?max_states:int -> Spec.t -> History.t -> verdict
(** [max_states] bounds the number of distinct DFS nodes expanded
    (default 200_000). *)

val is_linearizable : ?max_states:int -> Spec.t -> History.t -> bool
(** [Budget_exhausted] counts as [false]. *)

val pp_step : Format.formatter -> step -> unit
val pp_verdict : Format.formatter -> verdict -> unit
