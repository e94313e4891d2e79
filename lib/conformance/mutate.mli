(** Mutation testing for the conformance checker.

    Each mutant is a known construction bug expressed as a program rewrite
    over the free monad: the wrapped construction issues a different
    shared-memory operation (with its response post-mapped so the original
    continuation still typechecks) and thereby silently weakens LL/SC.  The
    fuzzer's job is to {e kill} every mutant — find a schedule whose history
    the checker rejects.  A mutant that never {e fires} on some construction
    (e.g. a Swap mutant on a construction that never swaps) is reported as
    not-applicable, not as surviving. *)

open Lb_runtime
open Lb_universal

type t = { name : string; description : string }

val all : t list
(** [drop-sc-validation], [stale-ll], [lost-sc-write], [lost-swap-write]. *)

val find : string -> t option

val wrap : t -> Iface.t -> Iface.t * (unit -> int)
(** [wrap m c] is the mutated construction (name suffixed with ["+" ^ m.name])
    and a reader of how many times the mutation fired, cumulative across
    every run of the returned construction.  A run resumed from a saved
    state (see {!Lb_universal.Iface.handle}'s [snapshot]) is credited with
    the rewrites of the prefix it skipped, so the count is the same as if
    every run had replayed from the start. *)

val rewrite :
  ('s ->
  Lb_memory.Op.invocation ->
  Lb_memory.Op.invocation * (Lb_memory.Op.response -> 's * Lb_memory.Op.response)) ->
  's ->
  'a Program.t ->
  'a Program.t
(** The underlying generic rewriter, exposed for tests: [rewrite rule st p]
    threads the rule's state [st] through [p]'s continuations — the
    post-map of each response gives the state for the rest of [p]. *)
