(** Non-oblivious direct implementations — the sublogarithmic escape hatch.

    The paper's closing point: sublogarithmic-time implementations exist but
    must exploit the semantics of the implemented type, so they can never
    come from an oblivious universal construction.  Two classics: *)

open Lb_memory

val compare_and_swap : Layout.t -> init:Value.t -> Iface.handle
(** A wait-free compare&swap over a single LL/SC register in {e at most two}
    shared-memory operations, independent of [n].  Operation encoding is
    that of {!Lb_objects.Misc_types.compare_and_swap}:
    [Pair (expected, new_)] with response [Pair (Bool ok, previous)].

    It relies on a distinct-values precondition (no value is written twice —
    tag values with the writer and a sequence number to guarantee it): a
    failed SC returns the register's {e current} value [u], and [u ≠
    expected] then certifies that the CAS can linearize as a failure at the
    SC.  If [u = expected] (an ABA the precondition excludes) the program
    raises [Failure] rather than silently mis-linearizing. *)

val fetch_inc : Iface.t
(** The textbook lock-free LL/SC retry loop for fetch&increment, named
    ["direct"] (operation [Unit], response the previous counter value; the
    spec argument of [create] is ignored).  O(1) without contention but
    {e not wait-free}: each failed SC means another process succeeded, so
    under adversarial contention one operation can take O(n) steps — the
    ablation experiment measures exactly that.  An operation gives up with
    {!Lb_runtime.Program.retry_until}'s [Failure] after [2n + 4] failed
    attempts, which the harness records as a give-up; [worst_case ~n] is
    [2 (2n + 4)] shared operations. *)
