(** Exhaustive interleaving exploration — a stateless model checker.

    The paper's adversary is one particular scheduler; this module checks
    algorithm properties against {e all} schedulers, by depth-first
    enumeration of every interleaving of shared-memory operations (and every
    combination of coin outcomes from a finite range).  Feasible for small
    systems — the run count is multinomial in the step counts — so it
    complements the randomized schedule tests with exhaustive certainty at
    small n.

    Local coin tosses are resolved eagerly when a process is about to be
    scheduled (branching over [coin_range]); they are not separately
    interleaved, which is sound for all properties that depend only on
    shared-memory interaction and termination values. *)

open Lb_memory
open Lb_runtime

type 'a event =
  | Stepped of int * Op.invocation * Op.response
      (** a process performed a shared-memory operation. *)
  | Flushed of int * int * Value.t
      (** [Flushed (pid, reg, v)] — a buffered write by [pid] of [v] into
          [reg] reached shared memory (relaxed models only; see
          {!Lb_memory.Memory_model}).  Flushes are scheduler-visible steps:
          the explorers interleave them freely with process steps, and any
          buffers still pending when every process has returned drain
          deterministically at run end (their order is unobservable). *)
  | Returned of int * 'a  (** a process terminated with a result. *)

type 'a run = {
  events : 'a event list;  (** in execution order. *)
  results : (int * 'a) list;  (** id order; complete (every process returned). *)
}

exception Limit_exceeded of int
(** Raised when the run count would exceed [max_runs].  [max_runs] is a
    safety valve against state-space blowup, not a schedule bound: an
    enumeration cut at an arbitrary run count has no honest meaning, so
    overrunning it is an error, never a silently-truncated answer.  To
    explore {e deliberately} incomplete schedule sets, pass
    {!Sched_tree.bounds} to {!iter_dpor}: bounded runs are dropped
    gracefully and counted in the [elided] field of {!Sched_tree.stats}, so the result
    says exactly how much was left unexplored. *)

val iter :
  n:int ->
  program_of:(int -> 'a Program.t) ->
  ?inits:(int * Value.t) list ->
  ?coin_range:int list ->
  ?model:Memory_model.t ->
  ?eager_flush:bool ->
  ?max_runs:int ->
  f:('a run -> unit) ->
  unit ->
  int
(** Enumerate every terminating run; call [f] on each; return the count.
    [coin_range] defaults to [[0]] (deterministic algorithms); [max_runs]
    defaults to 200_000.  All programs must terminate on every schedule —
    a non-terminating branch diverges (use bounded programs).

    [model] (default SC) selects the memory model; under TSO/PSO every
    enabled flush is enumerated as a scheduling choice alongside process
    steps, so the run set covers all bufferings.  [eager_flush] (default
    false) instead commits each step's buffered writes immediately after the
    step — the restricted schedule shape under which a relaxed model's
    outcome set provably coincides with SC (pinned as a property in the test
    suite); it is a no-op under SC. *)

val for_all :
  n:int ->
  program_of:(int -> 'a Program.t) ->
  ?inits:(int * Value.t) list ->
  ?coin_range:int list ->
  ?model:Memory_model.t ->
  ?eager_flush:bool ->
  ?max_runs:int ->
  f:('a run -> bool) ->
  unit ->
  bool

val exists :
  n:int ->
  program_of:(int -> 'a Program.t) ->
  ?inits:(int * Value.t) list ->
  ?coin_range:int list ->
  ?model:Memory_model.t ->
  ?eager_flush:bool ->
  ?max_runs:int ->
  f:('a run -> bool) ->
  unit ->
  bool

(** {1 Derived run predicates} *)

val steppers_before_first_one : int run -> Ids.t option
(** For wakeup condition 3: the set of processes that had performed at least
    one shared-memory operation strictly before the first [Returned (_, 1)]
    event; [None] when nobody returns 1. *)

val wakeup_ok : n:int -> int run -> bool
(** All three wakeup conditions on one run (condition 3 in the
    shared-op-step interpretation above, the one relevant to all corpus
    algorithms). *)

(** {1 Dynamic partial-order reduction}

    [iter] enumerates the full multinomial schedule space; most of those
    schedules only differ by swapping adjacent steps that touch disjoint
    registers, and many interleavings reconverge to the same state.
    {!iter_dpor} expands {e one} process at each state and adds
    alternatives back only where a {e race} — a step dependent with an
    earlier co-enabled step of another process — proves the reordering
    can matter ({!Sched_tree}).  On top of that:

    - {e sleep sets}: an explored alternative stays asleep in its
      siblings' subtrees until a dependent step (shared register) wakes
      it, so every pruned schedule differs from an explored one only by
      commuting adjacent independent steps.  A step whose expansion
      returns is {e blocking} (dependent with everything), because
      commuting a [Returned] past a [Stepped] changes which processes
      stepped before it.
    - {e state dedup}: a state is keyed on (canonical memory, per-process
      operation/response/toss histories, the {!steppers_before_first_one}
      summary); reaching a visited key with a sleep set that covers the
      stored one cannot reveal new behaviour and is cut off.

    Soundness scope: reduction preserves the {e set} of distinct
    [(results, wakeup verdict)] outcomes — sound for {!wakeup_ok}-style
    predicates, which depend on the results and on which processes stepped
    before the first 1-return, but {e not} for predicates sensitive to the
    exact event order of every schedule.  The callback sees one
    representative per covered class, not every schedule; local coins are
    resolved eagerly as in {!iter}.  Optional {!Sched_tree.bounds} degrade
    the exploration gracefully instead of raising {!Limit_exceeded}.  See
    docs/PERFORMANCE.md and docs/EXPLORATION.md for the full argument. *)

val iter_dpor :
  n:int ->
  program_of:(int -> int Program.t) ->
  ?inits:(int * Value.t) list ->
  ?coin_range:int list ->
  ?model:Memory_model.t ->
  ?bounds:Sched_tree.bounds ->
  ?dedup:bool ->
  ?max_runs:int ->
  f:(int run -> unit) ->
  unit ->
  Sched_tree.stats
(** Explore with bounded DPOR; [f] sees each completed run.  Without
    [bounds] the exploration is exhaustive up to the documented reduction
    ({!Sched_tree.exhaustive} holds); with bounds, cut schedules are
    counted in {!Sched_tree.stats}'s [elided] field.  [dedup] (default [true])
    enables stateful DPOR — cutting covered state revisits, compensated by
    continuation summaries (see {!Sched_tree.machine}); [~dedup:false] is pure
    stateless DPOR, whose schedule count is the number of Mazurkiewicz
    traces and can explode on long programs (tree-collect at n=2 already
    does) — use it only on small systems or under [bounds].  [max_runs]
    (default 200_000) caps total run executions and raises
    {!Limit_exceeded} when hit.  A run does not replay its prefix: it
    resumes from the state the previous run left where their paths part
    (a {!Sched_tree.machine}'s snapshot), so it usually executes only its
    divergence step and what follows it.

    [model] (default SC): under TSO/PSO, enabled flushes join the tree's
    decision alphabet as pseudo-process ids (stable across replays because
    the flushable set is a function of the re-derived state), each with the
    flushed register as footprint; a fencing step's footprint is widened by
    its dynamically buffered registers; and the dedup key includes buffer
    contents — a buffered-but-unflushed write is part of canonical state. *)

(** {2 State keys}

    With [dedup] on, {!iter_dpor} marks every state it reaches with a
    {!state_key} and passes the scheduler tree a dense [int] id for it:
    each walk interns its keys in a table of its own.  The table holds
    each history as a hash-consed [int] id — equal ids exactly for equal
    histories — so it merges the states structural equality on
    {!state_key} would, and hashes each key to its {!hash_state_key}. *)

type summary = Before of Ids.t | After of Ids.t
(** The processes that stepped before the first [Returned (_, 1)] —
    [Before] while none has returned 1, frozen into [After] at that
    return.  It is the outcome-relevant past {!wakeup_ok} reads. *)

type state_key =
  ((int * (Value.t * Ids.t)) list * (int * (int * Value.t) list) list)
  * (int * (Op.invocation * Op.response * int list) list) list
  * summary
(** [(Pure_memory.canonical_full memory, histories, summary)]: the memory
    including buffered writes, then per pid (ascending) its history of
    [(invocation, response, coin outcomes)], newest first, ending in the
    initial expansion's pseudo-entry. *)

val hash_state_key : state_key -> int
(** A hash over the whole key — every register with its value and Pset,
    every buffered write, every history entry and the summary — that
    agrees with structural equality.  The generic [Hashtbl.hash] reads
    only ten meaningful words, so a walk's keys collapse into a few dozen
    buckets under it. *)

val dpor_state_keys :
  n:int ->
  program_of:(int -> int Program.t) ->
  ?inits:(int * Value.t) list ->
  ?coin_range:int list ->
  ?model:Memory_model.t ->
  ?max_runs:int ->
  unit ->
  state_key list
(** The distinct keys an [iter_dpor ~dedup:true] walk interns, in first
    visit order — the states its dedup table holds, each rebuilt in full
    from the walk's history ids. *)

val for_all_dpor :
  n:int ->
  program_of:(int -> int Program.t) ->
  ?inits:(int * Value.t) list ->
  ?coin_range:int list ->
  ?model:Memory_model.t ->
  ?bounds:Sched_tree.bounds ->
  ?dedup:bool ->
  ?max_runs:int ->
  f:(int run -> bool) ->
  unit ->
  bool
(** {!for_all} over the DPOR-reduced schedule set — equivalent to the full
    [for_all] for predicates within the soundness scope above; stops at the
    first counterexample. *)
