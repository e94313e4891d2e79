(** Bounded dynamic partial-order reduction over a persistent scheduler tree.

    This is the dejafu-style systematic-concurrency-testing core shared by
    the pure explorer ({!Explore.iter_dpor}) and the conformance certifier
    ([Lb_conformance.Exhaustive]).  Both hand the walk a {!machine} —
    reset, poll, execute one step, optionally a dedup key and a snapshot,
    judge — and {!drive} runs it: at each scheduling point the walk picks
    one of the enabled processes, the machine executes that process's next
    shared-memory step and reports the step's {e footprint}.  Reduction is
    relative to the dependency relation of {!Race}: two steps are
    {e dependent} when their footprints touch a common register or either
    is {e blocking}.  Each run starts with a {e resume} from the previous
    run's snapshot where the two runs' paths part (stateless model
    checking, with the shared prefix skipped instead of replayed).

    The walk drives the machine repeatedly.  Each completed run's trace is
    folded into a persistent tree whose nodes carry {e todo} decisions
    (discovered backtracking points), {e done} edges (explored decisions),
    and {e sleep} sets (fully-explored siblings that pending runs must not
    repeat).  Races — a step dependent with an earlier step of another
    process that was enabled there, found by {!Race.type-analyzer} — add todo
    entries dynamically, per Flanagan–Godefroid DPOR; sleep sets prune the
    re-execution of already-covered interleavings, per Godefroid's
    sleep-set theorem.

    {2 Bounding}

    Exploration composes three optional {!bounds} (dejafu's combination
    bounding): a pre-emption bound, a fairness bound, and a length bound.
    One predicate decides whether a step fits them, both for a run's next
    choice and for a todo entry the walk would insert.
    Out-of-bound schedules are not an error — they are counted in
    the [elided] field of {!stats} and the result honestly reports
    [{!exhaustive} = false].  Pre-emption bounding adds the conservative
    extra backtracking point at the previous context switch (Coons–
    Musuvathi–McKinley BPOR) so low bounds still find most reorderings;
    fairness and length bounding filter schedules without extra points, so
    within-bound coverage is best-effort — the [elided] count is the
    contract, never a silent claim of exhaustiveness. *)

type fp = Race.fp = { regs : int list; blocking : bool }
(** {!Race.fp}, re-exported only for the benchmark harness
    (bench/workloads), which builds [{ Sched_tree.regs; blocking }]. *)

val footprint : Lb_memory.Op.invocation -> int list
(** {!Race.footprint}, re-exported for the same reason. *)

type bounds = {
  preempt : int option;
      (** max pre-emptive context switches per schedule — a switch away
          from a process that was still enabled. *)
  fair : int option;
      (** max difference between a process's step count (after its next
          step) and the least-stepped enabled process's count. *)
  length : int option;  (** max scheduling decisions per schedule. *)
}

val no_bounds : bounds
val bounded : bounds -> bool
val pp_bounds : Format.formatter -> bounds -> unit

(** {1 Exhaustive exploration} *)

type stats = {
  schedules : int;  (** complete runs the callback saw. *)
  sleep_blocked : int;
      (** runs abandoned with every enabled process asleep — provably
          redundant interleavings, no loss. *)
  deduped : int;  (** runs abandoned at a previously-visited state. *)
  elided : int;
      (** what the bounds dropped: runs a bound cut (or the runner
          abandoned), plus rejected todo {e insertion attempts}.  A race
          in a run's replayed prefix is requested again by every run that
          shares the prefix, and an out-of-bound request is counted each
          time, so this is not a count of distinct schedules lost.
          Nonzero means the exploration was {e not} exhaustive. *)
  max_depth : int;  (** longest schedule executed, in decisions. *)
}

val exhaustive : stats -> bool
(** [elided = 0]: nothing was cut by a bound, so the outcome set is the
    full one (up to the documented reduction). *)

val pp_stats : Format.formatter -> stats -> unit

exception Schedule_limit of int
(** Raised by {!drive} when the total number of runs (complete or
    aborted) would exceed [max_schedules] — a safety valve against
    state-space blowup, not a bound: there is no honest partial answer at
    this level, so it is an error. *)

(** {1 The step-machine runner} *)

type poll = Lb_runtime.Scheduler.poll =
  | Enabled of int list  (** the ids that may step next. *)
  | Finished of bool  (** the run is over; [true] if it completed. *)

type 's stepped = {
  fp : fp;  (** the step's dependency footprint. *)
  branches : int;  (** its coin-branch fan-out (1 for none). *)
  absorbed : int list;
      (** enabled decisions whose effect the step silently performed, as a
          fence absorbs its process's flush ids.  Each becomes a mandatory
          todo sibling, like a coin branch, unless asleep or explored there:
          an absorbed decision is in no trace, so no race can request it. *)
  next : int -> 's;  (** the successor for each coin branch. *)
}

type ('s, 'k, 'r) machine = {
  reset : unit -> 's;
      (** The initial state.  Called at the start of every run, also one
          that then resumes: a [snapshot] thunk must put back everything
          the reset changed. *)
  poll : 's -> 's * poll;
      (** What may step next, or whether the run is over.  The returned
          state replaces the polled one (a harness settles its processes
          here). *)
  exec : 's -> enabled:int list -> int -> 's stepped;
      (** Execute the chosen id, one of [enabled]. *)
  key : ('s -> 'k) option;
      (** Stateful DPOR: a canonical key of the state after each step; a
          revisit whose stored sleep set is covered by the current one
          aborts the run.  Each visited state keeps a summary of every
          [(process, footprint)] step known to occur below it
          (Yang–Chen–Gopalakrishnan–Kirby), and a cut run's prefix is
          raced against it as {e virtual steps}, again whenever it grows
          (the cut run keeps only its trace for that, and its race
          analysis and tree path are rebuilt when the summary grows).
          The key must determine the future behaviour and the
          outcome-relevant past, as {!Explore.state_key} does.  Keys are
          hashed with the generic [Hashtbl.hash], which reads ten words, so
          pass a compact one, such as an interned [int]. *)
  snapshot : ('s -> unit -> 's) option;
      (** [snapshot s] takes what restoring [s] needs beyond [s] (a memory
          checkpoint, say); the thunk puts it back and returns [s].  Each
          run starts from the deepest snapshot of the previous run that
          its path shares, short of its divergence decision.  The walk is
          unchanged — same runs, order and stats — if the machine is
          deterministic and each thunk restores everything later steps
          read.  [None]: every run replays from [reset]. *)
  judge : 's -> bool -> 'r;  (** The finished state, and whether it completed. *)
}

val drive :
  ?bounds:bounds -> ?max_schedules:int -> ('s, 'k, 'r) machine -> f:('r -> bool) -> unit -> stats
(** Run the machine until the scheduler tree has no todo decisions left:
    the one runner of {!Explore.iter_dpor} and the conformance certifier.
    [f] receives each judged run's result; returning [false] stops the
    walk early (the stats then cover only the explored part).  A run is
    judged when the machine reports [Finished], also when its last step
    revisited a known state; a run the oracle aborts before that is not.
    [max_schedules] defaults to [200_000].  Subtrees with no todo left are
    flagged and skipped, so finding the next schedule costs
    O(depth × branching) node visits, not a walk of the whole tree. *)

(** {1 The callback oracle}

    A run written against {!choose}/{!commit} instead of a {!machine}.
    Only the benchmark harness (bench/workloads) and the conformance
    suite's replaying reference runner use it; the library walks machines
    with {!drive}, and the fuzzer samples with
    {!Lb_runtime.Scheduler.random}. *)

type 'k sched
(** One run's scheduling oracle.  ['k] is the state-dedup key type (only
    exercised by a {!machine}'s [key]; samplers ignore it). *)

val choose : 'k sched -> step:int -> enabled:int list -> int option
(** Pick the next process.  [None] aborts the run: every enabled process
    is asleep, the bounds forbid every choice, or the dedup key hit a
    visited state.  [step] is the caller's global step clock — used only by
    samplers, so gaps (e.g. harness idle ticks) are fine. *)

val commit : 'k sched -> fp:fp -> branches:int -> int
(** Report the chosen step's footprint and its coin-branch fan-out; the
    returned branch index (in [0 .. branches-1]) selects which branch the
    runner must take.  Exactly one [commit] must follow each successful
    {!choose}.  Sibling branches become mandatory todo entries — coin
    outcomes are resolved eagerly and are not schedule-reducible. *)

val interrupted : 'k sched -> bool
(** Whether this run was aborted by the oracle (sleep, bound, or dedup) —
    distinguishes oracle aborts from genuine runner outcomes such as a
    stalled harness. *)

val sampler : seed:int -> 'k sched
(** The seeded random oracle: {!choose} is {!Lb_runtime.Scheduler.random}
    with the same seed, and [commit] always selects branch 0. *)

val explore :
  ?bounds:bounds ->
  ?max_schedules:int ->
  run:('k sched -> 'r option) ->
  f:('r -> bool) ->
  unit ->
  stats
(** {!drive} over a callback run: [run] must execute one schedule under
    the given oracle from the initial state and return [Some result] for a
    completed run or [None] for an aborted one (check {!interrupted} to
    distinguish oracle aborts from runner failures, which are counted as
    elided).  Every run replays from the initial state. *)
