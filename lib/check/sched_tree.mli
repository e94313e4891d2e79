(** Bounded dynamic partial-order reduction over a persistent scheduler tree.

    This is the dejafu-style systematic-concurrency-testing core shared by
    the pure explorer ({!Explore.iter_dpor}) and the conformance certifier
    ([Lb_conformance.Exhaustive]): one abstraction that can {e exhaust} a
    schedule space (DPOR with dynamically added backtracking points),
    {e sample} it (the seeded random scheduler the fuzzer uses), or
    {e replay} one recorded schedule — all three behind the same
    {!choose}/{!commit} oracle, so a runner written once serves every mode.

    {2 The model}

    A runner executes one schedule at a time (stateless model checking:
    every run restarts from the initial state, or, if the runner {!save}s
    its states, from the previous run's state where the two runs' paths
    part — see {!resume}).  At each scheduling point it
    calls {!choose} with the currently enabled processes, executes the
    returned process's next shared-memory step, and reports the step's
    {e footprint} back with {!commit}.  Two steps are {e dependent} when
    their footprints touch a common register or either is {e blocking}; all
    reduction arguments are relative to this relation (see {!dependent}).

    In exhaustive mode, {!explore} drives the runner repeatedly.  Each
    completed run's trace is folded into a persistent tree whose nodes carry
    {e todo} decisions (discovered backtracking points), {e done} edges
    (explored decisions), and {e sleep} sets (fully-explored siblings that
    pending runs must not repeat).  Races — a step dependent with an earlier
    step of another process that was enabled there — add todo entries
    dynamically, per Flanagan–Godefroid DPOR; sleep sets prune the
    re-execution of already-covered interleavings, per Godefroid's
    sleep-set theorem.

    {2 Bounding}

    Exploration composes three optional {!bounds} (dejafu's combination
    bounding): a pre-emption bound, a fairness bound, and a length bound.
    Out-of-bound schedules are not an error — they are counted in
    the [elided] field of {!stats} and the result honestly reports
    [{!exhaustive} = false].  Pre-emption bounding adds the conservative
    extra backtracking point at the previous context switch (Coons–
    Musuvathi–McKinley BPOR) so low bounds still find most reorderings;
    fairness and length bounding filter schedules without extra points, so
    within-bound coverage is best-effort — the [elided] count is the
    contract, never a silent claim of exhaustiveness. *)

type fp = {
  regs : int list;  (** registers the step may read or write. *)
  blocking : bool;
      (** dependent with {e every} other step: return-publishing steps in
          the pure explorer (commuting a return changes the wakeup
          summary), operation invocation/response boundaries in the
          harness (commuting them changes history precedence), and every
          step under an impure fault plan. *)
}

val dependent : fp -> fp -> bool
(** Register overlap, or either side blocking.  Register overlap subsumes
    LL/SC link-kill dependence: any write-class step on [r] can kill
    another process's outstanding link on [r], and both footprints
    contain [r]. *)

val footprint : Lb_memory.Op.invocation -> int list
(** The registers a shared-memory invocation may read or write — the
    [regs] component of its {!fp}.  [Fence] is statically empty: its effect
    (flushing buffered writes) depends on run-time buffer contents, so
    relaxed-model explorers must union in the issuing process's buffered
    registers (see [Explore.iter_dpor]); under SC a fence is a pure no-op. *)

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

(** {1 The scheduling oracle} *)

type 'k sched
(** One run's scheduling oracle.  ['k] is the runner's state-dedup key
    type (only exercised by {!mark}; samplers and replayers ignore it). *)

val choose : 'k sched -> step:int -> enabled:int list -> int option
(** Pick the next process.  [None] aborts the run: every enabled process
    is asleep, the bounds forbid every choice, or {!mark} hit a visited
    state.  [step] is the caller's global step clock — used only by
    samplers/replayers, so gaps (e.g. harness idle ticks) are fine. *)

val commit : 'k sched -> fp:fp -> branches:int -> int
(** Report the chosen step's footprint and its coin-branch fan-out; the
    returned branch index (in [0 .. branches-1]) selects which branch the
    runner must take.  Exactly one [commit] must follow each successful
    {!choose}.  Sibling branches become mandatory todo entries — coin
    outcomes are resolved eagerly and are not schedule-reducible. *)

val also : 'k sched -> pid:int -> unit
(** Declare [pid] a {e mandatory} alternative to the step just committed:
    it is enqueued as a todo sibling at that node, like a coin branch —
    not schedule-reducible — unless it is asleep there or already
    explored.  Runners must call this for every enabled decision whose
    effect the committed step silently absorbed, because an absorbed
    decision never appears in any trace and an unobserved step can never
    be raced by the backtracking pass.  The canonical client is
    [Explore.iter_dpor] under a relaxed memory model: a fencing step
    drains the issuing process's store buffer, absorbing the enabled
    flush pseudo-decisions — without [also], "flush first, interleave
    other processes, then fence" would be silently unexplored.  Call
    after {!commit}, before the next {!choose}. *)

val mark : 'k sched -> key:'k -> unit
(** Optional state dedup (stateful DPOR), called after {!commit} with a
    canonical key of the resulting state.  A revisit whose stored sleep
    set is covered by the current one aborts the run (the next {!choose}
    returns [None]).  A cut run's race detection would otherwise be
    incomplete — races between its prefix and its never-executed
    continuation go unseen — so {!explore} keeps, per visited state, a
    summary of every [(process, footprint)] step known to occur below it
    (Yang–Chen–Gopalakrishnan–Kirby), races a cut run's prefix against
    that summary as {e virtual steps}, and re-fires the analysis when the
    summary grows later.  The key must determine both the future behaviour
    (memory, per-process continuations) and the outcome-relevant past, as
    {!Explore.state_key} does.  Runners that cannot canonicalize
    state simply never call [mark].

    The table that holds the keys uses the generic [Hashtbl.hash], which
    reads only the first ten meaningful words of a key: a structured key
    puts most states into a few buckets and every lookup then compares
    along a long chain.  Pass a compact key instead, such as an [int] id
    the runner interned under a full-structure hash ({!Explore.iter_dpor}
    does this). *)

val save : 'k sched -> (unit -> unit) -> unit
(** Offer the oracle a way back to the runner's current state: [restore]
    must put the runner exactly where it is now, after the latest
    {!commit} and its {!also} and {!mark} calls.  {!explore} keeps the
    thunks of the previous run's path only — one per depth, so memory is
    O(depth) — and {!resume} runs one of them at the start of the next
    run, keeping those it shares and dropping the deeper ones.  A thunk
    over persistent values (an immutable memory, a [Map], a
    [Harness.state]) is cheap to take.  {!Explore.iter_dpor} and the
    conformance certifier both save after every commit.  Samplers and
    replayers ignore it, and a runner that never calls it pays
    nothing. *)

val resume : 'k sched -> bool
(** Call first thing in a run, after resetting the runner to its initial
    state.  It finds the longest prefix this run's decisions share with
    the previous run's trace, stopping before this run's divergence
    decision, and runs the thunk the previous run {!save}d at the deepest
    depth at or below that point; [false] if there is none (the first run,
    a previous run that saved nothing, or a sampler or replayer), and the
    runner then starts from its initial state as before.  Any prefix left
    after the resumed depth is replayed through {!choose} as usual.

    The contract is {e exactly as replay}: the oracle is left as replaying
    the resumed decisions would have left it — the same trace (each
    resumed step with the empty sleep set a replayed prefix step records
    and the {!also} siblings it recorded), the same pre-emption and
    fairness counters, and the same {!mark}ed positions, up to and
    including the resumed depth, with no dedup table lookups — and the
    resumed depths' thunks carry over to this run's saves.  So a resuming
    walk visits the same runs in the same order with the same stats as a
    replaying one, provided the runner is deterministic and each thunk
    restores everything later steps read. *)

val interrupted : 'k sched -> bool
(** Whether this run was aborted by the oracle (sleep, bound, or dedup) —
    distinguishes oracle aborts from genuine runner outcomes such as a
    stalled harness. *)

(** {1 Exhaustive exploration} *)

type stats = {
  schedules : int;  (** complete runs the callback saw. *)
  sleep_blocked : int;
      (** runs abandoned with every enabled process asleep — provably
          redundant interleavings, no loss. *)
  deduped : int;  (** runs abandoned at a previously-visited state. *)
  elided : int;
      (** schedules provably dropped by the bounds (cut runs plus todo
          entries rejected at insertion) — nonzero means the exploration
          was {e not} exhaustive. *)
  max_depth : int;  (** longest schedule executed, in decisions. *)
}

val exhaustive : stats -> bool
(** [elided = 0]: nothing was cut by a bound, so the outcome set is the
    full one (up to the documented reduction). *)

val pp_stats : Format.formatter -> stats -> unit

exception Schedule_limit of int
(** Raised by {!explore} when the total number of runs (complete or
    aborted) would exceed [max_schedules] — a safety valve against
    state-space blowup, not a bound: there is no honest partial answer at
    this level, so it is an error. *)

val explore :
  ?bounds:bounds ->
  ?max_schedules:int ->
  run:('k sched -> 'r option) ->
  f:('r -> bool) ->
  unit ->
  stats
(** Drive [run] until the scheduler tree has no todo decisions left.
    [run] must execute one schedule under the given oracle from the
    initial state and return [Some result] for a completed run or [None]
    for an aborted one (check {!interrupted} to distinguish oracle aborts
    from runner failures, which are counted as elided).  [f] receives
    each completed run's result; returning [false] stops the exploration
    early (the stats then cover only the explored part).
    [max_schedules] defaults to [200_000].  Subtrees with no todo left are
    flagged and skipped, so finding the next schedule costs
    O(depth × branching) node visits, not a walk of the whole tree. *)

(** {1 Race analysis} *)

type analysis = {
  hb : int -> int -> bool;
      (** [hb i j]: step [i] is step [j] or happens before it — program
          order plus {!dependent} steps, closed transitively. *)
  races : (int * int) list;
      (** The reversible races [(i, j)]: [i < j], steps of different
          processes, {!dependent}, and no step [k] between them with
          [hb i k] and [hb k j].  Ordered by [j] ascending, then [i]
          descending — the order {!explore} requests backtracking points
          in. *)
  virtual_races : int -> fp -> int list;
      (** [virtual_races q fq]: the steps [i], descending, in reversible
          race with a {e virtual} step [(q, fq)] placed after the whole
          trace (a step known to occur below a cut run's final state; see
          {!mark}). *)
}

val analyze : (int * fp) array -> analysis
(** The race analysis {!explore} runs on every trace of [(pid, fp)] steps
    (registers are non-negative, as in [Lb_memory.Memory]).  It is linear
    in the trace's length: each step's vector clock joins only its
    immediate predecessors — the previous step of its process, the last
    earlier step on each of its registers, the last earlier blocking
    step, and for a blocking step the last step of every process — and
    only those predecessors can be in reversible race with it. *)

(** {1 Sampling and replay oracles} *)

val sampler : seed:int -> 'k sched
(** The seeded random oracle — byte-identical to
    {!Lb_runtime.Scheduler.random} with the same seed, so fuzzing samples
    exactly the tree that {!explore} exhausts, with unchanged pinned
    results.  [commit] always selects branch 0. *)

val replayer : int list -> 'k sched
(** Replay a recorded pid schedule: entries not currently enabled are
    skipped, and after exhaustion the run finishes round-robin —
    byte-identical to the conformance replayer's semantics. *)
