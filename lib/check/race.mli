(** The dependency relation that {!Sched_tree}'s DPOR walk reduces
    against, and the analyzer that finds a trace's reversible races: the
    pairs of steps whose other order the walk must also try. *)

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

(** {1 Race analysis} *)

type analyzer
(** The race analysis of a trace that grows by {!extend} and shrinks by
    {!cut}.  The walk keeps one: each run cuts it back to the steps it
    shares with the previous run and extends it over the rest, so a run
    analyzes only the steps it adds.  It is linear in the trace's length:
    a step's vector clock joins only its immediate predecessors, the only
    steps that can be in reversible race with it.  Registers are
    non-negative, as in [Lb_memory.Memory]. *)

val analyzer : unit -> analyzer
(** An analyzer of the empty trace. *)

val extend : analyzer -> int -> fp -> unit
(** [extend z pid fp] appends a step of process [pid] with footprint
    [fp]. *)

val cut : analyzer -> int -> unit
(** [cut z k] keeps the first [k] steps (all of them if there are fewer):
    afterwards [z] is what extending a fresh analyzer over those steps
    gives. *)

val length : analyzer -> int
(** The number of steps [z] holds. *)

val races_at : analyzer -> int -> int list
(** [races_at z j]: the steps in reversible race with step [j],
    descending — the list the analyzer stored when it added [j], so
    reading it allocates nothing. *)

val virtual_races : analyzer -> int -> fp -> int list
(** [virtual_races z q fq]: the steps, descending, in reversible race with
    a {e virtual} step [(q, fq)] placed after every step [z] holds (a step
    known to occur below a cut run's final state; see {!Sched_tree.machine}'s
    [key]). *)

type analysis = {
  hb : int -> int -> bool;
      (** [hb i j]: step [i] is step [j] or happens before it — program
          order plus {!dependent} steps, closed transitively. *)
  races : (int * int) list;
      (** The reversible races [(i, j)]: [i < j], steps of different
          processes, {!dependent}, and no step [k] between them with
          [hb i k] and [hb k j].  Ordered by [j] ascending, then [i]
          descending — the order the walk requests backtracking points
          in. *)
  virtual_races : int -> fp -> int list;  (** {!val-virtual_races} of the analyzer. *)
}

val analysis : analyzer -> analysis
(** The analysis of the steps [z] holds, as one value; it reads [z], so it
    is valid until the next {!extend} or {!cut}.  Building [races]
    allocates: the walk reads {!races_at} instead. *)
