(** Facade: one module exposing the whole reproduction.

    The library reproduces Jayanti's PODC 1998 lower bound: any
    implementation of fetch&increment, fetch&and/or/complement/multiply,
    queue, stack or read+increment from LL/SC/validate/move/swap shared
    memory has worst-case (expected) shared-access time Ω(log n) — and the
    bound is tight for oblivious universal constructions.

    Layering, bottom-up:
    - {!Value}, {!Bitvec}, {!Ids}, {!Op}, {!Semantics}, {!Memory}, {!Layout}:
      the shared-memory model of Section 3, written once in {!Semantics}
      and stored mutably by {!Memory};
    - {!Coin}, {!Program}, {!Process}, {!System}, {!Scheduler}: algorithms as
      schedulable step machines;
    - {!Move_spec}, {!Source_movers}, {!Secretive}: Section 4's secretive
      complete schedules;
    - {!Round}, {!All_run}, {!S_run}, {!Upsets}, {!Indistinguishability},
      {!Lower_bound}: the Section 5 adversary and the Theorem 6.1 analysis;
    - {!Spec}, {!Counters}, {!Bitwise}, {!Containers}, {!Misc_types},
      {!Atomic}, {!History}, {!Linearize}: object types, concurrent
      histories with pending operations, and the Wing–Gong checker;
    - {!Iface}, {!Adt_tree}, {!Herlihy}, {!Direct}, {!Harness},
      {!Complexity}: universal constructions and their measurement;
    - {!Pure_memory}, {!Explore}, {!Sched_tree}, {!Race}: the model-checking layer —
      the persistent store of {!Semantics}, full/reduced interleaving enumeration,
      the bounded-DPOR scheduler tree behind [--exhaustive], and its race analysis;
    - {!Json}, {!Event}, {!Tracer}, {!Trace_file}, {!Trace_diff}, {!Metrics},
      {!Bench_out}: the observability layer — structured trace events, the
      metrics registry and machine-readable benchmark artifacts;
    - {!Pool}: the domain pool — deterministic order-preserving parallel
      [map] with per-task metric/trace capture merged at join;
    - {!Fault_plan}, {!Fault_engine}, {!Fault_targets}, {!Faults}:
      fault injection (crashes, recovery, weak LL/SC, delays) and wakeup
      certification under it (constructions under a plan are judged by
      {!Schedule_fuzz.assess});
    - {!Mutate}, {!Schedule_fuzz}, {!Shrink}, {!Conformance},
      {!Exhaustive}: the conformance subsystem — mutation testing,
      differential schedule fuzzing, counterexample shrinking, and
      bounded-exhaustive certification over {!Sched_tree}'s DPOR;
    - {!Problem}, {!Reductions}, {!Direct_algorithms}, {!Randomized},
      {!Cheaters}, {!Corpus}: the wakeup problem and its algorithm corpus;
    - {!Hw_memory}, {!Hw_recorder}, {!Hw_run}, {!Hw_harness}, {!Hw_bench}:
      the hardware backend — the same free-monad programs interpreted on
      real OCaml 5 domains over [Atomic] LL/SC cells (Blelloch–Wei tagged
      indirection), with recorded histories certified by {!Linearize}.

    One library sits {e above} this facade in the dependency DAG and so
    cannot be re-exported from it: [Lb_experiments] (E1–E14 as
    table-producing thunks).  Executables that need it depend on it
    directly.  The full layer map is docs/ARCHITECTURE.md. *)

(* Shared-memory model *)
module Value = Lb_memory.Value
module Bitvec = Lb_memory.Bitvec
module Ids = Lb_memory.Ids
module Op = Lb_memory.Op
module Semantics = Lb_memory.Semantics
module Memory = Lb_memory.Memory
module Memory_model = Lb_memory.Memory_model
module Layout = Lb_memory.Layout
module Profile = Lb_memory.Profile

(* Runtime *)
module Coin = Lb_runtime.Coin
module Program = Lb_runtime.Program
module Process = Lb_runtime.Process
module System = Lb_runtime.System
module Scheduler = Lb_runtime.Scheduler

(* Secretive schedules (Section 4) *)
module Move_spec = Lb_secretive.Move_spec
module Source_movers = Lb_secretive.Source_movers
module Secretive = Lb_secretive.Secretive

(* Adversary (Section 5) and the lower bound (Section 6) *)
module Round = Lb_adversary.Round
module All_run = Lb_adversary.All_run
module S_run = Lb_adversary.S_run
module Upsets = Lb_adversary.Upsets
module Indistinguishability = Lb_adversary.Indistinguishability
module Claims = Lb_adversary.Claims
module Lower_bound = Lb_adversary.Lower_bound

(* Object types *)
module Spec = Lb_objects.Spec
module Counters = Lb_objects.Counters
module Bitwise = Lb_objects.Bitwise
module Containers = Lb_objects.Containers
module Misc_types = Lb_objects.Misc_types
module Atomic = Lb_objects.Atomic
module History = Lb_objects.History
module Linearize = Lb_objects.Linearize

(* Universal constructions *)
module Iface = Lb_universal.Iface
module Codec = Lb_universal.Codec
module Adt_tree = Lb_universal.Adt_tree
module Herlihy = Lb_universal.Herlihy
module Consensus_list = Lb_universal.Consensus_list
module Direct = Lb_universal.Direct
module Harness = Lb_universal.Harness
module Complexity = Lb_universal.Complexity

(* Exhaustive checking *)
module Pure_memory = Lb_check.Pure_memory
module Explore = Lb_check.Explore
module Race = Lb_check.Race
module Sched_tree = Lb_check.Sched_tree
module Litmus = Lb_check.Litmus

(* Extensions (Section 7) *)
module Rmw = Lb_extensions.Rmw

(* Observability *)
module Json = Lb_observe.Json
module Event = Lb_observe.Event
module Tracer = Lb_observe.Tracer
module Trace_file = Lb_observe.Trace_file
module Trace_diff = Lb_observe.Trace_diff
module Metrics = Lb_observe.Metrics
module Bench_out = Lb_observe.Bench_out
module Bench_gate = Lb_observe.Bench_gate

(* Parallel execution *)
module Pool = Lb_exec.Pool

(* Fault injection and certification *)
module Fault_plan = Lb_faults.Fault_plan
module Fault_engine = Lb_faults.Fault_engine
module Fault_targets = Lb_faults.Targets
module Faults = Lb_faults.Certify

(* Conformance *)
module Mutate = Lb_conformance.Mutate
module Schedule_fuzz = Lb_conformance.Fuzz
module Shrink = Lb_conformance.Shrink
module Conformance = Lb_conformance.Conform
module Exhaustive = Lb_conformance.Exhaustive

(* Hardware backend *)
module Hw_memory = Lb_hardware.Hw_memory
module Hw_recorder = Lb_hardware.Recorder
module Hw_run = Lb_hardware.Hw_run
module Hw_harness = Lb_hardware.Hw_harness
module Hw_bench = Lb_hardware.Hw_bench

(* Wakeup *)
module Problem = Lb_wakeup.Problem
module Reductions = Lb_wakeup.Reductions
module Direct_algorithms = Lb_wakeup.Direct_algorithms
module Randomized = Lb_wakeup.Randomized
module Cheaters = Lb_wakeup.Cheaters
module Corpus = Lb_wakeup.Corpus

(** Analyze a corpus entry at [n] processes under the Theorem 6.1 adversary
    with the deterministic toss assignment. *)
let analyze_entry (entry : Corpus.entry) ~n ~max_rounds =
  let program_of, inits = entry.Corpus.make ~n in
  Lower_bound.analyze ~n ~program_of ~inits ~max_rounds ()

(** Analyze under a seeded uniform toss assignment (for randomized
    algorithms). *)
let analyze_entry_seeded (entry : Corpus.entry) ~n ~seed ~max_rounds =
  let program_of, inits = entry.Corpus.make ~n in
  Lower_bound.analyze ~n ~program_of ~inits ~assignment:(Coin.uniform ~seed) ~max_rounds ()
