(** The structured trace-event vocabulary.

    Every observable thing a run does — a shared-memory access, a coin toss,
    a scheduling decision, an adversary round boundary, a crash or recovery,
    an object-operation lifecycle transition, the run's final outcome — is
    one typed event.  Instrumented modules ({!Lb_memory.Memory} via its tap,
    [Lb_runtime.Process]/[System], the [Lb_adversary] engine,
    [Lb_universal.Harness], [Lb_faults.Fault_engine]) construct these and
    hand them to the ambient {!Tracer}; the tracer stamps each with a
    per-run sequence number ({!stamped]).

    Events are pure data over {!Lb_memory} types, so they serialise: every
    event round-trips through {!to_json}/{!of_json} bit-exactly, which is
    what makes traces diffable artifacts (see {!Trace_diff} and
    docs/OBSERVABILITY.md for the wire schema). *)

open Lb_memory

(** Typed version of a generic executor's terminal outcome (mirrors
    [Lb_runtime.System.outcome], which cannot be referenced from here —
    the runtime depends on this library, not vice versa). *)
type run_outcome = All_terminated | Out_of_fuel | Stalled

type t =
  | Shared_access of {
      pid : int;
      invocation : Op.invocation;
      response : Op.response;
      spurious : bool;
          (** True when a fault interposer made this SC fail spuriously. *)
    }  (** One {!Lb_memory.Memory.apply}, recorded by the memory tap. *)
  | Coin_toss of { pid : int; idx : int; outcome : int }
      (** The [idx]-th toss of [pid] (0-indexed), as drawn from the run's
          toss assignment. *)
  | Sched of { step : int; chosen : int; runnable : int list }
      (** A scheduling decision: at global step [step], [chosen] was picked
          out of [runnable]. *)
  | Round of { index : int }
      (** An adversary round boundary (1-indexed), emitted by the Figure-2
          engine at the start of each round. *)
  | Crash of { pid : int; step : int }
      (** The fault engine first observed [pid] as crashed at [step]. *)
  | Recovery of { pid : int; step : int }
      (** [pid] recovered (its operation is re-invoked / it resumes). *)
  | Op_invoked of { pid : int; seq : int; op : Value.t }
      (** The harness handed object operation [(pid, seq)] to a process. *)
  | Op_completed of {
      pid : int;
      seq : int;
      op : Value.t;
      response : Value.t;
      cost : int;  (** shared-memory operations, including restarted work. *)
    }
  | Op_failed of { pid : int; seq : int; op : Value.t; reason : string; cost : int }
      (** An operation gave up ([Failure] mid-run) — same payload the
          certification verdict tables print. *)
  | Run_end of {
      outcome : run_outcome;
      steps : int;
      ops : (int * int) list;  (** per-pid shared-operation counts. *)
      unfinished : int list;
    }  (** [Lb_runtime.System.run_diagnosed]'s diagnostics, as an event. *)

type stamped = { at : int; event : t }
(** [at] is the tracer's per-run sequence number: 0 for the first recorded
    event, strictly increasing, gap-free (unlike wall-clock timestamps it
    is deterministic, so traces of equal runs are byte-equal). *)

val kind : t -> string
(** Short tag used for filtering and as the JSON ["kind"] field: one of
    {!kinds}. *)

val kinds : string list
(** All valid kind tags: ["access"; "toss"; "sched"; "round"; "crash";
    "recovery"; "invoke"; "complete"; "give-up"; "end"]. *)

val equal : t -> t -> bool
val equal_stamped : stamped -> stamped -> bool

val to_json : stamped -> Json.t
val of_json : Json.t -> (stamped, string) result
(** Inverse of {!to_json}: [of_json (to_json e) = Ok e] for every event. *)

val pp : Format.formatter -> t -> unit
(** One-line human rendering, e.g.
    [access   p3 LL(R0) -> 5] or [crash    p1 at step 14]. *)

val pp_stamped : Format.formatter -> stamped -> unit
(** [pp] prefixed with the sequence number: [[   12] access p3 ...]. *)
