(** Declarative, composable fault plans.

    A plan is a named list of {e injectors}, each a deterministic (given the
    engine's seed) description of one adversity:

    - [crash_stop ~pid ~after]: [pid] takes [after] shared-memory steps,
      then is never scheduled again (crash-stop, mid-operation).
    - [crash_recover ~pid ~after ~restart]: as above, but [restart] global
      steps after the crash the process comes back.  Under the
      {!Lb_universal.Harness} driver its in-flight operation is re-invoked
      from scratch (volatile state lost); under a {!Lb_runtime.System} run
      it resumes where it stopped (checkpointed local state) — the two
      standard recovery models.
    - [spurious_sc_rate r]: every SC fails spuriously with probability [r]
      (deterministically derived from the engine seed).  Weak LL/SC: the
      failed SC changes nothing and {e keeps} the Pset intact.
    - [spurious_sc_at ~pid ~at]: [pid]'s [k]-th SC (1-based) fails
      spuriously for each [k] in [at] — the surgical variant for tests.
    - [delay ~pid ~from_step ~duration]: [pid] is unschedulable during the
      global-step window — an adversarial starvation window.
    - [stall_region ~regs ~from_step ~duration]: any process whose pending
      operation touches one of [regs] is blocked during the window — a
      stalled memory region / slow home node.

    Plans are {e data}; {!Fault_engine.instantiate} turns one into the
    mutable run state that interposes on {!Lb_memory.Memory.apply} and the
    scheduler. *)

type injector =
  | Crash_stop of { pid : int; after : int }
  | Crash_recover of { pid : int; after : int; restart : int }
  | Spurious_sc_rate of float
  | Spurious_sc_at of { pid : int; at : int list }
  | Delay of { pid : int; from_step : int; duration : int }
  | Stall_region of { regs : int list; from_step : int; duration : int }

type t
(** A named, immutable list of injectors. *)

val none : t
(** The empty plan: a run under [none] is a fault-free run. *)

val name : t -> string
val injectors : t -> injector list

(** {1 Constructors} — one single-injector plan per injector kind. *)

val crash_stop : pid:int -> after:int -> t
val crash_recover : pid:int -> after:int -> restart:int -> t
val spurious_sc_rate : float -> t
val spurious_sc_at : pid:int -> at:int list -> t
val delay : pid:int -> from_step:int -> duration:int -> t
val stall_region : regs:int list -> from_step:int -> duration:int -> t

val compose : ?name:string -> t list -> t
(** Concatenate the injectors of several plans. *)

val horizon : t -> int
(** Steps beyond the workload the run must be given before concluding that a
    process starved: the last window expiry / recovery deadline. *)

val has_crash : t -> bool
(** Does the plan contain any crash-stop or crash-recover injector? *)

val has_spurious : t -> bool
(** Does the plan contain any spurious-SC injector? *)

val crash_stopped : t -> int list
(** Pids the plan crash-stops (sorted, deduplicated). *)

val crash_recovering : t -> int list
(** Pids the plan crashes and later recovers. *)

val pp_injector : Format.formatter -> injector -> unit
val pp : Format.formatter -> t -> unit

(** {1 The named plan grammar}

    The CLI's [--plan] argument: one of {!plan_names}, or several joined
    with ["+"] (e.g. ["crash-stop+spurious-sc"]), each instantiated at the
    run's process count. *)

val named : n:int -> (string * t) list
(** The built-in plans ([crash-stop], [crash-recover], [spurious-sc],
    [delay], [stall], [chaos], …) instantiated for [n] processes. *)

val of_name : n:int -> string -> t option
(** Parse a [--plan] argument: a {!plan_names} entry or several joined
    with ["+"] (the composite keeps the argument as its name); [None] if
    any component is unknown. *)

val plan_names : string list
(** The names {!of_name} accepts as components. *)
