(** Per-round records of adversary-scheduled runs.

    Both the (All, A)-run (Figure 2) and the (S, A)-run (Figure 3) proceed in
    rounds of five phases: (1) local coin tosses up to the next shared-memory
    step, then one shared-memory operation per non-terminated participant —
    (2) the LL/validate group in id order, (3) the move group in the order of
    a secretive complete schedule, (4) the swap group in id order, (5) the SC
    group in id order.

    A [Round.t] records everything the UP-set update rules (Section 5.3) and
    the indistinguishability relation (Section 5.5) need: the executed events
    with their phase, the move spec [(G₂ᵣ, f_r)] and schedule [σ_r], and
    end-of-round snapshots of process observables and register states. *)

open Lb_memory
open Lb_secretive

type event = {
  pid : int;
  invocation : Op.invocation;
  response : Op.response;
  phase : int;  (** 2 = LL/validate, 3 = move, 4 = swap, 5 = SC. *)
}

type 'a proc_obs = {
  tosses : int;  (** cumulative coin tosses — the paper's [numtosses]. *)
  ops : int;  (** cumulative shared-memory operations — [t(p, ·)]. *)
  result : 'a option;  (** [Some v] once the process terminated returning [v]. *)
}

type 'a t = private {
  index : int;  (** 1-based round number. *)
  participants : int list;  (** processes scheduled this round, id order. *)
  events : event list;  (** execution order (phases 2-5 concatenated). *)
  move_spec : Move_spec.t;  (** [(G₂ᵣ, f_r)]: the round's move group. *)
  sigma : int list;  (** the schedule used for phase 3. *)
  procs : 'a proc_obs array;
      (** end-of-round observables of every process, indexed by pid. *)
  regs : (int * (Value.t * Ids.t)) list;
      (** end-of-round state of every touched register, strictly ascending by
          register (the order {!Lb_memory.Memory.snapshot} produces).  The
          indistinguishability check walks two runs' lists together and
          relies on this order. *)
  by_pid : event option array;
      (** index = pid: the event that process executed this round; derived
          from [events] by {!make}. *)
}

val make :
  index:int ->
  participants:int list ->
  events:event list ->
  move_spec:Move_spec.t ->
  sigma:int list ->
  procs:'a proc_obs array ->
  regs:(int * (Value.t * Ids.t)) list ->
  'a t
(** The only constructor: builds the per-pid event lookup once, so
    {!event_of} and {!obs} are O(1).  Each process executes at most one
    event per round. *)

val events_in_phase : 'a t -> int -> event list
val event_of : 'a t -> int -> event option
(** The (unique) event process [pid] executed this round, if any. O(1). *)

val successful_sc : 'a t -> reg:int -> int option
(** Pid of the process whose SC on [reg] succeeded this round (at most one
    can). *)

val swappers : 'a t -> reg:int -> int list
(** Processes that swapped on [reg] this round, in execution order. *)

val by_register : 'a t -> (int * event list) list
(** The round's events grouped by the register they target ({!Op.target};
    fences name none): ascending by register, each group in execution order.
    One sort of the events, for callers that need {!successful_sc} or
    {!swappers} for many registers. *)

val sc_winner : event list -> int option
(** [successful_sc] over one {!by_register} group. *)

val swappers_in : event list -> int list
(** [swappers] over one {!by_register} group. *)

val reg_state : 'a t -> int -> (Value.t * Ids.t) option

val obs : 'a t -> int -> 'a proc_obs
(** O(1); raises [Invalid_argument] on a pid outside [0 .. n-1]. *)

val iter_paired : (int -> 'a t -> 'b t -> unit) -> 'a t list -> 'b t list -> unit
(** [iter_paired f xs ys] calls [f r x y] on the [r]-th rounds (1-based) of
    both lists, up to the shorter one: one walk, no [List.nth]. *)

val pp : Format.formatter -> 'a t -> unit
(** Human-readable round dump (without snapshots). *)
