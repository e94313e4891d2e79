(** The shared-memory semantics of Section 3, written once.

    A register's state is an immutable pair: its value and its Pset (the
    processes whose most recent LL on it has not been invalidated by a
    successful SC, a swap, a move into it or a write).  Applied by process
    [p] to a register with value [u] and Pset [A]:
    - [LL(R)]: Pset becomes [A ∪ {p}]; returns [u].
    - [SC(R, v)]: if [p ∈ A], value becomes [v], Pset becomes [∅], returns
      [(true, u)]; otherwise returns [(false, u)] and changes nothing.
    - [validate(R)]: returns [(p ∈ A, u)]; changes nothing.
    - [swap(R, v)]: value becomes [v], Pset becomes [∅], returns [u].
    - [move(Rs, Rd)]: value of [Rd] becomes value of [Rs], Pset of [Rd]
      becomes [∅], returns [ack]; [Rs] is unchanged.  [Rs] and [Rd] must be
      distinct (see {!Lb_secretive.Move_spec.of_list} for why the model
      excludes self-moves).

    The weak-memory axis ({!Memory_model}) adds per-process store buffers
    for the plain [Write], and makes every {!Op.fences} operation drain the
    issuing process's buffer first.

    {!Make} turns a register store into the whole semantics.  {!Memory}
    (flat mutable arrays, the simulator's hot path) and
    [Lb_check.Pure_memory] (a persistent map, for exhaustive exploration)
    are its two instances, so the two memories cannot drift apart. *)

type reg = Value.t * Ids.t
(** A register's state: value and Pset. *)

exception Self_move of { pid : int; reg : int }
(** Raised when process [pid] issues [move(R, R)] on register [reg].
    Self-moves are value no-ops excluded from the model (they break
    Lemma 4.1 — see DESIGN.md §4b). *)

(** {1 Weak LL/SC}

    The paper's memory is {e strong} LL/SC.  An interposer can make an SC
    fail spuriously: answering [Fail_sc] makes it return [(false, u)]
    {e without} writing and {e without} clearing the Pset, so a retried SC
    can still succeed.  It is consulted once per SC, after the fence, so it
    sees the state the SC acts on. *)

type directive = Proceed | Fail_sc

type interposer = pid:int -> Op.invocation -> directive

(** {1 Store buffers} *)

type buffers
(** Every process's pending plain writes, oldest first — a persistent
    value, so both stores hold it the same way. *)

val no_buffers : buffers

(** {1 Flush decisions}

    Under a relaxed model a pending flush is a scheduling choice.
    flush(p, r) is the pseudo-pid [n*(1+r)+p] among [n] processes:
    injective, disjoint from the real pids [0 .. n-1], and decodable without
    state. *)

val flush_id : n:int -> int * int -> int
(** [flush_id ~n (pid, reg)] encodes a flush. *)

val flush_of_id : n:int -> int -> int * int
(** [flush_of_id ~n id] is the [(pid, reg)] encoded by [id >= n]. *)

(** {1 The semantics over a store} *)

module type STORE = sig
  type t

  val model : t -> Memory_model.t

  val interposer : t -> interposer option

  val peek : t -> int -> reg
  (** The state of a non-negative register, without side effects. *)

  val load : t -> int -> reg
  (** The state of a non-negative register an operation is about to act on
      (a store may record the access). *)

  val set : t -> int -> reg -> t
  (** Replace a non-negative register's state.  A mutable store updates
      itself and returns it. *)

  val buffers : t -> buffers
  val set_buffers : t -> buffers -> t
end

module Make (S : STORE) : sig
  val apply : S.t -> pid:int -> Op.invocation -> Op.response * S.t
  (** Apply one operation on behalf of [pid].  A negative pid or register
      raises [Invalid_argument] and a self-move raises {!Self_move}, both
      before any effect.  Under a relaxed model, [Write] enters [pid]'s
      buffer, a fencing operation first drains it (applies it whole in
      issue order, which respects each register's FIFO, so it is a legal
      flush order under TSO and PSO alike), and [Validate] reads
      [pid]'s newest buffered write to the register if one exists (the link
      flag always comes from the shared Pset). *)

  val init : S.t -> int -> Value.t -> S.t
  (** [init s r v] sets register [r] to [v] with an empty Pset, outside the
      model (no operation, no fence): the initial configuration.  Raises
      [Invalid_argument] on a negative register. *)

  val peek : S.t -> int -> Value.t
  (** Current value of a register in shared memory, ignoring buffers.
      Raises [Invalid_argument] on a negative register. *)

  val pset : S.t -> int -> Ids.t
  (** Current Pset of a register.  Raises like {!peek}. *)

  val flushable : S.t -> (int * int) list
  (** Enabled flush actions as sorted [(pid, reg)] pairs; [[]] under SC.
      Under TSO, the head register of each non-empty buffer (one FIFO per
      process); under PSO, each register with a pending write, per process
      (one FIFO per register). *)

  val flush : S.t -> pid:int -> reg:int -> S.t
  (** Apply the oldest buffered write by [pid] to [reg] — the value lands
      and the Pset clears — and remove it from the buffer.  Raises
      [Invalid_argument] when [(pid, reg)] is not in {!flushable}. *)

  val drain_all : S.t -> S.t
  (** Drain every buffer, ascending pid, as a fence by each process would.
      Once every process has returned
      the flush order is unobservable, so quiescence drains this way
      instead of enumerating it. *)

  val buffers : S.t -> (int * (int * Value.t) list) list
  (** Non-empty buffers as sorted [(pid, entries)] pairs, oldest entry
      first. *)

  val buffered_regs : S.t -> pid:int -> int list
  (** Sorted registers with a pending buffered write by [pid]. *)

  val flush_ids : S.t -> n:int -> int list
  (** {!flushable} encoded by {!flush_id}. *)
end
