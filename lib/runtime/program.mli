(** Algorithms as resumable step machines.

    A process's algorithm is a value of type ['a t]: either it has terminated
    with a result, or its next step is a local coin toss, or its next step is
    a shared-memory operation.  This free-monad representation gives a
    scheduler exactly the power the paper's adversary has: it can drive a
    process through its local coin tosses to the next shared-memory step
    (Phase 1 of a round), {e inspect} which operation that step is (to
    partition processes into the LL/validate, move, swap and SC groups), and
    then fire operations group by group. *)

open Lb_memory

type 'a t =
  | Return of 'a
  | Toss of (int -> 'a t)
  | Op of Op.invocation * (Op.response -> 'a t)

(** {1 Monad} *)

val return : 'a -> 'a t
val bind : 'a t -> ('a -> 'b t) -> 'b t
val map : ('a -> 'b) -> 'a t -> 'b t

module Syntax : sig
  val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
  val ( let+ ) : 'a t -> ('a -> 'b) -> 'b t
end

(** {1 Shared-memory steps}

    Each primitive performs one shared-memory operation and returns its
    (decoded) response. *)

val ll : int -> Value.t t
(** [ll r] load-links register [r]. *)

val sc : int -> Value.t -> (bool * Value.t) t
(** [sc r v] store-conditionals [v] to [r]; returns (success, current). *)

val sc_flag : int -> Value.t -> bool t
(** [sc r v] keeping only the success flag. *)

val validate : int -> (bool * Value.t) t
(** [validate r]: is this process's link to [r] still intact? *)

val read : int -> Value.t t
(** [read r] is [validate r] keeping only the value — the paper's observation
    that validate subsumes read. *)

val swap : int -> Value.t -> Value.t t
(** [swap r v] writes [v] to [r] and returns the previous value. *)

val move : src:int -> dst:int -> unit t
(** Raises [Invalid_argument] if [src = dst]: the model's move operates on
    two distinct registers (see {!Lb_secretive.Move_spec.of_list}). *)

val write : int -> Value.t -> unit t
(** [write r v]: a plain store — the only operation the relaxed memory
    models buffer ({!Lb_memory.Memory_model}).  Under SC it applies
    immediately, like every other write-class operation. *)

val fence : unit t
(** Drain this process's store buffer; a no-op under SC.  LL, SC, swap and
    move fence implicitly — an explicit fence is needed only between plain
    writes and reads. *)

(** {1 Local steps} *)

val toss : int t
(** One coin toss; the outcome comes from the run's toss assignment. *)

val toss_bounded : int -> int t
(** [toss_bounded b] is a toss reduced modulo [b] ([b > 0]). *)

(** {1 Composition helpers} *)

val iter_list : ('a -> unit t) -> 'a list -> unit t
(** Sequence a program over each list element, left to right; likewise
    {!fold_list} and {!map_list}. *)

val fold_list : ('acc -> 'a -> 'acc t) -> 'acc -> 'a list -> 'acc t
val map_list : ('a -> 'b t) -> 'a list -> 'b list t

val retry_until : (unit -> 'a option t) -> max_attempts:int -> 'a t
(** [retry_until body ~max_attempts] runs [body] until it yields [Some x]
    (returning [x]); raises [Failure] after [max_attempts] yields of [None].
    Where a helping argument bounds the retries, exceeding the bound is a
    bug and must blow up, not spin; for a lock-free loop
    ([Lb_universal.Direct.fetch_inc]) it is a give-up, which the harness
    records instead of crashing. *)

(** {1 Introspection} *)

val is_done : 'a t -> bool
val pending_op : 'a t -> Op.invocation option
(** The shared-memory operation the program is blocked on, if any. *)
