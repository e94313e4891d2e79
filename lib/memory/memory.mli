(** The shared memory, mutable: the simulator's instance of {!Semantics}.

    An "infinite" array of registers [R0, R1, ...] (materialised lazily)
    supporting the operations of the model, with per-process shared-access
    accounting — the quantity the paper's lower bound is about — and an
    optional event log.  What each operation does is {!Semantics}; this
    module is the register store and the accounting around it.

    Registers and per-process counters live in flat growable arrays indexed
    by register number / pid (registers are allocated densely from 0 by
    {!Layout}), so the [apply] hot path performs no hashing and a single
    probe per access; astronomically large register indices spill into a
    side table.  Process ids and register indices must be non-negative. *)

type t

type event = { pid : int; invocation : Op.invocation; response : Op.response }

exception Self_move of { pid : int; reg : int }
(** {!Semantics.Self_move}: raised by {!apply} when process [pid] issues
    [move(R, R)] on register [reg]. *)

(** {1 Fault interposition}

    Real machines expose {e weak} LL/SC, where an SC may fail spuriously.
    An interposer injects that weakness (see {!Semantics.directive}); the
    fault-injection layer ({!Lb_faults.Fault_engine}) builds interposers from
    declarative fault plans. *)

type directive = Semantics.directive = Proceed | Fail_sc

type interposer = Semantics.interposer

val set_interposer : t -> interposer option -> unit
(** Install (or with [None] remove) the interposer.  At most one is active;
    composition happens at the fault-plan layer. *)

(** {1 Observer tap}

    The read-only sibling of the interposer: a callback consulted {e after}
    every {!apply}, with the operation's response and whether the SC failed
    spuriously (it failed while its issuer stayed linked).  The
    observability layer ({!Lb_observe.Tracer.attach_memory}) builds its
    shared-access event stream from this hook; like the interposer there is
    at most one tap and it must not mutate the memory. *)

type tap = pid:int -> Op.invocation -> Op.response -> spurious:bool -> unit

val set_tap : t -> tap option -> unit
(** Install (or with [None] remove) the tap. *)

val create : ?default:Value.t -> ?log:bool -> ?model:Memory_model.t -> unit -> t
(** Fresh memory.  Registers that have never been written read as [default]
    (default [Value.Unit]).  When [log] is true (default false) every applied
    operation is recorded in order.  [model] (default {!Memory_model.SC})
    selects the consistency model. *)

val model : t -> Memory_model.t

val set_init : t -> int -> Value.t -> unit
(** [set_init m r v] initialises register [r] to [v] with an empty Pset,
    without counting an operation — for setting up the initial
    configuration (e.g. a queue that "initially contains n items"). *)

val apply : t -> pid:int -> Op.invocation -> Op.response
(** {!Semantics.Make.apply}: apply one operation on behalf of [pid], count
    it, and return the response.  A rejected operation is not counted. *)

(** {1:buffers Store buffers (TSO / PSO)}

    Buffered writes become visible to other processes only when {e flushed}
    — a scheduler-visible step distinct from any process's program step.
    See {!Semantics.Make} for each function. *)

val flushable : t -> (int * int) list
val flush : t -> pid:int -> reg:int -> unit
val drain_all : t -> unit
val buffers : t -> (int * (int * Value.t) list) list
val flush_ids : t -> n:int -> int list

(** {1 Observer access} — none of these count as shared-memory operations;
    they exist for schedulers, run records and tests. *)

val peek : t -> int -> Value.t
(** Current value of a register.  Raises [Invalid_argument] on a negative
    register. *)

val pset : t -> int -> Ids.t
(** Current Pset of a register.  Raises like {!peek}. *)

val touched : t -> int list
(** Sorted indices of registers that were ever materialised (initialised or
    operated on). *)

val snapshot : t -> (int * (Value.t * Ids.t)) list
(** State of all touched registers, sorted by index. *)

val largest_value_size : t -> int
(** Max [Value.size] over touched registers — how big registers grew. *)

(** {1 Accounting} *)

val ops_of : t -> pid:int -> int
(** Number of shared-memory operations process [pid] has applied. *)

val total_ops : t -> int

val max_ops : t -> int
(** [max] over processes of [ops_of] — the paper's [t(R)] for the run so
    far. *)

val events : t -> event list
(** The log, oldest first.  Empty when logging is disabled. *)

val pp_event : Format.formatter -> event -> unit
