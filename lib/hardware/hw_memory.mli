(** The hardware backend's shared memory: the paper's
    LL/SC + VL/swap/move register model (Section 3, as implemented by
    {!Lb_memory.Memory} in the simulator) realized on OCaml 5 [Atomic]
    cells, so the same free-monad programs run as native multicore code.

    {b Construction.}  Blelloch–Wei tagged indirection ("LL/SC and
    Atomic Copy: constant-time, space-efficient implementations using
    only pointer-width CAS", PAPERS.md): a register is an atomic pointer
    to an immutable tagged cell, every write installs a fresh cell, LL
    records the observed cell in a per-process link slot, and SC is a
    [compare_and_set] from that cell.  Under a GC, fresh cells make
    pointer equality ABA-free, so this yields the {e strong} semantics
    of {!Lb_memory.Memory}: SC succeeds exactly when no write intervened
    since the link.  Programs only ever rely on the {e weak} contract
    (SC may fail spuriously), so they run unchanged on both backends.

    {b Concurrency contract.}  [apply ~pid ...] must be called only from
    the single domain owning [pid] (link slots and op counters are
    single-writer).  Registers are shared and accessed only through
    [Atomic].  [Move] is read-then-exchange, not a single atomic copy;
    runs that exercise it concurrently are certified (or not) by the
    recorded-history linearizability check, not by fiat. *)

open Lb_memory

type t

val create : ?default:Value.t -> registers:int -> n:int -> unit -> t
(** A memory of [registers] registers (all holding [default],
    [Value.Unit] by default) for processes [0 .. n-1].  Unlike the
    simulator's growable arrays, the register file is fixed at creation:
    programs address registers by dense {!Lb_memory.Layout} indices, so
    the capacity is known up front and the hot path stays
    allocation-free. *)

val of_layout : ?default:Value.t -> Layout.t -> n:int -> unit -> t
(** Capacity [Layout.next_free + 8] (eight spare registers beyond the
    layout), with the layout's initial values installed. *)

val set_init : t -> int -> Value.t -> unit
(** Pre-run initialization only: resets the cell (tag 0) without
    clearing link slots.  Not safe against concurrent [apply]. *)

val install_layout : t -> Layout.t -> unit

val apply : t -> pid:int -> Op.invocation -> Op.response
(** Execute one shared-memory operation on [pid]'s own domain.  Response
    shapes and success conditions mirror {!Lb_memory.Memory.apply} under
    the [Proceed] directive; raises {!Lb_memory.Memory.Self_move} on a
    self-move, [Invalid_argument] on an out-of-range register. *)

val peek : t -> int -> Value.t
(** Current value of a register (racy by nature; exact between runs). *)

val n : t -> int
val capacity : t -> int

val ops_of : t -> pid:int -> int
(** Shared-memory operations executed by [pid] so far.  Single-writer:
    exact when read from [pid]'s domain or after a join. *)

val total_ops : t -> int
val max_ops : t -> int
(** Max over pids — the paper's worst-case shared-access cost measure. *)
