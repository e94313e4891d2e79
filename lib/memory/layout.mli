(** Register layout allocator.

    Universal constructions need to carve disjoint groups of registers out of
    the (conceptually infinite) shared memory and give them initial values.
    A [Layout.t] hands out fresh register indices and remembers the intended
    initial value of each, so a harness can install several constructions in
    one memory without overlap. *)

type t

val create : unit -> t
(** Allocator starting at register index 0. *)

val alloc : t -> init:Value.t -> int
(** Reserve one fresh register. *)

val alloc_array : t -> len:int -> init:Value.t -> int array
(** Reserve [len] consecutive fresh registers, all with the same initial
    value. Raises [Invalid_argument] if [len < 0]. *)

val next_free : t -> int
(** Index the next [alloc] would return. *)

val reserve_tail : t -> int
(** Claim the entire open-ended register space beyond all allocations so
    far: returns its first index and closes the layout (subsequent [alloc]s
    raise [Invalid_argument]).  Registers in the region read as the memory
    default until written — used by constructions needing unboundedly many
    registers (e.g. the consensus cell sequence). *)

val inits : t -> (int * Value.t) list
(** All reservations so far, in allocation order. *)

val install : t -> Memory.t -> unit
(** Write every reserved register's initial value into the memory (via
    {!Memory.set_init}; does not count operations). *)
