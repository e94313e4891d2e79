(** Fixed-width bit vectors.

    The paper's Theorem 6.2 concerns [k]-bit objects with [k >= n] (e.g. an
    [n]-bit fetch&and object for [n] processes), so the register contents must
    be genuine wide words rather than native integers.  This module provides
    arbitrary-width bit vectors with the ring and boolean operations those
    object types need: AND, OR, single-bit complement, addition and
    multiplication, all modulo [2^width].

    Vectors are immutable; every operation returns a fresh vector of the same
    width.  Operations over two vectors require equal widths and raise
    [Invalid_argument] otherwise. *)

type t

val width : t -> int
(** Number of bits. Always positive. *)

val zero : int -> t
(** [zero k] is the [k]-bit vector of all zeroes. Raises [Invalid_argument]
    if [k <= 0]. *)

val ones : int -> t
(** [ones k] is the [k]-bit vector of all ones, i.e. [2^k - 1]. *)

val one : int -> t
(** [one k] is the [k]-bit vector representing 1. *)

val of_int : width:int -> int -> t
(** [of_int ~width v] encodes the non-negative integer [v] modulo
    [2^width]. Raises [Invalid_argument] if [v < 0]. *)

val to_int_opt : t -> int option
(** [to_int_opt v] is [Some n] when the value fits in a non-negative OCaml
    [int] (i.e. below [2^62]), [None] otherwise. *)

val get : t -> int -> bool
(** [get v i] is bit [i] (0-indexed from the least significant bit).
    Raises [Invalid_argument] if [i] is out of range. *)

val set : t -> int -> bool -> t
(** [set v i b] is [v] with bit [i] forced to [b]. *)

val complement_bit : t -> int -> t
(** [complement_bit v i] flips bit [i] — the paper's fetch&complement. *)

val lognot : t -> t
(** Bitwise complement of every bit. *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t

val add : t -> t -> t
(** Addition modulo [2^width]. *)

val succ : t -> t
(** [succ v] is [add v (one (width v))]. *)

val mul : t -> t -> t
(** Multiplication modulo [2^width] — the paper's fetch&multiply semantics. *)

val shift_left : t -> int -> t
(** [shift_left v k] multiplies by [2^k] modulo [2^width]; [k >= 0]. *)

val resize : t -> width:int -> t
(** [resize v ~width] reinterprets [v] at the given width: growing zero-pads,
    shrinking discards the bits at and above [width].  Raises
    [Invalid_argument] if [width <= 0]. *)

val set_grow : t -> int -> bool -> t
(** [set_grow v i b] is [set v i b], except the vector is first widened to
    [i + 1] bits when [i] is beyond the current width — a single-allocation
    combined widen-and-set, the {!Lb_memory.Ids} hot path. *)

val top_bit : t -> int option
(** Index of the most significant set bit, [None] when the vector is zero. *)

val trim : t -> t
(** Canonical form: width shrunk to [top_bit + 1] (width 1 for the zero
    vector).  Two vectors holding the same bit set trim to structurally equal
    values. *)

val fold_set : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold_set f v acc] folds [f] over the indices of set bits in ascending
    order. *)

val popcount : t -> int
(** Number of set bits. *)

val is_zero : t -> bool

val equal : t -> t -> bool
(** Structural equality; vectors of different widths are never equal. *)

val compare : t -> t -> int
(** Total order: first by width, then by value. *)

val hash : t -> int
(** A hash over the width and every limb, agreeing with {!equal}. *)

val pp : Format.formatter -> t -> unit
(** Hexadecimal rendering, most significant digit first, e.g. [0x1f/8] for a
    width-8 vector holding 31. *)

val to_string : t -> string

val random : Random.State.t -> width:int -> t
(** Uniformly random vector of the given width, for tests. *)
