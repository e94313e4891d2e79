(** Register contents.

    The paper's model gives every shared register an {e unbounded} size; the
    tight O(log n) universal construction depends on it (registers hold whole
    object states, pending-operation sets and response maps).  [Value.t] is a
    small structured-value universe rich enough to encode all of those:
    scalars, pairs, lists and wide bit vectors. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Pair of t * t
  | List of t list
  | Bits of Bitvec.t

val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** A hash over the whole structure (every node, every string byte, every
    bit-vector limb) that agrees with {!equal}.  [Hashtbl.hash] is not a
    substitute: it stops after ten meaningful words, so large states that
    differ deep inside would all collide. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Constructors} *)

val unit : t
val bool : bool -> t
val int : int -> t
val str : string -> t
val pair : t -> t -> t
val list : t list -> t
val bits : Bitvec.t -> t
val triple : t -> t -> t -> t

(** {1 Accessors}

    Each accessor raises [Invalid_argument] with a descriptive message when
    the value has the wrong shape.  Protocol decoding errors in the universal
    constructions are programming errors, never data: registers only ever
    hold values the construction itself wrote. *)

val to_bool : t -> bool
val to_int : t -> int
val to_str : t -> string
val to_pair : t -> t * t
val to_list : t -> t list
val to_bits : t -> Bitvec.t
val to_triple : t -> t * t * t

(** {1 Size} *)

val size : t -> int
(** Rough word-size proxy used by the experiment harness to report how large
    registers grow (the paper's upper bound trades register size for time):
    one per scalar constructor, one per 63 bits of a bit vector. *)
