(** Sets of process identifiers.

    Process ids are the integers [0 .. n-1].  These sets appear in two roles:
    as the [Pset] component of every shared register (the set of processes
    whose LL link is still valid) and as the UP-sets of the
    indistinguishability argument.

    Ids below a dense limit (2{^16}) are stored as a trimmed {!Bitvec} — the
    allocation-light hot path, since Psets churn on every LL and SC and the
    UP-set computation unions thousands of sets per round.  Sets containing
    a larger id transparently fall back to a balanced-tree representation.
    Both forms are canonical: representation is a function of the contents,
    so structural equality coincides with set equality.

    Elements must be non-negative; [add]/[singleton]/[of_list] raise
    [Invalid_argument] on negative ids. *)

type t

val empty : t
val is_empty : t -> bool
val mem : int -> t -> bool
val add : int -> t -> t
val remove : int -> t -> t
val singleton : int -> t
val of_list : int list -> t

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val subset : t -> t -> bool
(** [subset a b] iff every element of [a] is in [b]. *)

val equal : t -> t -> bool

val hash : t -> int
(** A hash over every element, agreeing with {!equal}. *)

val compare : t -> t -> int
(** An arbitrary total order (useful for [Map]/[Set] keys); {e not} the
    lexicographic element order of [Set.Make(Int)]. *)

val cardinal : t -> int
val elements : t -> int list
(** Ascending. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Ascending over elements. *)

val iter : (int -> unit) -> t -> unit
val for_all : (int -> bool) -> t -> bool
val exists : (int -> bool) -> t -> bool
val filter : (int -> bool) -> t -> t
val choose_opt : t -> int option
(** Smallest element, [None] on the empty set. *)

val max_elt_opt : t -> int option

val range : int -> t
(** [range n] is [{0, 1, ..., n-1}]. *)

val pp : Format.formatter -> t -> unit
(** Renders as [{p0, p3, p7}]. *)

val to_string : t -> string
