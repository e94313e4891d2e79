(** Shared-memory operations.

    The five operation types of the paper's model (Section 3): LL, SC,
    validate, swap and (register-to-register) move.  The paper strengthens
    the usual definitions: SC and validate return the register's previous /
    current value alongside the boolean, and swap returns the previous value.
    There is no separate read — [validate] subsumes it.

    Two further operations exist for the weak-memory scenario axis
    ({!Memory_model}): a plain store [Write] — the only operation that is
    {e relaxable}, i.e. buffered rather than applied under TSO/PSO — and an
    explicit [Fence].  Under SC both behave as ordinary immediate operations,
    so programs that never run under a relaxed model can ignore them. *)

type invocation =
  | Ll of int  (** [Ll r]: link-load register [r]. *)
  | Sc of int * Value.t  (** [Sc (r, v)]: store-conditional [v] into [r]. *)
  | Validate of int  (** [Validate r]: test the link, return current value. *)
  | Swap of int * Value.t  (** [Swap (r, v)]: write [v], return old value. *)
  | Move of int * int
      (** [Move (src, dst)]: copy [value src] into [dst]; [src] unchanged. *)
  | Write of int * Value.t
      (** [Write (r, v)]: plain store of [v] into [r] (clears the Pset, like
          every write-class operation).  Under a relaxed model the store
          enters the issuing process's buffer instead of memory. *)
  | Fence
      (** Drain the issuing process's store buffer; a no-op under SC. *)

type response =
  | Value of Value.t  (** Response of LL and swap. *)
  | Flagged of bool * Value.t  (** Response of SC and validate. *)
  | Ack  (** Response of move. *)

(** Adversary phase classification (Figure 2 partitions pending operations
    into the LL/validate group, the move group, the swap group and the SC
    group).  [Write_kind] and [Fence_kind] classify the weak-memory
    extensions; the paper's round adversary never encounters them. *)
type kind = Read | Move_kind | Swap_kind | Sc_kind | Write_kind | Fence_kind

val kind : invocation -> kind

val fences : invocation -> bool
(** Whether the operation drains the issuing process's store buffer before
    taking effect under a relaxed {!Memory_model}: [Ll], [Sc], [Swap] and
    [Move] (the synchronisation repertoire, like x86 LOCK'd instructions)
    and [Fence].  [Validate] is the plain read and [Write] the plain store. *)

val registers : invocation -> int list
(** Registers named by the invocation ([Move] names two, in (src, dst)
    order; [Fence] names none). *)

val target : invocation -> int
(** The register whose state the operation can change (for [Move] this is the
    destination; for [Ll]/[Validate] the named register).  Raises
    [Invalid_argument] for [Fence], which names no register. *)

val equal_invocation : invocation -> invocation -> bool
val equal_response : response -> response -> bool

val pp_invocation : Format.formatter -> invocation -> unit
val pp_response : Format.formatter -> response -> unit
val pp_kind : Format.formatter -> kind -> unit

(** {1 Response accessors} — raise [Invalid_argument] on shape mismatch. *)

val value_of : response -> Value.t
(** The value carried by the response. [Ack] carries none and raises. *)

val flag_of : response -> bool
(** The boolean of a [Flagged] response. *)
