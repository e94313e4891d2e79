(** Wire format of the universal constructions.

    Both constructions keep three kinds of data in (unbounded-size) shared
    registers: operation descriptors, cumulative sets of descriptors, and the
    root record pairing the object state with the map of responses to every
    operation ever applied.  This module is the single place that knows how
    those are encoded as {!Lb_memory.Value.t}. *)

open Lb_memory

(** {1 Operation descriptors} *)

module Desc : sig
  type t = { pid : int; seq : int; op : Value.t }

  val key : t -> int * int
  (** [(pid, seq)] — unique per operation instance. *)

  val compare : t -> t -> int
  (** By key; the deterministic order in which batched operations are applied
      to the object state. *)

  val encode : t -> Value.t
  val decode : Value.t -> t
end

(** {1 Cumulative descriptor sets}

    Encoded as a [Value.List] of encoded descriptors, sorted by key and
    duplicate-free.  Sets only ever grow (unions), which is what makes the
    combining tree's "try twice" merge sound. *)

module Dset : sig
  val empty : Value.t
  val singleton : Desc.t -> Value.t
  val decode : Value.t -> Desc.t list
  (** Sorted by key. *)

  val union : Value.t -> Value.t -> Value.t
  val add : Value.t -> Desc.t -> Value.t
  val subset : Value.t -> Value.t -> bool
  val cardinal : Value.t -> int
  val mem : Value.t -> int * int -> bool
end

(** {1 The root record}

    [state] is the current object state; [responses] maps the key of every
    applied operation to its response.  The response map doubles as the
    "done" set preventing re-application. *)

module Root : sig
  type t = { state : Value.t; responses : ((int * int) * Value.t) list (* sorted by key *) }

  val initial : Value.t -> Value.t
  (** Encoded record with the given initial state and no responses. *)

  val encode : t -> Value.t
  val decode : Value.t -> t
  val find_response : t -> key:int * int -> Value.t option
  val is_done : t -> key:int * int -> bool

  val update : Lb_objects.Spec.t -> Value.t -> Desc.t list -> Value.t
  (** On an encoded record: apply, in key order, every descriptor not yet in
      the response map and record the new responses.  One merge of the
      sorted descriptors into the sorted map; the result shares the
      encodings of the entries it keeps, and its whole response list when
      every descriptor was already answered. *)
end
