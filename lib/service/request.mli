(** The canonical service request: what a client may ask the experiment
    server to compute.

    A request names one experiment table (E1 .. E14, optionally at the
    reduced "quick" sweep sizes), one fault-certification run (a target
    construction or wakeup corpus entry, a fault plan, a process count, an
    operation count and a seed) or one conformance fuzz cell, plus a
    [jobs] hint for how many domains the computation may fan across.

    Requests serialise to the line-delimited JSON protocol documented in
    docs/OBSERVABILITY.md.  {!of_json} accepts fields in {e any} order and
    fills defaults for omitted optional fields; {!to_json} always emits the
    one canonical field order.  The {!key} content hash is computed from
    the canonical serialisation with [jobs] forced to [1] — results are
    job-count-invariant throughout this repository (docs/PERFORMANCE.md),
    so two requests that differ only in [jobs] (or in JSON field order)
    are the {e same} cacheable computation and must collide. *)

open Lb_observe

type spec =
  | Experiment of { id : string; quick : bool }
      (** One experiment table: [id] is ["e1"] .. ["e14"] (lower case);
          [quick] selects the reduced sweep sizes. *)
  | Certify of { target : string; plan : string; n : int; ops : int; seed : int }
      (** One certification run: [target] is a construction name
          ([adt-tree], [herlihy], [consensus-list], [direct]) or a wakeup
          corpus entry; [plan] is a named fault plan (["+"]-composable). *)
  | Conform of {
      target : string;
      otype : string;
      plan : string;
      n : int;
      ops : int;
      schedules : int;
      seed : int;
    }
      (** One conformance fuzz cell: [schedules] seeded random schedules of
          construction [target] on object type [otype] under fault plan
          [plan], every history linearizability-checked, counterexamples
          shrunk (see {!Lb_conformance.Fuzz.check_cell}). *)

type t = { spec : spec; jobs : int }

val experiment : ?quick:bool -> string -> t
(** [experiment id] at [jobs = 1]; the id is lowercased. *)

val certify : ?n:int -> ?ops:int -> ?seed:int -> target:string -> plan:string -> unit -> t
(** Defaults: [n = 8], [ops = 1], [seed = 1], [jobs = 1]. *)

val conform :
  ?otype:string ->
  ?plan:string ->
  ?n:int ->
  ?ops:int ->
  ?schedules:int ->
  ?seed:int ->
  target:string ->
  unit ->
  t
(** Defaults: [otype = "fetch-inc"], [plan = "none"], [n = 4], [ops = 4],
    [schedules = 200], [seed = 1], [jobs = 1]. *)

val with_jobs : t -> int -> t

val to_json : t -> Json.t
(** Canonical form: a fixed field order ([kind] first), every field
    explicit.  [of_json (to_json r) = Ok r]. *)

val of_json : Json.t -> (t, string) result
(** Tolerant parse: fields in any order, optional fields defaulted, unknown
    fields ignored (forward compatibility).  [Error] on a missing [kind] /
    [id] / [target] / [plan], or on a non-object. *)

val key : t -> string
(** The content hash (an MD5 hex digest of the canonical serialisation
    with [jobs := 1]) — the cache and in-flight-deduplication key.
    Invariant under JSON field reordering and under [jobs]. *)

val describe : t -> string
(** One-line human summary ("experiment e5 (full)", "certify direct under
    crash-stop, n=8 ops=1 seed=1"). *)

val equal : t -> t -> bool
(** Structural equality {e ignoring [jobs]} — precisely key equality. *)

val pp : Format.formatter -> t -> unit
