(** Litmus tests: the programs that pin the memory models apart.

    Each test is a tiny free-monad program family with one distinguished
    {e relaxed outcome} — a result vector that a weak model may admit and a
    stronger one must forbid — plus the expected admissibility under each
    {!Lb_memory.Memory_model}.  Outcome sets are computed by {e exhaustive}
    enumeration ({!Explore.iter_dpor} under the given model, flushes
    included in the decision alphabet), so a verdict is a certificate, not a
    sample.

    The catalog and what separates what:

    - {b SB} (store buffering): both stores buffered past both loads —
      admitted by TSO and PSO, forbidden by SC.  This is the test that
      separates SC from everything weaker.
    - {b SB+fence}, {b SB+rmw}: the same shape with a fence (or a fencing
      swap) between store and load — SC-equivalent everywhere; shows fences
      restore SC.
    - {b MP} (message passing): the ready flag overtakes the data — admitted
      by PSO (per-register buffers), forbidden by TSO (one FIFO buffer) and
      SC.  This is the test that separates TSO from PSO.
    - {b MP+fence}, {b MP+rmw}: publication fenced — SC-equivalent.
    - {b LB} (load buffering), {b IRIW} (independent reads of independent
      writes): forbidden by {e all} store-buffer models — the catalog's
      negative space, documenting what TSO/PSO do {e not} relax (loads are
      never delayed; stores commit to everyone at once).

    The paper's own repertoire (LL/SC/validate/swap/move) contains no plain
    store, so every corpus algorithm is SC-equivalent by construction —
    see docs/MEMORY_MODELS.md for why the lower bound's SC assumption is
    about plain-write programs. *)

open Lb_memory
open Lb_runtime

(** A set of result vectors ([(pid, result)] lists in pid order). *)
module Outcomes : Set.S with type elt = (int * int) list

type t = {
  name : string;
  description : string;
  n : int;
  inits : (int * Value.t) list;
  program_of : int -> int Program.t;
  relaxed_outcome : (int * int) list;
      (** the distinguished result vector whose admissibility varies. *)
  admits : Memory_model.t -> bool;
      (** expected: is [relaxed_outcome] reachable under this model? *)
  sc_equivalent : bool;
      (** expected: outcome set identical to SC under {e every} model. *)
}

val catalog : t list
val find : string -> t option
(** Case-insensitive lookup by name. *)

exception Run_limit of { test : string; model : Memory_model.t; runs : int }
(** A DPOR walk needed more than [runs] runs ([max_runs]): no outcome set. *)

val outcomes : ?max_runs:int -> t -> model:Memory_model.t -> Outcomes.t
(** The exact outcome set under [model], by exhaustive DPOR enumeration;
    raises {!Run_limit} past [max_runs] runs (default 200,000). *)

type cell = {
  model : Memory_model.t;
  outcome_count : int;
  admitted : bool;  (** was [relaxed_outcome] reachable? *)
  expected : bool;  (** was it supposed to be? *)
  sc_equal : bool;  (** is the outcome set equal to the SC set? *)
}

val cell_ok : cell -> bool

type verdict = {
  test : t;
  cells : cell list;  (** one per {!Memory_model.all}, in that order. *)
  lattice_ok : bool;
      (** SC ⊆ TSO ⊆ PSO held on this test's actual outcome sets. *)
  ok : bool;
}

val check : ?max_runs:int -> t -> verdict
(** Run one test under all three models and compare against expectations:
    per-model admissibility, the outcome lattice, and (when
    [sc_equivalent]) set equality with SC. *)

val check_all : ?max_runs:int -> unit -> verdict list
(** {!check} over the whole {!catalog}. *)

val all_ok : verdict list -> bool

val distinguishes_all_models : verdict list -> bool
(** The catalog's purpose, checked on actual verdicts: SB separates SC from
    TSO and PSO, MP separates TSO from PSO — so all three models are
    pairwise distinguished by at least one test. *)

val pp_outcome : Format.formatter -> (int * int) list -> unit
val pp_verdict : Format.formatter -> verdict -> unit
