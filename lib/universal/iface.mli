(** The universal-construction interface.

    An [n]-process universal construction, instantiated with a sequential
    specification, yields a {!handle}: a factory of programs, one per object
    operation, that processes run against the shared memory.  A construction
    is {e oblivious} when it uses the specification only through its opaque
    [apply] function — the paper's lower bound says every oblivious
    construction over LL/SC/validate/move/swap has worst-case shared-access
    time Ω(log n). *)

open Lb_memory
open Lb_runtime

type handle = {
  apply : pid:int -> seq:int -> Value.t -> Value.t Program.t;
      (** The program performing one operation.  [seq] must be strictly
          increasing per process (0, 1, 2, ...); the (pid, seq) pair
          identifies the operation instance. *)
  snapshot : unit -> unit -> unit;
      (** [snapshot ()] captures the handle's local state — whatever its
          programs read or write outside their own values, such as a
          per-process replay cache — and returns a thunk that puts it
          back.  A runner that saves a run's state (the programs in
          flight, the memory) takes a snapshot with it, and runs the thunk
          when it resumes that state, perhaps after other runs have
          changed the local state: the programs then see exactly what they
          saw when the snapshot was taken.  A tally that counts work
          across runs (a mutant's fire count) is credited with the work a
          resumed run skips, so it reads as if every run had replayed its
          prefix.  Constructions whose programs touch nothing outside
          their values use {!stateless}. *)
}

val stateless : unit -> unit -> unit
(** The snapshot of a handle with no local state: restoring does nothing. *)

type t = {
  name : string;
  oblivious : bool;
  worst_case : n:int -> int;
      (** The construction's own worst-case bound on shared-memory operations
          per object operation (the quantity compared against measurements
          and against the Ω(log n) lower bound). *)
  create : Layout.t -> n:int -> Lb_objects.Spec.t -> handle;
      (** Allocates the construction's registers from the layout (callers
          install the layout into the memory before running). *)
}
