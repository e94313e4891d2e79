(** The experiment suite: every lemma/theorem of the paper as a measurable,
    pass/fail table.

    The paper (pure theory, PODC 1998) has no numbered tables or figures;
    its "evaluation" is the chain of results below, each of which this
    module turns into an executable experiment.  `EXPERIMENTS.md` records
    the paper-claim-vs-measured comparison these tables produce.

    - E1 (Lemma 4.1): every move spec admits a secretive complete schedule
      (max movers chain ≤ 2) — over adversarial topologies and random specs.
    - E2 (Lemma 4.2): scheduling only a register's movers (plus arbitrary
      extras) moves the same source value in.
    - E3 (Lemma 5.1): |UP(X, r)| ≤ 4^r along (All, A)-runs of the corpus.
    - E4 (Lemma 5.2): (All, A)- and (S, A)-runs are indistinguishable to
      every X with UP(X, r) ⊆ S.
    - E5 (Theorem 6.1): the adversary forces every correct wakeup algorithm
      to ≥ ⌈log₄ n⌉ shared operations; cheaters are caught with a concrete
      violating (S, A)-run.
    - E6 (Theorem 6.2 / Corollary 6.1): the per-object-type reductions,
      compiled through both oblivious universal constructions.
    - E7 (tightness): measured worst-case shared-access cost of the
      combining tree is Θ(log n) vs. the Herlihy baseline's Θ(n).
    - E8 (Lemma 3.1): worst-case expected complexity of the randomized
      algorithms ≥ (termination rate)·log₄ n.
    - E9 (non-oblivious escape): compare&swap from LL/SC in ≤ 2 operations
      at every n.
    - E10 (sandwich): wakeup via the tree-backed fetch&increment lands
      between ⌈log₄ n⌉ and 8⌈log₂ n⌉ + 9.
    - E11 (ablation): the lock-free retry-loop fetch&increment degrades
      linearly under contention — why wait-free helping matters.
    - E12 (Section 7): with RMW(R, f) and unbounded registers, wakeup (and
      every object) costs one shared operation — the bound is specific to
      the LL/SC/validate/move/swap repertoire.
    - E13 (register sizes): the oblivious constructions pay for O(log n)
      time with registers that grow with n; the semantic CAS does not.
    - E14 (related work [17, 18, 25]): the consensus-cell universal
      construction measures Theta(n) per operation. *)

(** Every experiment takes [?jobs] (default 1): its independent work items
    (per-n rows, seeds, (algorithm, n) pairs) are fanned across that many
    domains via {!Lowerbound.Pool.map}.  Tables are identical at every job
    count — rows reassemble in item order and per-task metrics merge
    deterministically — so [jobs] is purely a wall-clock knob. *)

val e1 : ?jobs:int -> ?ns:int list -> unit -> Table.t
val e2 : ?jobs:int -> ?specs:int -> unit -> Table.t
val e3 : ?jobs:int -> ?ns:int list -> unit -> Table.t
val e4 : ?jobs:int -> ?ns:int list -> ?seeds:int list -> unit -> Table.t
val e5 : ?jobs:int -> ?ns:int list -> unit -> Table.t
val e6 : ?jobs:int -> ?ns:int list -> unit -> Table.t
val e7 : ?jobs:int -> ?ns:int list -> unit -> Table.t
val e8 : ?jobs:int -> ?n:int -> ?seeds:int list -> unit -> Table.t
val e9 : ?jobs:int -> ?ns:int list -> unit -> Table.t
val e10 : ?jobs:int -> ?ns:int list -> unit -> Table.t
val e11 : ?jobs:int -> ?ns:int list -> unit -> Table.t
val e12 : ?jobs:int -> ?ns:int list -> unit -> Table.t
val e13 : ?jobs:int -> ?ns:int list -> unit -> Table.t
val e14 : ?jobs:int -> ?ns:int list -> unit -> Table.t

val all : ?jobs:int -> quick:bool -> unit -> Table.t list
(** Every experiment; [quick] shrinks the sweeps (used by the test suite). *)

val thunks : ?jobs:int -> quick:bool -> unit -> (string * (unit -> Table.t)) list
(** The same suite as [(id, thunk)] pairs, so drivers can run — and time —
    each experiment individually (the benchmark harness uses this to emit
    per-experiment wall-clock into BENCH_experiments.json). *)

val by_id : ?jobs:int -> quick:bool -> string -> (unit -> Table.t) option
(** Lookup by id ("e1" .. "e14", case-insensitive) in [thunks ~quick]: the
    thunk is the one {!all} runs at the same [quick]. *)

val ids : string list
