(** The hardware workload driver: the native-multicore counterpart of
    {!Lb_universal.Harness}.

    One OCaml domain per process runs its operation queue to completion
    against a {!Hw_memory}; a counting barrier releases all domains
    together.  Each domain records its operations — wall-clock
    invocation/response stamps and the exact shared-access cost — into
    its own {!Recorder}, sized to its queue (no allocation between the
    two stamps), and
    the flushed records are assembled into a
    {!Lb_objects.History.t}: the simulator-side Wing–Gong checker
    certifies the hardware run.

    {b Timestamps to ranks.}  Wall clocks have finite granularity, so
    equal stamps are mapped to equal integer ranks — fabricating an
    order between simultaneous events would assert real-time precedences
    that were never observed and could fail a genuinely linearizable
    history.

    {b Failures.}  An operation that raises [Failure] (a bounded retry
    loop exhausted under real contention — e.g. the [direct] target's
    [2n + 4]-attempt fetch&increment) is recorded as a {e pending}
    operation in the history, exactly like a simulator give-up: it may
    still have taken effect, and the checker considers both. *)

open Lb_memory
open Lb_runtime
open Lb_universal

type op_stat = {
  pid : int;
  seq : int;
  op : Value.t;
  response : Value.t;
  invoked_s : float;  (** wall-clock seconds. *)
  responded_s : float;
  cost : int;  (** shared-memory operations — the paper's access cost. *)
}

type op_failure = {
  pid : int;
  seq : int;
  op : Value.t;
  reason : string;
  invoked_s : float;
}

type result = {
  n : int;
  stats : op_stat list;  (** completed operations, in invocation order. *)
  failures : op_failure list;
  elapsed_s : float;  (** last response minus first invocation. *)
  total_shared_ops : int;
  max_shared_ops : int;  (** max per-process total — worst-case t(R). *)
  max_cost : int;  (** max single-operation cost. *)
  mean_cost : float;
  history : Lb_objects.History.t;
}

val run :
  construction:Iface.t ->
  spec:Lb_objects.Spec.t ->
  n:int ->
  ops:(int -> Value.t list) ->
  ?seed:int ->
  unit ->
  result
(** Instantiate the construction on a fresh hardware memory and drive
    [n] domains, each running its [ops pid] queue.  [seed] selects the
    per-domain coin ({!Lb_runtime.Coin.uniform}, streams keyed by pid);
    without it tosses are constant 0. *)

val run_handle :
  memory:Hw_memory.t ->
  handle:Iface.handle ->
  n:int ->
  ops:(int -> Value.t list) ->
  ?assignment:Coin.assignment ->
  unit ->
  result
(** Drive a pre-installed handle on an existing memory. *)

val history_of :
  stats:op_stat list -> failures:op_failure list -> Lb_objects.History.t
(** The timestamp-to-rank history construction [run] applies to its own
    records, exposed so the tie-breaking discipline (equal wall-clock
    stamps share one rank) is directly testable. *)

val check :
  ?max_states:int -> spec:Lb_objects.Spec.t -> result -> Lb_objects.Linearize.verdict

val is_linearizable : ?max_states:int -> spec:Lb_objects.Spec.t -> result -> bool

(** {1 Wakeup algorithms on hardware} *)

type wakeup_result = {
  wn : int;
  results : (int * int) list;  (** (pid, decided bit), in pid order. *)
  welapsed_s : float;  (** slowest single process, barrier to return. *)
  wtotal_shared_ops : int;
  wmax_shared_ops : int;
  issues : string list;
      (** violations of the hardware-checkable wakeup conditions: every
          process must decide a bit, and — all [n] processes being awake
          — some process must decide 1.  (The round-structure condition
          needs a scheduler's-eye view and stays simulator-only.) *)
}

val run_wakeup :
  make:(n:int -> (int -> int Program.t) * (int * Value.t) list) ->
  n:int ->
  ?seed:int ->
  unit ->
  wakeup_result
(** Run a {!Lb_wakeup.Corpus}-shaped wakeup algorithm with one domain
    per process. *)
