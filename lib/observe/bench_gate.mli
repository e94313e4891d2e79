(** The benchmark regression gate's comparison logic, as pure data.

    [bench/check.exe] compares the latest [BENCH_simulator.json] snapshot
    against the committed baseline.  The policy, encoded here so the test
    suite can pin it:

    - a benchmark present in both that slowed beyond the tolerance is a
      {e regression} — the only thing that fails the gate;
    - a baseline benchmark {e missing} from the current run is a warning
      (benches get renamed, subsets get run);
    - a current benchmark with {e no baseline entry yet} is a warning —
      newly added benchmarks must never fail the gate before a baseline
      for them is committed. *)

type comparison = {
  name : string;
  baseline_ns : float;
  current_ns : float;
  ratio : float;  (** current / baseline; 1.0 when the baseline is 0. *)
  regressed : bool;
}

type verdict = {
  compared : comparison list;  (** in baseline order. *)
  missing : string list;  (** in the baseline, absent from the current run. *)
  added : string list;  (** in the current run, no baseline yet. *)
}

val compare : tolerance:float -> baseline:(string * float) list -> current:(string * float) list -> verdict
(** [tolerance] is fractional: [0.30] flags ratios above [1.30]. *)

val ok : verdict -> bool
(** No regressions — missing and added entries never fail the gate. *)

val benchmarks_of_payload : Json.t -> (string * float) list
(** Extract [(name, ns_per_run)] pairs from a
    [{"benchmarks": [{"name", "ns_per_run"}, ...]}] payload (the
    [BENCH_simulator.json] data schema); ill-shaped entries are skipped. *)

val pp : Format.formatter -> verdict -> unit
(** The gate's report: one line per comparison, then warnings for missing
    and newly added benchmarks. *)
