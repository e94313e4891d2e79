(* Benchmark regression gate.

   The gated series: the latest BENCH_simulator.json snapshot (written by
   `bench/main.exe time` or `bench/main.exe service`) against
   bench/BASELINE_simulator.json, tolerance +30% (the noise floor of shared
   CI runners).

   The comparison policy lives in Bench_gate (lib/observe), where the test
   suite pins it: only regressions fail; benchmarks missing from the
   current run, and newly added benchmarks with no baseline entry yet,
   warn — adding a benchmark must never break the gate before its baseline
   is committed.

   Usage:
     bench/check.exe [--baseline FILE] [--dir DIR] [--tolerance PCT]

   Exit codes: 0 ok (or no baseline committed yet — the gate must not block
   the first run), 1 regression, 2 usage/missing-snapshot error. *)

open Lowerbound

type config = { baseline : string; dir : string; tolerance : float }

let default =
  {
    baseline = Filename.concat "bench" "BASELINE_simulator.json";
    dir = ".";
    tolerance = 0.30;
  }

let parse_pct flag v =
  match float_of_string_opt v with
  | Some pct when pct > 0.0 -> pct /. 100.0
  | Some _ | None ->
    Format.printf "bad %s %S (positive percent expected)@." flag v;
    exit 2

let rec parse_args c = function
  | [] -> c
  | "--baseline" :: v :: rest -> parse_args { c with baseline = v } rest
  | "--dir" :: v :: rest -> parse_args { c with dir = v } rest
  | "--tolerance" :: v :: rest -> parse_args { c with tolerance = parse_pct "tolerance" v } rest
  | arg :: _ ->
    Format.printf "unknown argument %S@." arg;
    exit 2

let read_baseline path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let raw = really_input_string ic len in
  close_in ic;
  match Json.parse raw with
  | Ok json -> Bench_gate.benchmarks_of_payload json
  | Error msg ->
    Format.printf "cannot parse %s: %s@." path msg;
    exit 2

let latest_payload snapshots =
  match snapshots with
  | [] -> None
  | _ ->
    let latest = List.nth snapshots (List.length snapshots - 1) in
    Json.member "data" latest

let simulator_current c =
  match Bench_out.read ~dir:c.dir ~suite:"simulator" () with
  | Ok (_ :: _ as snapshots) -> (
    match latest_payload snapshots with
    | Some payload -> Bench_gate.benchmarks_of_payload payload
    | None ->
      Format.printf "latest simulator snapshot has no data field@.";
      exit 2)
  | Ok [] ->
    Format.printf "no BENCH_simulator.json in %s — run `bench/main.exe time` first@." c.dir;
    exit 2
  | Error msg ->
    Format.printf "cannot read BENCH_simulator.json: %s@." msg;
    exit 2

(* Returns true when the gate passed. *)
let gate c =
  let current = simulator_current c in
  let baseline = read_baseline c.baseline in
  Format.printf "== simulator: ns_per_run vs %s (tolerance +%.0f%%)@." c.baseline
    (c.tolerance *. 100.0);
  let verdict = Bench_gate.compare ~tolerance:c.tolerance ~baseline ~current in
  Format.printf "%a" Bench_gate.pp verdict;
  if Bench_gate.ok verdict then begin
    Format.printf "simulator gate OK (%d benchmarks within tolerance)@."
      (List.length verdict.Bench_gate.compared);
    true
  end
  else begin
    let regressions =
      List.filter (fun c -> c.Bench_gate.regressed) verdict.Bench_gate.compared
    in
    Format.printf "simulator gate FAILED: %d regression(s) beyond +%.0f%%@."
      (List.length regressions) (c.tolerance *. 100.0);
    false
  end

let () =
  let c = parse_args default (List.tl (Array.to_list Sys.argv)) in
  let ok =
    if not (Sys.file_exists c.baseline) then begin
      Format.printf "no committed baseline at %s; skipping the regression gate@." c.baseline;
      true
    end
    else gate c
  in
  exit (if ok then 0 else 1)
