(* Pinned expectations: every output a workload produces is checked against
   the values below, and each check counts once towards [attempted] (and
   towards [failed] when it does not hold).  The numbers are the paper's
   simulated quantities and the explorers' deterministic counts, not host
   time, so they must stay identical on every machine and every commit that
   does not change what is computed. *)

open Lowerbound

type check = { what : string; ok : bool }

let check what ok = { what; ok }

let int_pin what ~expected actual =
  { what = Printf.sprintf "%s = %d (got %d)" what expected actual; ok = actual = expected }

(* certify-herlihy-n4: the CI cell, herlihy fetch&inc at n=4, one op each,
   pre-emption bound 1. *)
let certify_schedules = 1896
let certify_elided = 4186

let certify (c : Exhaustive.cert) =
  let s = c.Exhaustive.xc_stats in
  [
    check "certify verdict CERTIFIED" (Exhaustive.cert_ok c);
    int_pin "certify schedules" ~expected:certify_schedules s.Sched_tree.schedules;
    int_pin "certify elided" ~expected:certify_elided s.Sched_tree.elided;
    int_pin "certify deduped" ~expected:0 s.Sched_tree.deduped;
    int_pin "certify degraded" ~expected:0 c.Exhaustive.xc_degraded;
  ]

(* fuzz: every sampled schedule of the batch passes. *)
let fuzz ~schedules (c : Schedule_fuzz.cell) =
  [
    check "fuzz no counterexample" (Schedule_fuzz.cell_ok c);
    int_pin "fuzz passed" ~expected:schedules c.Schedule_fuzz.passed;
    int_pin "fuzz degraded" ~expected:0 c.Schedule_fuzz.degraded;
  ]

(* explore-move-collect-n3: stateful DPOR, no bounds. *)
let explore_schedules = 66
let explore_deduped = 6457

let explore (s : Sched_tree.stats) ~violations =
  [
    int_pin "explore schedules" ~expected:explore_schedules s.Sched_tree.schedules;
    int_pin "explore deduped" ~expected:explore_deduped s.Sched_tree.deduped;
    int_pin "explore wakeup violations" ~expected:0 violations;
    check "explore exhaustive" (Sched_tree.exhaustive s);
  ]

(* litmus-catalog: outcome-set sizes per test under SC, TSO and PSO. *)
let litmus_outcomes =
  [
    ("SB", [ 3; 4; 4 ]);
    ("SB+fence", [ 3; 3; 3 ]);
    ("SB+rmw", [ 3; 3; 3 ]);
    ("MP", [ 3; 3; 4 ]);
    ("MP+fence", [ 3; 3; 3 ]);
    ("MP+rmw", [ 3; 3; 3 ]);
    ("LB", [ 3; 3; 3 ]);
    ("IRIW", [ 15; 15; 15 ]);
  ]

let litmus (vs : Litmus.verdict list) =
  let counts =
    List.concat_map
      (fun (name, expected) ->
        match List.find_opt (fun v -> v.Litmus.test.Litmus.name = name) vs with
        | None -> [ check (Printf.sprintf "litmus %s present" name) false ]
        | Some v when List.compare_lengths v.Litmus.cells expected <> 0 ->
          [ check (Printf.sprintf "litmus %s has one cell per model" name) false ]
        | Some v ->
          List.map2
            (fun (c : Litmus.cell) e ->
              int_pin
                (Printf.sprintf "litmus %s %s outcomes" name
                   (Memory_model.to_string c.Litmus.model))
                ~expected:e c.Litmus.outcome_count)
            v.Litmus.cells expected)
      litmus_outcomes
  in
  check "litmus all_ok" (Litmus.all_ok vs)
  :: check "litmus distinguishes_all_models" (Litmus.distinguishes_all_models vs)
  :: counts

(* analyze-lower-bound: the Theorem 6.1 report of each analysed entry. *)
type analysis = { entry : string; n : int; winner_ops : int; s_size : int; rounds : int }

let analyses =
  [
    { entry = "tree-collect"; n = 512; winner_ops = 74; s_size = 512; rounds = 74 };
    { entry = "fetch&inc via adt-tree"; n = 256; winner_ops = 73; s_size = 256; rounds = 73 };
  ]

let analyze (a : analysis) (r : Lower_bound.report) =
  let what field = Printf.sprintf "analyze %s n=%d %s" a.entry a.n field in
  [
    int_pin (what "winner_ops") ~expected:a.winner_ops r.Lower_bound.winner_ops;
    int_pin (what "s_size") ~expected:a.s_size r.Lower_bound.s_size;
    int_pin (what "rounds") ~expected:a.rounds r.Lower_bound.rounds;
    check (what "bound_met") r.Lower_bound.bound_met;
    check (what "lemma_5_1") r.Lower_bound.lemma_5_1;
    int_pin (what "indistinguishability failures") ~expected:0
      (List.length r.Lower_bound.indist_failures);
    check (what "no violation") (r.Lower_bound.violation = None);
  ]

(* The paper's per-operation cost bound, checked on the traced runs. *)
let op_cost ~bound max_cost =
  { what = Printf.sprintf "harness max_op_cost %d <= %d" max_cost bound; ok = max_cost <= bound }

let mirror what ok = check (Printf.sprintf "trace mirror equals untraced call: %s" what) ok
