(* The benchmark's own checks: pinned expectations reject perturbed
   results, the comparator applies its bounds, span self times add up,
   the traced mirrors reproduce the untraced calls on tiny inputs, and
   BENCHMARK.json names what the code measures. *)

open Lowerbound
open Bench_workloads

let all_ok checks = List.for_all (fun (c : Pins.check) -> c.Pins.ok) checks

(* ---- pins ---- *)

let pinned_cert =
  {
    Exhaustive.xc_construction = "herlihy";
    xc_object_type = "fetch-inc";
    xc_plan = "none";
    xc_model = Memory_model.SC;
    xc_n = 4;
    xc_ops = 1;
    xc_bounds = Workloads.certify_bounds;
    xc_stats =
      {
        Sched_tree.schedules = Pins.certify_schedules;
        sleep_blocked = 0;
        deduped = 0;
        elided = Pins.certify_elided;
        max_depth = 56;
      };
    xc_degraded = 0;
    xc_counterexample = None;
  }

let test_certify_pins () =
  Alcotest.(check bool) "pinned cert passes" true (all_ok (Pins.certify pinned_cert));
  let perturbed =
    {
      pinned_cert with
      Exhaustive.xc_stats = { pinned_cert.Exhaustive.xc_stats with Sched_tree.schedules = 1895 };
    }
  in
  Alcotest.(check bool) "1895 schedules rejected" false (all_ok (Pins.certify perturbed))

let pinned_report (a : Pins.analysis) =
  {
    Lower_bound.n = a.Pins.n;
    terminating = true;
    someone_returned_one = true;
    winner = Some 0;
    winner_ops = a.Pins.winner_ops;
    max_ops = a.Pins.winner_ops;
    rounds = a.Pins.rounds;
    s_size = a.Pins.s_size;
    lemma_5_1 = true;
    bound_met = true;
    indist_failures = [];
    violation = None;
  }

let test_analyze_pins () =
  List.iter
    (fun a ->
      let r = pinned_report a in
      Alcotest.(check bool) "pinned report passes" true (all_ok (Pins.analyze a r));
      Alcotest.(check bool)
        "winner_ops 81 rejected" false
        (all_ok (Pins.analyze a { r with Lower_bound.winner_ops = 81 })))
    Pins.analyses

let test_fuzz_pins () =
  let cell =
    {
      Schedule_fuzz.construction = "herlihy";
      object_type = "snapshot";
      plan_name = "none";
      model = Memory_model.SC;
      n = 10;
      ops = 4;
      budget = 100;
      runs = 100;
      passed = 100;
      degraded = 0;
      counterexample = None;
    }
  in
  Alcotest.(check bool) "all-pass cell passes" true (all_ok (Pins.fuzz ~schedules:100 cell));
  let fail =
    Schedule_fuzz.Fail
      (Schedule_fuzz.Not_linearizable { states = 3; bad_prefix = 2; completed = 2 })
  in
  let failed =
    {
      cell with
      Schedule_fuzz.runs = 7;
      passed = 6;
      counterexample =
        Some
          {
            Schedule_fuzz.seed_used = 6;
            original = [ 0; 1 ];
            minimized = [ 0; 1 ];
            minimized_verdict = fail;
            locally_minimal = true;
            deterministic = true;
          };
    }
  in
  Alcotest.(check bool)
    "a Fail verdict is rejected" false
    (all_ok (Pins.fuzz ~schedules:100 failed))

(* ---- comparator ---- *)

let point v = { Stats.median = v; q1 = v; q3 = v; n = 10 }
let verdict =
  Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (Compare.verdict_name v)) ( = )

let test_relative_bound () =
  let b = { Compare.metric = "wall_s"; lower_is_better = true; rel = 0.1; abs = 0.0 } in
  let judge cur = Compare.judge b ~base:(point 1.0) ~cur in
  Alcotest.check verdict "within bound" Compare.Unchanged (judge (point 1.09));
  Alcotest.check verdict "beyond bound" Compare.Regressed (judge (point 1.11));
  Alcotest.check verdict "faster" Compare.Improved (judge (point 0.85));
  Alcotest.check verdict "wide IQR" Compare.Unresolved
    (judge { Stats.median = 1.0; q1 = 0.9; q3 = 1.15; n = 10 });
  let higher = { b with Compare.lower_is_better = false } in
  Alcotest.check verdict "higher is better" Compare.Regressed
    (Compare.judge higher ~base:(point 1.0) ~cur:(point 0.8))

let test_absolute_bound () =
  let b =
    {
      Compare.metric = "setup_s";
      lower_is_better = true;
      rel = 0.25;
      abs = Compare.abs_floor "setup_s";
    }
  in
  let judge cur = Compare.judge b ~base:(point 0.001) ~cur:(point cur) in
  Alcotest.check verdict "40x slower but under the floor" Compare.Unchanged (judge 0.04);
  Alcotest.check verdict "beyond the floor" Compare.Regressed (judge 0.06);
  Alcotest.check verdict "any failed-check increase" Compare.Regressed
    (Compare.judge Compare.failed_frac ~base:(point 0.0) ~cur:(point 0.001))

let test_benchmark_bounds () =
  let json =
    match Json.parse (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  match Compare.bounds_of_benchmark json with
  | Error e -> Alcotest.fail e
  | Ok bounds ->
    let wall = List.find (fun (b : Compare.bound) -> b.Compare.metric = "wall_s") bounds in
    Alcotest.(check (float 1e-9)) "wall_s bound" 0.25 wall.Compare.rel;
    Alcotest.(check bool) "failed_frac judged too" true (List.mem Compare.failed_frac bounds)

(* ---- spans ---- *)

let span id parent name start_ns stop_ns =
  { Spans.id; parent; name; start_ns; stop_ns; iteration = 0 }

let test_self_time () =
  let spans =
    [
      span 0 (-1) "outer" 0 100;
      (* overlapping children count once; a child running past its parent
         is clipped to it *)
      span 1 0 "inner" 10 30;
      span 2 0 "inner" 20 50;
      span 3 0 "late" 90 120;
      span 4 1 "leaf" 12 18;
    ]
  in
  let self = Spans.self_seconds spans in
  let ns name = Float.round (self name *. 1e9) in
  Alcotest.(check (float 0.0)) "outer" 50.0 (ns "outer");
  Alcotest.(check (float 0.0)) "inner (two spans)" 44.0 (ns "inner");
  Alcotest.(check (float 0.0)) "late" 30.0 (ns "late");
  Alcotest.(check (float 0.0)) "leaf" 6.0 (ns "leaf");
  Alcotest.(check (float 0.0)) "unknown" 0.0 (ns "absent")

let test_aggregate_span () =
  let tr = Spans.create ~workload:"test" in
  Spans.with_span tr "parent" (fun () -> Spans.add_aggregate tr "oracle" ~start_ns:5 ~total_ns:7);
  match List.sort (fun (a : Spans.span) b -> compare a.Spans.id b.Spans.id) tr.Spans.spans with
  | [ p; o ] ->
    Alcotest.(check int) "child of the enclosing span" p.Spans.id o.Spans.parent;
    Alcotest.(check int) "summed duration" 7 (o.Spans.stop_ns - o.Spans.start_ns)
  | _ -> Alcotest.fail "expected two spans"

(* ---- mirrors ---- *)

let test_certify_mirror () =
  let construction = Herlihy.construction and ot = Workloads.find_type "fetch-inc" in
  let bounds = Workloads.certify_bounds and n = 2 and ops = 1 and seed = 1 in
  let cert =
    Exhaustive.certify_cell ~construction ~ot ~plan_name:"none" ~plan:Fault_plan.none ~n ~ops
      ~seed ~bounds ~max_states:Workloads.max_states ()
  in
  let tr = Spans.create ~workload:"test" in
  let acc = Workloads.new_acc () in
  let m =
    Workloads.certify_mirror tr acc (Replay.recorder ()) ~construction ~ot ~n ~ops ~seed ~bounds
  in
  Alcotest.(check bool) "cell certified" true (Exhaustive.cert_ok cert);
  Alcotest.(check bool) "mirror stats equal" true (Workloads.mirrors_cert cert m)

let test_analyze_mirror () =
  let n = 16 in
  let program_of, inits = (Workloads.find_entry "tree-collect").Corpus.make ~n in
  let report = Lower_bound.analyze ~n ~program_of ~inits ~max_rounds:Workloads.max_rounds () in
  let tr = Spans.create ~workload:"test" in
  let v, _ = Workloads.analyze_mirror tr ~n ~program_of ~inits in
  Alcotest.(check bool) "mirror report equal" true (v = Workloads.verdict_of_report report)

(* ---- statistics ---- *)

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let xs = List.init 10 (fun i -> float_of_int (i + 1)) in
  let q1, q3 = Stats.quartiles xs in
  Alcotest.(check (float 1e-12)) "q1" 2.75 q1;
  Alcotest.(check (float 1e-12)) "q3" 8.25 q3;
  Alcotest.(check (float 1e-12)) "median" 5.5 (Stats.median xs)

(* ---- BENCHMARK.json agrees with the code ---- *)

let test_benchmark_json () =
  let json =
    match Json.parse (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let list k = Option.value ~default:[] (Option.bind (Json.member k json) Json.to_list_opt) in
  let str k e = Option.value ~default:"" (Option.bind (Json.member k e) Json.to_str_opt) in
  let strings = Alcotest.(list string) in
  Alcotest.check strings "workloads"
    (List.map (fun w -> w.Workloads.name) Workloads.all)
    (List.map (str "name") (list "workloads"));
  let described (ms : Catalog.metric list) =
    List.map
      (fun (m : Catalog.metric) ->
        String.concat " "
          [
            m.Catalog.name;
            m.Catalog.unit_;
            (if m.Catalog.lower_is_better then "lower" else "higher");
          ])
      ms
  in
  let listed k =
    List.map (fun e -> String.concat " " [ str "name" e; str "unit" e; str "better" e ]) (list k)
  in
  Alcotest.check strings "end_to_end" (described Catalog.end_to_end) (listed "end_to_end");
  Alcotest.check strings "per_layer" (described Catalog.per_layer) (listed "per_layer")

let () =
  Alcotest.run "workloads"
    [
      ( "pins",
        [
          Alcotest.test_case "certify rejects 1895 schedules" `Quick test_certify_pins;
          Alcotest.test_case "analyze rejects winner_ops 81" `Quick test_analyze_pins;
          Alcotest.test_case "fuzz rejects a Fail verdict" `Quick test_fuzz_pins;
        ] );
      ( "compare",
        [
          Alcotest.test_case "relative bound" `Quick test_relative_bound;
          Alcotest.test_case "absolute floor" `Quick test_absolute_bound;
          Alcotest.test_case "bounds from BENCHMARK.json" `Quick test_benchmark_bounds;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "aggregate span" `Quick test_aggregate_span;
        ] );
      ( "mirror",
        [
          Alcotest.test_case "certify herlihy n=2 preempt<=1" `Quick test_certify_mirror;
          Alcotest.test_case "analyze tree-collect n=16" `Quick test_analyze_mirror;
        ] );
      ("stats", [ Alcotest.test_case "python quartiles" `Quick test_quartiles ]);
      ("catalog", [ Alcotest.test_case "BENCHMARK.json matches" `Quick test_benchmark_json ]);
    ]
