(* The observability layer: JSON codec, trace events, the ambient tracer,
   JSONL trace files, trace diffing, the metrics registry and BENCH
   artifacts.

   The two load-bearing properties:
   - tracing is an observer — a run with a tracer installed computes exactly
     what the same run computes untraced (verdicts, costs, responses);
   - traces are faithful artifacts — every event round-trips through JSONL
     bit-exactly, so the diff of two same-seed runs is empty and a
     cross-seed diff pinpoints the first divergence. *)

open Lowerbound

(* ---- generators ---- *)

let gen_bits =
  QCheck.Gen.(
    let* width = 1 -- 24 in
    let* bits = list_size (return width) bool in
    return
      (List.fold_left
         (fun (bv, i) b -> (Bitvec.set bv i b, i + 1))
         (Bitvec.zero width, 0) bits
      |> fst))

let gen_value =
  QCheck.Gen.(
    sized @@ fix (fun self size ->
        let leaf =
          oneof
            [
              return Value.unit;
              map Value.bool bool;
              map Value.int (map (fun k -> k - 500_000) (0 -- 1_000_000));
              map Value.str (string_size ~gen:printable (0 -- 12));
              map Value.bits gen_bits;
            ]
        in
        if size = 0 then leaf
        else
          frequency
            [
              (3, leaf);
              (1, map2 Value.pair (self (size / 2)) (self (size / 2)));
              (1, map Value.list (list_size (0 -- 3) (self (size / 3))));
            ]))

let gen_invocation =
  QCheck.Gen.(
    let* reg = 0 -- 30 in
    oneof
      [
        return (Op.Ll reg);
        map (fun v -> Op.Sc (reg, v)) gen_value;
        return (Op.Validate reg);
        map (fun v -> Op.Swap (reg, v)) gen_value;
        map (fun dst -> Op.Move (reg, reg + 1 + dst)) (0 -- 5);
      ])

let gen_response =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> Op.Value v) gen_value;
        map2 (fun b v -> Op.Flagged (b, v)) bool gen_value;
        return Op.Ack;
      ])

let gen_pids = QCheck.Gen.(list_size (0 -- 6) (0 -- 40))

let gen_event =
  QCheck.Gen.(
    oneof
      [
        (let* pid = 0 -- 40 and* invocation = gen_invocation and* response = gen_response
         and* spurious = bool in
         return (Event.Shared_access { pid; invocation; response; spurious }));
        (let* pid = 0 -- 40 and* idx = 0 -- 1000 and* outcome = 0 -- 1_000_000 in
         return (Event.Coin_toss { pid; idx; outcome }));
        (let* step = 0 -- 10_000 and* chosen = 0 -- 40 and* runnable = gen_pids in
         return (Event.Sched { step; chosen; runnable }));
        map (fun index -> Event.Round { index }) (1 -- 10_000);
        (let* pid = 0 -- 40 and* step = 0 -- 10_000 in
         return (Event.Crash { pid; step }));
        (let* pid = 0 -- 40 and* step = 0 -- 10_000 in
         return (Event.Recovery { pid; step }));
        (let* pid = 0 -- 40 and* seq = 0 -- 100 and* op = gen_value in
         return (Event.Op_invoked { pid; seq; op }));
        (let* pid = 0 -- 40 and* seq = 0 -- 100 and* op = gen_value
         and* response = gen_value and* cost = 0 -- 10_000 in
         return (Event.Op_completed { pid; seq; op; response; cost }));
        (let* pid = 0 -- 40 and* seq = 0 -- 100 and* op = gen_value
         and* reason = string_size ~gen:printable (0 -- 20) and* cost = 0 -- 10_000 in
         return (Event.Op_failed { pid; seq; op; reason; cost }));
        (let* outcome =
           oneofl [ Event.All_terminated; Event.Out_of_fuel; Event.Stalled ]
         and* steps = 0 -- 10_000
         and* ops = list_size (0 -- 6) (pair (0 -- 40) (0 -- 1000))
         and* unfinished = gen_pids in
         return (Event.Run_end { outcome; steps; ops; unfinished }));
      ])

let gen_stamped =
  QCheck.Gen.(
    let* at = 0 -- 1_000_000 and* event = gen_event in
    return { Event.at; event })

let pp_stamped_string e = Format.asprintf "%a" Event.pp_stamped e

let qcheck ?(count = 300) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* ---- JSON codec ---- *)

let test_json_roundtrip_cases () =
  let cases =
    [
      Json.Null;
      Json.Bool true;
      Json.Int (-42);
      Json.Int max_int;
      Json.Float 1.5;
      Json.Str "hello \"world\"\nwith\tescapes\x01 and \xc3\xa9";
      Json.Arr [ Json.Int 1; Json.Null; Json.Str "x" ];
      Json.Obj [ ("a", Json.Arr []); ("b", Json.Obj [ ("c", Json.Bool false) ]) ];
    ]
  in
  List.iter
    (fun j ->
      let s = Json.to_string j in
      match Json.parse s with
      | Ok j' -> Alcotest.(check bool) s true (Json.equal j j')
      | Error e -> Alcotest.failf "%s: parse error %s" s e)
    cases;
  (* Pretty output parses back to the same tree. *)
  let j = Json.Obj [ ("xs", Json.Arr [ Json.Int 1; Json.Int 2 ]); ("ok", Json.Bool true) ] in
  (match Json.parse (Json.to_string ~pretty:true j) with
  | Ok j' -> Alcotest.(check bool) "pretty round-trip" true (Json.equal j j')
  | Error e -> Alcotest.failf "pretty parse error %s" e);
  (* Unicode escapes decode to UTF-8. *)
  match Json.parse {|"éA"|} with
  | Ok (Json.Str s) -> Alcotest.(check string) "unicode escape" "\xc3\xa9A" s
  | Ok _ | Error _ -> Alcotest.fail "unicode escape did not parse to a string"

let test_json_rejects () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated"; "{'a':1}" ]

let test_event_roundtrip =
  qcheck "event JSONL round-trip"
    (QCheck.make ~print:pp_stamped_string gen_stamped)
    (fun e ->
      match Event.of_json (Event.to_json e) with
      | Ok e' -> Event.equal_stamped e e'
      | Error msg -> QCheck.Test.fail_reportf "of_json: %s" msg)

let test_event_kinds () =
  Alcotest.(check (list string))
    "kinds"
    [ "access"; "toss"; "sched"; "round"; "crash"; "recovery"; "invoke"; "complete";
      "give-up"; "end" ]
    Event.kinds

(* ---- tracer ---- *)

let spurious_plan = Fault_plan.spurious_sc_rate 0.2

let certify_run () =
  Faults.run ~target:Adt_tree.construction ~plan:spurious_plan ~n:6 ~seed:3
    ~ops_per_process:2 ()

let report_fingerprint (r : Faults.report) =
  ( Faults.status_string r.Faults.status,
    r.Faults.total_shared_ops,
    r.Faults.spurious_injected,
    r.Faults.restarts,
    List.map
      (fun (s : Harness.op_stat) -> (s.Harness.pid, s.Harness.seq, s.Harness.cost, Value.to_string s.Harness.response))
      r.Faults.raw.Harness.stats )

let test_tracing_does_not_perturb () =
  let untraced = report_fingerprint (certify_run ()) in
  let tracer = Tracer.ring () in
  let traced = Tracer.with_tracer tracer (fun () -> report_fingerprint (certify_run ())) in
  Alcotest.(check bool) "identical verdicts and costs" true (untraced = traced);
  Alcotest.(check bool) "trace is non-empty" true (Tracer.emitted tracer > 0)

let test_tracer_off_is_inert () =
  Alcotest.(check bool) "inactive by default" false (Tracer.active ());
  Tracer.record (Event.Round { index = 1 });
  Alcotest.(check bool) "record without tracer is a no-op" true (Tracer.installed () = None)

let test_ring_capacity () =
  let tracer = Tracer.ring ~capacity:4 () in
  List.iter (fun i -> Tracer.emit tracer (Event.Round { index = i })) [ 1; 2; 3; 4; 5; 6 ];
  Alcotest.(check int) "emitted" 6 (Tracer.emitted tracer);
  Alcotest.(check int) "dropped" 2 (Tracer.dropped tracer);
  let kept =
    List.map
      (fun (e : Event.stamped) ->
        match e.Event.event with Event.Round { index } -> index | _ -> -1)
      (Tracer.events tracer)
  in
  Alcotest.(check (list int)) "keeps the most recent" [ 3; 4; 5; 6 ] kept

let trace_of_seed seed =
  let tracer = Tracer.ring () in
  let (_ : Faults.report) =
    Tracer.with_tracer tracer (fun () ->
        Faults.run ~target:Adt_tree.construction ~plan:spurious_plan ~n:6 ~seed
          ~ops_per_process:2 ())
  in
  Tracer.events tracer

let test_trace_file_roundtrip () =
  let events = trace_of_seed 3 in
  Alcotest.(check bool) "recorded something" true (events <> []);
  let path = Filename.temp_file "lb-trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_file.save path events;
      match Trace_file.load path with
      | Ok loaded ->
        Alcotest.(check int) "same length" (List.length events) (List.length loaded);
        Alcotest.(check bool) "bit-identical" true
          (List.for_all2 Event.equal_stamped events loaded)
      | Error msg -> Alcotest.failf "load: %s" msg)

let test_trace_file_load_error () =
  let path = Filename.temp_file "lb-trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"at\":0,\"kind\":\"round\",\"index\":1}\nnot json\n";
      close_out oc;
      match Trace_file.load path with
      | Ok _ -> Alcotest.fail "corrupt line should be a hard error"
      | Error msg ->
        Alcotest.(check bool) "error names the line" true
          (Astring_contains.contains msg ":2:"))

let test_trace_diff () =
  let a = trace_of_seed 3 and b = trace_of_seed 3 and c = trace_of_seed 4 in
  Alcotest.(check bool) "same seed: empty diff" true (Trace_diff.compute a b = []);
  let entries = Trace_diff.compute a c in
  Alcotest.(check bool) "different seed: non-empty diff" true (entries <> []);
  (* Filtering to a kind neither trace lacks still diffs deterministically;
     filtering to an absent kind yields an empty diff. *)
  Alcotest.(check bool) "absent kind filters to empty" true
    (Trace_diff.compute ~kinds:[ "crash" ] a c = [])

let test_trace_diff_suffix () =
  let e i = { Event.at = i; event = Event.Round { index = i } } in
  match Trace_diff.compute [ e 0; e 1 ] [ e 0 ] with
  | [ Trace_diff.Only { side = Trace_diff.Left; index = 1; _ } ] -> ()
  | entries -> Alcotest.failf "unexpected diff: %d entries" (List.length entries)

(* A trace that stops exactly at the run-end marker agrees with one that
   captured the marker: the lone trailing Run_end surplus is a recorder
   boundary, not a divergence — on either side.  Anything more than that
   single marker (an extra event before it, or a marker plus a surplus)
   still diffs. *)
let test_trace_diff_run_end_boundary () =
  let round i = { Event.at = i; event = Event.Round { index = i } } in
  let run_end at =
    {
      Event.at;
      event = Event.Run_end { outcome = Event.All_terminated; steps = at; ops = []; unfinished = [] };
    }
  in
  let body = [ round 0; round 1 ] in
  Alcotest.(check bool) "left trailing run-end forgiven" true
    (Trace_diff.compute (body @ [ run_end 2 ]) body = []);
  Alcotest.(check bool) "right trailing run-end forgiven" true
    (Trace_diff.compute body (body @ [ run_end 2 ]) = []);
  Alcotest.(check bool) "divergence before the marker still reported" true
    (Trace_diff.compute (body @ [ run_end 2 ]) [ round 0; round 9 ] <> []);
  Alcotest.(check bool) "surplus beyond the marker still reported" true
    (Trace_diff.compute (body @ [ round 2; run_end 3 ]) body <> []);
  (* Equal traces that both end in the marker stay an empty diff. *)
  Alcotest.(check bool) "identical run-end-terminated traces agree" true
    (Trace_diff.compute (body @ [ run_end 2 ]) (body @ [ run_end 2 ]) = [])

(* ---- metrics ---- *)

let test_metrics_basics () =
  let reg = Metrics.create () in
  Metrics.incr reg "a";
  Metrics.incr ~by:4 reg "a";
  Alcotest.(check int) "counter" 5 (Metrics.counter_value reg "a");
  Alcotest.(check int) "absent counter" 0 (Metrics.counter_value reg "zzz");
  Metrics.set_gauge reg "g" 2.5;
  Metrics.set_gauge reg "g" 7.0;
  Alcotest.(check (option (float 0.0))) "gauge last-write-wins" (Some 7.0)
    (Metrics.gauge_value reg "g");
  Metrics.declare_histogram reg "h" ~bounds:[ 1.0; 10.0 ];
  List.iter (Metrics.observe reg "h") [ 0.5; 5.0; 50.0 ];
  (match Metrics.histogram reg "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
    Alcotest.(check int) "count" 3 h.Metrics.count;
    Alcotest.(check (float 1e-9)) "sum" 55.5 h.Metrics.sum;
    Alcotest.(check (float 1e-9)) "min" 0.5 h.Metrics.min;
    Alcotest.(check (float 1e-9)) "max" 50.0 h.Metrics.max;
    (* Two declared bounds plus the implicit +inf overflow bucket. *)
    Alcotest.(check (list int)) "bucket counts" [ 1; 1; 1 ]
      (List.map snd h.Metrics.buckets));
  Alcotest.(check (list string)) "names sorted" [ "a"; "g"; "h" ] (Metrics.names reg);
  Alcotest.check_raises "kind mismatch" (Invalid_argument "Metrics: \"a\" is not a gauge")
    (fun () -> Metrics.set_gauge reg "a" 1.0)

let test_metrics_isolation () =
  let reg = Metrics.create () in
  Metrics.with_registry reg (fun () -> Metrics.incr (Metrics.current ()) "x");
  Alcotest.(check int) "inner registry saw it" 1 (Metrics.counter_value reg "x");
  Alcotest.(check bool) "restored" true (Metrics.current () != reg);
  Metrics.reset reg;
  Alcotest.(check (list string)) "reset forgets" [] (Metrics.names reg)

let test_metrics_to_json () =
  let reg = Metrics.create () in
  Metrics.incr reg "c";
  Metrics.set_gauge reg "g" 1.5;
  Metrics.observe_int reg "h" 3;
  let j = Metrics.to_json reg in
  let field path =
    match Json.member path j with Some x -> x | None -> Alcotest.failf "missing %s" path
  in
  Alcotest.(check (option int)) "counter" (Some 1)
    (Option.bind (Json.member "c" (field "counters")) Json.to_int_opt);
  Alcotest.(check (option (float 0.0))) "gauge" (Some 1.5)
    (Option.bind (Json.member "g" (field "gauges")) Json.to_float_opt);
  match Json.parse (Json.to_string j) with
  | Ok j' -> Alcotest.(check bool) "serialises and parses" true (Json.equal j j')
  | Error e -> Alcotest.failf "metrics json: %s" e

let arb_workload =
  QCheck.make
    ~print:(fun (n, k) -> Printf.sprintf "n=%d ops=%d" n k)
    QCheck.Gen.(pair (1 -- 6) (1 -- 3))

let test_histogram_matches_harness =
  qcheck ~count:40 "harness.op_cost histogram matches exact per-op costs" arb_workload
    (fun (n, ops_per_process) ->
      let reg = Metrics.create () in
      let result =
        Metrics.with_registry reg (fun () ->
            Harness.run ~construction:Adt_tree.construction
              ~spec:(Counters.fetch_inc ~bits:62) ~n
              ~ops:(fun _ -> List.init ops_per_process (fun _ -> Value.unit))
              ())
      in
      let costs = List.map (fun (s : Harness.op_stat) -> s.Harness.cost) result.Harness.stats in
      match Metrics.histogram reg "harness.op_cost" with
      | None -> QCheck.Test.fail_report "no harness.op_cost histogram"
      | Some h ->
        h.Metrics.count = List.length costs
        && h.Metrics.sum = float_of_int (List.fold_left ( + ) 0 costs)
        && (costs = [] || h.Metrics.max = float_of_int (List.fold_left max 0 costs))
        && Metrics.counter_value reg "harness.ops_completed" = List.length costs)

(* ---- BENCH artifacts ---- *)

let test_bench_out_append_read () =
  let dir = Filename.temp_file "lb-bench" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      Alcotest.(check bool) "fresh read is empty" true
        (Bench_out.read ~dir ~suite:"t" () = Ok []);
      let path1 = Bench_out.append ~dir ~suite:"t" ~meta:[ ("k", Json.Int 1) ] (Json.Str "a") in
      let (_ : string) = Bench_out.append ~dir ~suite:"t" (Json.Str "b") in
      Alcotest.(check string) "path" (Filename.concat dir "BENCH_t.json") path1;
      match Bench_out.read ~dir ~suite:"t" () with
      | Error e -> Alcotest.failf "read: %s" e
      | Ok snapshots ->
        Alcotest.(check int) "two snapshots" 2 (List.length snapshots);
        let datum s = Option.bind (Json.member "data" s) Json.to_str_opt in
        Alcotest.(check (list (option string))) "order preserved" [ Some "a"; Some "b" ]
          (List.map datum snapshots);
        Alcotest.(check (option int)) "meta spliced" (Some 1)
          (Option.bind (Json.member "k" (List.hd snapshots)) Json.to_int_opt);
        Alcotest.(check (option string)) "suite recorded" (Some "t")
          (Option.bind (Json.member "suite" (List.hd snapshots)) Json.to_str_opt))

let test_bench_out_corrupt_starts_fresh () =
  let dir = Filename.temp_file "lb-bench" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let oc = open_out (Bench_out.path ~dir ~suite:"t" ()) in
      output_string oc "not json at all";
      close_out oc;
      let (_ : string) = Bench_out.append ~dir ~suite:"t" (Json.Str "x") in
      match Bench_out.read ~dir ~suite:"t" () with
      | Ok [ s ] ->
        Alcotest.(check (option string)) "fresh trajectory" (Some "x")
          (Option.bind (Json.member "data" s) Json.to_str_opt)
      | Ok l -> Alcotest.failf "expected 1 snapshot, got %d" (List.length l)
      | Error e -> Alcotest.failf "read: %s" e)

(* ---- the benchmark regression gate ---- *)

let test_bench_gate_regression_fails () =
  let baseline = [ ("fast", 100.0); ("slow", 100.0) ] in
  let current = [ ("fast", 110.0); ("slow", 200.0) ] in
  let verdict = Bench_gate.compare ~tolerance:0.30 ~baseline ~current in
  Alcotest.(check bool) "regression fails the gate" false (Bench_gate.ok verdict);
  (match verdict.Bench_gate.compared with
  | [ fast; slow ] ->
    Alcotest.(check bool) "within tolerance passes" false fast.Bench_gate.regressed;
    Alcotest.(check bool) "2x is a regression" true slow.Bench_gate.regressed;
    Alcotest.(check (float 1e-9)) "ratio" 2.0 slow.Bench_gate.ratio
  | _ -> Alcotest.fail "expected two comparisons");
  (* Speedups never fail, whatever the magnitude. *)
  let verdict = Bench_gate.compare ~tolerance:0.30 ~baseline ~current:[ ("fast", 1.0); ("slow", 1.0) ] in
  Alcotest.(check bool) "speedup passes" true (Bench_gate.ok verdict)

(* The tolerance boundary, as a property: a current reading of exactly
   baseline * (1 + tolerance) passes the gate, and nudging it past the
   boundary by a visible epsilon fails it — for arbitrary positive
   baselines and tolerances.  This is why the gate compares
   [current > baseline * (1 + tolerance)] multiplicatively instead of
   re-deriving the bound from the rounded ratio. *)
let t_bench_gate_tolerance_boundary =
  let arb =
    QCheck.make
      ~print:(fun (b, t) -> Printf.sprintf "baseline=%g tolerance=%g" b t)
      QCheck.Gen.(
        let* base = float_range 1e-3 1e12 and* tol = float_range 0.0 2.0 in
        return (base, tol))
  in
  qcheck ~count:500 "bench gate: exact tolerance passes, over it fails" arb
    (fun (base, tolerance) ->
      let boundary = base *. (1.0 +. tolerance) in
      let eps = boundary *. 0.01 in
      let at = Bench_gate.compare ~tolerance ~baseline:[ ("b", base) ] ~current:[ ("b", boundary) ]
      and over =
        Bench_gate.compare ~tolerance ~baseline:[ ("b", base) ]
          ~current:[ ("b", boundary +. eps) ]
      in
      Bench_gate.ok at && not (Bench_gate.ok over))

let test_bench_gate_added_benchmark_warns () =
  (* The satellite fix: a current benchmark with no baseline entry yet (a
     newly added one) must warn, not fail — otherwise adding a benchmark
     breaks CI until its baseline is committed. *)
  let baseline = [ ("old", 100.0) ] in
  let current = [ ("old", 100.0); ("service e5 cold request", 5.0e9) ] in
  let verdict = Bench_gate.compare ~tolerance:0.30 ~baseline ~current in
  Alcotest.(check bool) "new benchmark cannot fail the gate" true (Bench_gate.ok verdict);
  Alcotest.(check (list string)) "but is reported" [ "service e5 cold request" ]
    verdict.Bench_gate.added;
  let report = Format.asprintf "%a" Bench_gate.pp verdict in
  Alcotest.(check bool) "as a warning" true (Astring_contains.contains report "warning")

let test_bench_gate_missing_benchmark_warns () =
  let baseline = [ ("kept", 100.0); ("renamed", 100.0) ] in
  let current = [ ("kept", 100.0) ] in
  let verdict = Bench_gate.compare ~tolerance:0.30 ~baseline ~current in
  Alcotest.(check bool) "missing benchmark cannot fail the gate" true (Bench_gate.ok verdict);
  Alcotest.(check (list string)) "but is reported" [ "renamed" ] verdict.Bench_gate.missing

let test_bench_gate_payload_extraction () =
  let payload =
    Json.Obj
      [
        ( "benchmarks",
          Json.Arr
            [
              Json.Obj [ ("name", Json.Str "a"); ("ns_per_run", Json.Float 1.5) ];
              Json.Obj [ ("name", Json.Str "b"); ("ns_per_run", Json.Int 2) ];
              Json.Obj [ ("name", Json.Str "no-ns") ];
              Json.Str "not an object";
            ] );
      ]
  in
  Alcotest.(check (list (pair string (float 1e-9))))
    "ill-shaped entries skipped"
    [ ("a", 1.5); ("b", 2.0) ]
    (Bench_gate.benchmarks_of_payload payload);
  Alcotest.(check (list (pair string (float 1e-9))))
    "payload without benchmarks" []
    (Bench_gate.benchmarks_of_payload Json.Null)

let suite =
  [
    Alcotest.test_case "json: round-trips" `Quick test_json_roundtrip_cases;
    Alcotest.test_case "json: rejects malformed input" `Quick test_json_rejects;
    test_event_roundtrip;
    Alcotest.test_case "event: kind tags" `Quick test_event_kinds;
    Alcotest.test_case "tracer: does not perturb runs" `Quick test_tracing_does_not_perturb;
    Alcotest.test_case "tracer: off is inert" `Quick test_tracer_off_is_inert;
    Alcotest.test_case "tracer: ring keeps the newest" `Quick test_ring_capacity;
    Alcotest.test_case "trace file: JSONL round-trip" `Quick test_trace_file_roundtrip;
    Alcotest.test_case "trace file: corrupt line is a hard error" `Quick
      test_trace_file_load_error;
    Alcotest.test_case "trace diff: same seed empty, cross-seed not" `Quick test_trace_diff;
    Alcotest.test_case "trace diff: length mismatch" `Quick test_trace_diff_suffix;
    Alcotest.test_case "trace diff: run-end capture boundary is forgiven" `Quick
      test_trace_diff_run_end_boundary;
    Alcotest.test_case "metrics: counters, gauges, histograms" `Quick test_metrics_basics;
    Alcotest.test_case "metrics: registry isolation" `Quick test_metrics_isolation;
    Alcotest.test_case "metrics: to_json" `Quick test_metrics_to_json;
    test_histogram_matches_harness;
    Alcotest.test_case "bench out: append/read trajectory" `Quick test_bench_out_append_read;
    Alcotest.test_case "bench out: corrupt file starts fresh" `Quick
      test_bench_out_corrupt_starts_fresh;
    Alcotest.test_case "bench gate: only regressions fail" `Quick
      test_bench_gate_regression_fails;
    t_bench_gate_tolerance_boundary;
    Alcotest.test_case "bench gate: new benchmark warns, not fails" `Quick
      test_bench_gate_added_benchmark_warns;
    Alcotest.test_case "bench gate: missing benchmark warns, not fails" `Quick
      test_bench_gate_missing_benchmark_warns;
    Alcotest.test_case "bench gate: payload extraction" `Quick
      test_bench_gate_payload_extraction;
  ]
