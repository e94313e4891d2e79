(* Tests for the conformance subsystem: typed histories with pending
   operations, the Wing-Gong linearizability checker, the program-rewrite
   mutation engine, the ddmin shrinker, and the schedule fuzzer built on
   top of all four. *)

open Lowerbound

let fetch_inc =
  match Schedule_fuzz.find_type "fetch-inc" with
  | Some ot -> ot
  | None -> Alcotest.fail "fetch-inc object type missing"

let herlihy =
  match Conformance.find_construction "herlihy" with
  | Some c -> c
  | None -> Alcotest.fail "herlihy construction missing"

let inc = Value.unit

let completed ?(ghost = false) ~pid ~seq ~invoked ~responded response =
  {
    Conf_history.pid;
    seq;
    op = inc;
    invoked;
    outcome = Conf_history.Completed { response; responded };
    ghost;
  }

let pending ?(ghost = false) ~pid ~seq ~invoked () =
  { Conf_history.pid; seq; op = inc; invoked; outcome = Conf_history.Pending; ghost }

(* ---- history construction ---- *)

let test_history_of_events () =
  let e at event = { Event.at; event } in
  let events =
    [
      e 0 (Event.Op_invoked { pid = 0; seq = 0; op = inc });
      e 1 (Event.Op_invoked { pid = 1; seq = 0; op = inc });
      e 2 (Event.Op_completed { pid = 0; seq = 0; op = inc; response = Value.Int 0; cost = 3 });
      e 3 (Event.Op_failed { pid = 1; seq = 0; op = inc; reason = "gave up"; cost = 9 });
      e 4 (Event.Op_invoked { pid = 0; seq = 1; op = inc });
      (* An unrelated event between lifecycle events must be ignored. *)
      e 5 (Event.Round { index = 1 });
    ]
  in
  let h = Conf_history.of_events ~restarted:[ (1, 0) ] events in
  Alcotest.(check int) "four ops (one a restart ghost)" 4 (List.length h);
  Alcotest.(check int) "one completed" 1 (List.length (Conf_history.completed h));
  Alcotest.(check int) "three pending" 3 (List.length (Conf_history.pending h));
  let ghosts = List.filter (fun (o : Conf_history.op) -> o.Conf_history.ghost) h in
  (match ghosts with
  | [ g ] ->
    Alcotest.(check (pair int int)) "ghost doubles pid 1's lost attempt" (1, 0)
      (g.Conf_history.pid, g.Conf_history.seq)
  | _ -> Alcotest.failf "expected exactly one ghost, got %d" (List.length ghosts));
  (* Ascending invocation order is the representation invariant. *)
  let invocations = List.map (fun (o : Conf_history.op) -> o.Conf_history.invoked) h in
  Alcotest.(check bool) "sorted by invocation" true
    (List.sort compare invocations = invocations)

let test_history_result_event_agreement () =
  (* The same run, seen through the harness result and through the tracer's
     op-lifecycle events, must induce the same history shape: identical
     (pid, seq, completed?) multisets and identical responses. *)
  let spec = fetch_inc.Schedule_fuzz.spec_of ~n:2 in
  let tracer = Tracer.ring ~capacity:4096 () in
  let result =
    Tracer.with_tracer tracer (fun () ->
        Harness.run ~construction:herlihy ~spec ~n:2
          ~ops:(fun _pid -> [ inc; inc ])
          ~scheduler:Scheduler.round_robin ())
  in
  let from_result = result.Harness.history in
  let from_events = Conf_history.of_events (Tracer.events tracer) in
  let shape h =
    List.map
      (fun (o : Conf_history.op) ->
        ( o.Conf_history.pid,
          o.Conf_history.seq,
          match o.Conf_history.outcome with
          | Conf_history.Completed { response; _ } -> Some response
          | Conf_history.Pending -> None ))
      h
    |> List.sort compare
  in
  Alcotest.(check bool) "result and events induce the same history" true
    (shape from_result = shape from_events);
  Alcotest.(check int) "all four ops completed" 4
    (List.length (Conf_history.completed from_result))

(* ---- the linearizability checker ---- *)

let spec2 = fetch_inc.Schedule_fuzz.spec_of ~n:2

let test_linearize_witness () =
  (* Two overlapping fetch&incs returning 0 and 1 — linearizable, and the
     witness must order the 0-response first. *)
  let h =
    [
      completed ~pid:0 ~seq:0 ~invoked:0 ~responded:5 (Value.Int 1);
      completed ~pid:1 ~seq:0 ~invoked:1 ~responded:4 (Value.Int 0);
    ]
  in
  match Linearize.check spec2 h with
  | Linearize.Linearizable { witness; _ } ->
    Alcotest.(check (list (pair int int)))
      "witness order: the 0-response linearizes first"
      [ (1, 0); (0, 0) ]
      (List.map (fun (s : Linearize.step) -> (s.Linearize.pid, s.Linearize.seq)) witness)
  | v -> Alcotest.failf "expected a witness, got %a" Linearize.pp_verdict v

let test_linearize_violation_certificate () =
  (* Two overlapping fetch&incs both returning 0: certified violation, and
     already the two-response prefix is bad. *)
  let h =
    [
      completed ~pid:0 ~seq:0 ~invoked:0 ~responded:4 (Value.Int 0);
      completed ~pid:1 ~seq:0 ~invoked:1 ~responded:5 (Value.Int 0);
    ]
  in
  (match Linearize.check spec2 h with
  | Linearize.Not_linearizable { bad_prefix; completed; _ } ->
    Alcotest.(check int) "both responses needed" 2 bad_prefix;
    Alcotest.(check int) "completed count" 2 completed
  | v -> Alcotest.failf "expected a violation, got %a" Linearize.pp_verdict v);
  Alcotest.(check bool) "is_linearizable agrees" false (Linearize.is_linearizable spec2 h)

let test_linearize_pending_takes_effect () =
  (* pid 1's op never responded (crash), yet pid 0 observed its increment:
     only linearizable because the pending op may have taken effect. *)
  let h =
    [
      pending ~pid:1 ~seq:0 ~invoked:0 ();
      completed ~pid:0 ~seq:0 ~invoked:1 ~responded:3 (Value.Int 1);
    ]
  in
  Alcotest.(check bool) "pending effect explains the response" true
    (Linearize.is_linearizable spec2 h);
  (* Without the pending op the same response is a violation. *)
  Alcotest.(check bool) "without it, violation" false
    (Linearize.is_linearizable spec2
       [ completed ~pid:0 ~seq:0 ~invoked:1 ~responded:3 (Value.Int 1) ])

let test_linearize_ghost_double_effect () =
  (* A crash-recovery restart: the completed retry returned 1, and another
     process saw the counter at 2.  Only the ghost occurrence (the lost
     first attempt also applied) explains both responses. *)
  let with_ghost =
    [
      pending ~ghost:true ~pid:1 ~seq:0 ~invoked:0 ();
      completed ~pid:1 ~seq:0 ~invoked:1 ~responded:4 (Value.Int 1);
      completed ~pid:0 ~seq:0 ~invoked:2 ~responded:5 (Value.Int 2);
    ]
  in
  Alcotest.(check bool) "ghost double effect is linearizable" true
    (Linearize.is_linearizable spec2 with_ghost);
  Alcotest.(check bool) "without the ghost it is not" false
    (Linearize.is_linearizable spec2 (List.tl with_ghost))

let test_linearize_budget () =
  match Linearize.check ~max_states:1 spec2
          [
            completed ~pid:0 ~seq:0 ~invoked:0 ~responded:3 (Value.Int 0);
            completed ~pid:1 ~seq:0 ~invoked:1 ~responded:4 (Value.Int 0);
          ]
  with
  | Linearize.Budget_exhausted { budget; _ } -> Alcotest.(check int) "budget echoed" 1 budget
  | v -> Alcotest.failf "expected budget exhaustion, got %a" Linearize.pp_verdict v

(* ---- the mutation rewriter ---- *)

let test_mutate_rewrite () =
  (* Rewrite Sc -> Validate with the response post-mapped to a failure
     flag; interpret both programs against a stub memory and check the
     mutant saw the rewritten operation and the original continuation the
     post-mapped response. *)
  let open Program.Syntax in
  let program =
    let* v = Program.ll 0 in
    let* ok = Program.sc_flag 0 (Value.Int (Value.to_int v + 1)) in
    Program.return ok
  in
  let rule = function
    | Op.Sc (r, _) -> (Op.Validate r, fun resp -> Op.Flagged (false, Op.value_of resp))
    | inv -> (inv, Fun.id)
  in
  let interpret prog =
    let issued = ref [] in
    let rec go = function
      | Program.Return x -> (x, List.rev !issued)
      | Program.Toss k -> go (k 0)
      | Program.Op (inv, k) ->
        issued := inv :: !issued;
        let resp =
          match inv with
          | Op.Ll _ -> Op.Value (Value.Int 7)
          | Op.Sc _ | Op.Validate _ -> Op.Flagged (true, Value.Int 7)
          | Op.Swap _ -> Op.Value (Value.Int 7)
          | Op.Move _ | Op.Write _ | Op.Fence -> Op.Ack
        in
        go (k resp)
    in
    go prog
  in
  let original_result, original_ops = interpret program in
  let mutant_result, mutant_ops = interpret (Mutate.rewrite rule program) in
  Alcotest.(check bool) "original SC succeeds" true original_result;
  Alcotest.(check bool) "mutant sees the post-mapped failure" false mutant_result;
  (match original_ops with
  | [ Op.Ll 0; Op.Sc (0, _) ] -> ()
  | _ -> Alcotest.fail "original issues LL then SC");
  match mutant_ops with
  | [ Op.Ll 0; Op.Validate 0 ] -> ()
  | _ -> Alcotest.fail "mutant issues LL then Validate"

(* ---- the shrinker ---- *)

let test_shrink_minimize () =
  let test l = List.mem 3 l && List.mem 7 l in
  let input = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] in
  let out = Shrink.minimize ~test input in
  Alcotest.(check (list int)) "exactly the two needed elements" [ 3; 7 ] out;
  Alcotest.(check bool) "1-minimal" true (Shrink.is_one_minimal ~test out);
  Alcotest.(check (list int)) "deterministic" out (Shrink.minimize ~test input);
  (* Uninteresting input comes back unchanged. *)
  Alcotest.(check (list int)) "non-failing input unchanged" [ 1; 2 ]
    (Shrink.ddmin ~test [ 1; 2 ])

let test_shrink_one_minimality_general =
  (* For an arbitrary monotone-ish predicate (needs every member of a
     target set), minimize always lands on exactly the target set. *)
  let gen =
    QCheck.Gen.(
      let* size = 1 -- 25 in
      let* needed = list_size (1 -- 4) (0 -- 24) in
      return (size, List.sort_uniq compare needed))
  in
  let arb =
    QCheck.make
      ~print:(fun (s, need) ->
        Printf.sprintf "size=%d need=%s" s
          (String.concat "," (List.map string_of_int need)))
      gen
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"minimize finds the exact witness set" arb
       (fun (size, needed) ->
         let needed = List.filter (fun x -> x < size) needed in
         QCheck.assume (needed <> []);
         let input = List.init size Fun.id in
         let test l = List.for_all (fun x -> List.mem x l) needed in
         Shrink.minimize ~test input = needed))

(* ---- the fuzzer ---- *)

let test_fuzz_clean_cell_passes () =
  let cell =
    Schedule_fuzz.check_cell ~construction:herlihy ~ot:fetch_inc ~plan_name:"none"
      ~plan:Fault_plan.none ~n:3 ~ops:3 ~schedules:50 ~seed:11 ~max_states:200_000 ()
  in
  Alcotest.(check bool) "herlihy/fetch-inc conforms" true (Schedule_fuzz.cell_ok cell);
  Alcotest.(check int) "all schedules ran" 50 cell.Schedule_fuzz.runs;
  Alcotest.(check int) "all passed" 50 cell.Schedule_fuzz.passed;
  Alcotest.(check bool) "no counterexample" true
    (cell.Schedule_fuzz.counterexample = None)

let test_fuzz_replay_deterministic () =
  let run =
    Schedule_fuzz.run_once ~construction:herlihy ~ot:fetch_inc ~plan:Fault_plan.none ~n:3
      ~ops:3 ~seed:42 ~max_states:200_000 ~scheduler:(Scheduler.random ~seed:42) ()
  in
  Alcotest.(check bool) "random run passes" true (run.Schedule_fuzz.verdict = Schedule_fuzz.Pass);
  Alcotest.(check bool) "schedule recorded" true (run.Schedule_fuzz.schedule <> []);
  let replayed =
    Schedule_fuzz.replay ~construction:herlihy ~ot:fetch_inc ~plan:Fault_plan.none ~n:3
      ~ops:3 ~seed:42 ~max_states:200_000 run.Schedule_fuzz.schedule
  in
  Alcotest.(check bool) "replay reproduces the verdict" true
    (Schedule_fuzz.same_class run.Schedule_fuzz.verdict replayed.Schedule_fuzz.verdict);
  Alcotest.(check (list int)) "replay follows the recorded schedule"
    run.Schedule_fuzz.schedule replayed.Schedule_fuzz.schedule

let test_fuzz_kills_mutant () =
  (* The canonical mutant: dropping SC validation makes lost updates
     schedulable, the fuzzer finds one, and the shrunk counterexample is
     locally minimal and replays deterministically. *)
  let mutant =
    match Mutate.find "drop-sc-validation" with
    | Some m -> m
    | None -> Alcotest.fail "drop-sc-validation mutant missing"
  in
  let cell =
    Conformance.hunt_mutant ~construction:herlihy ~mutant ~n:4 ~ops:4 ~schedules:500
      ~seed:1 ~max_states:200_000 ()
  in
  Alcotest.(check bool) "mutant fired" true (cell.Conformance.fired > 0);
  match cell.Conformance.outcome with
  | Conformance.Killed { minimized_len; _ } ->
    Alcotest.(check bool) "killed with a non-empty minimized schedule" true
      (minimized_len > 0);
    Alcotest.(check bool) "gate counts it as killed" true (Conformance.mutant_killed cell);
    (* Determinism of the whole hunt, shrink included. *)
    let again =
      Conformance.hunt_mutant ~construction:herlihy ~mutant ~n:4 ~ops:4 ~schedules:500
        ~seed:1 ~max_states:200_000 ()
    in
    Alcotest.(check bool) "hunt is deterministic" true
      (again.Conformance.outcome = cell.Conformance.outcome)
  | Conformance.Survived { runs } -> Alcotest.failf "mutant survived %d runs" runs
  | Conformance.Not_applicable -> Alcotest.fail "mutant reported as not applicable"

let test_fuzz_shrunk_counterexample_certified () =
  (* Drive the shrinker through a real failing run and check its two
     certificates: local minimality and deterministic replay. *)
  let mutant =
    match Mutate.find "drop-sc-validation" with
    | Some m -> m
    | None -> Alcotest.fail "drop-sc-validation mutant missing"
  in
  let mutated, _fired = Mutate.wrap mutant herlihy in
  let rec first_failure seed =
    if seed > 500 then Alcotest.fail "no failing schedule in 500 seeds"
    else
      let run =
        Schedule_fuzz.run_once ~construction:mutated ~ot:fetch_inc ~plan:Fault_plan.none
          ~n:4 ~ops:4 ~seed ~max_states:200_000 ~scheduler:(Scheduler.random ~seed) ()
      in
      match run.Schedule_fuzz.verdict with
      | Schedule_fuzz.Fail _ -> (seed, run)
      | _ -> first_failure (seed + 1)
  in
  let seed, run = first_failure 1 in
  let cx =
    Schedule_fuzz.shrink_failure ~construction:mutated ~ot:fetch_inc ~plan:Fault_plan.none
      ~n:4 ~ops:4 ~seed ~max_states:200_000 run
  in
  Alcotest.(check bool) "minimized no longer than original" true
    (List.length cx.Schedule_fuzz.minimized <= List.length cx.Schedule_fuzz.original);
  Alcotest.(check bool) "locally minimal" true cx.Schedule_fuzz.locally_minimal;
  Alcotest.(check bool) "replay-deterministic" true cx.Schedule_fuzz.deterministic;
  Alcotest.(check bool) "minimized verdict is still a failure" true
    (match cx.Schedule_fuzz.minimized_verdict with Schedule_fuzz.Fail _ -> true | _ -> false)

let test_fuzz_crash_stop_in_flight_pending () =
  (* Regression: a crash-stopped pid's in-flight operation never responds,
     but a helping construction can complete it on the crashed process's
     behalf, making its effect visible in other responses.  The harness
     result must surface that operation (result.in_flight), the history
     must carry it as a pending occurrence, and the cell must conform —
     without it these runs were falsely flagged not-linearizable. *)
  let plan = Fault_plan.crash_stop ~pid:0 ~after:2 in
  let spec = fetch_inc.Schedule_fuzz.spec_of ~n:3 in
  let engine = Fault_engine.instantiate ~seed:1 plan in
  let layout = Layout.create () in
  let handle = herlihy.Iface.create layout ~n:3 spec in
  let memory = Memory.create () in
  Layout.install layout memory;
  Fault_engine.arm engine memory;
  let result =
    Harness.run_handle ~memory ~handle ~n:3
      ~ops:(fun _pid -> [ inc; inc ])
      ~scheduler:Scheduler.round_robin ~hooks:(Fault_engine.hooks engine) ()
  in
  Alcotest.(check bool) "crashed pid left an op in flight" true
    (List.exists (fun (i : Harness.op_in_flight) -> i.Harness.pid = 0) result.Harness.in_flight);
  let h = result.Harness.history in
  Alcotest.(check bool) "the in-flight op is pending in the history" true
    (List.exists
       (fun (o : Conf_history.op) ->
         o.Conf_history.pid = 0 && (not o.Conf_history.ghost)
         && o.Conf_history.outcome = Conf_history.Pending)
       h);
  Alcotest.(check bool) "the faulted history is linearizable" true
    (Linearize.is_linearizable (fetch_inc.Schedule_fuzz.spec_of ~n:3) h);
  let cell =
    Schedule_fuzz.check_cell ~construction:herlihy ~ot:fetch_inc ~plan_name:"crash-stop"
      ~plan ~n:3 ~ops:2 ~schedules:30 ~seed:5 ~max_states:200_000 ()
  in
  Alcotest.(check bool) "crash-stop runs conform" true (Schedule_fuzz.cell_ok cell)

let test_fuzz_faulted_cell_not_failing () =
  (* Under a crash-recovery plan the checker must absorb restarts (ghost
     occurrences) without declaring violations. *)
  let plan = Fault_plan.crash_recover ~pid:0 ~after:3 ~restart:6 in
  let cell =
    Schedule_fuzz.check_cell ~construction:herlihy ~ot:fetch_inc ~plan_name:"crash-recover"
      ~plan ~n:3 ~ops:2 ~schedules:30 ~seed:5 ~max_states:200_000 ()
  in
  Alcotest.(check bool) "crash-recovery runs conform" true (Schedule_fuzz.cell_ok cell)

let test_conform_report_json () =
  let report =
    {
      Conformance.cells =
        [
          Schedule_fuzz.check_cell ~construction:herlihy ~ot:fetch_inc ~plan_name:"none"
            ~plan:Fault_plan.none ~n:2 ~ops:2 ~schedules:5 ~seed:3 ~max_states:200_000 ();
        ];
      mutants = [];
    }
  in
  Alcotest.(check bool) "report ok" true (Conformance.ok report);
  (* The JSON encoding round-trips through the printer/parser. *)
  let json = Conformance.json_of_report report in
  match Json.parse (Json.to_string json) with
  | Ok j -> Alcotest.(check bool) "JSON round-trip" true (j = json)
  | Error e -> Alcotest.failf "report JSON unparsable: %s" e

(* Satellite: the matrices fan their cells across Exec.Pool, and every
   cell is a pure function of (key, seed) with the pool preserving
   order — so the rendered report must be byte-identical at any job
   count.  This is what lets `lowerbound conform --jobs N` claim the
   same verdict as a sequential run. *)
let test_matrix_jobs_invariant () =
  let run jobs =
    let mutants =
      Conformance.mutation_matrix ~jobs ~constructions:[ herlihy ] ~n:2 ~ops:2 ~schedules:5
        ~seed:7 ~max_states:60_000 ()
    in
    let cells =
      Conformance.fuzz_matrix ~jobs ~constructions:[ herlihy ] ~types:[ fetch_inc ] ~n:2
        ~ops:2 ~schedules:5 ~seed:7 ~max_states:60_000 ()
    in
    Json.to_string (Conformance.json_of_report { Conformance.cells; mutants })
  in
  let sequential = run 1 in
  Alcotest.(check string) "jobs=3 report = sequential report" sequential (run 3);
  Alcotest.(check string) "jobs=0 (auto) report = sequential report" sequential (run 0)

(* ---- bounded-exhaustive certification ---- *)

let test_exhaustive_certifies_cell () =
  (* The whole in-bound schedule space of herlihy/fetch-inc at n=2 under
     the default pre-emption bound: every schedule passes, and the walk
     is deterministic, so the counts pin the exploration itself. *)
  let cert =
    Exhaustive.certify_cell ~construction:herlihy ~ot:fetch_inc ~plan_name:"none"
      ~plan:Fault_plan.none ~n:2 ~ops:1 ~seed:42 ~max_states:200_000 ()
  in
  Alcotest.(check bool) "cell certified" true (Exhaustive.cert_ok cert);
  Alcotest.(check int) "182 in-bound schedules" 182
    cert.Exhaustive.xc_stats.Sched_tree.schedules;
  Alcotest.(check int) "132 schedules elided by the bound" 132
    cert.Exhaustive.xc_stats.Sched_tree.elided;
  Alcotest.(check bool) "bound truncation reported" true
    (not (Sched_tree.exhaustive cert.Exhaustive.xc_stats));
  Alcotest.(check bool) "no counterexample" true
    (cert.Exhaustive.xc_counterexample = None)

let test_exhaustive_impure_plan_degrades () =
  (* A non-empty fault plan makes every step blocking: nothing commutes,
     the walk degrades to bounded enumeration — but still completes and
     still certifies (crash-stopped ops are pending, not violations). *)
  let plan = Fault_plan.crash_stop ~pid:0 ~after:2 in
  Alcotest.(check bool) "crash-stop plan is impure" false (Exhaustive.pure plan);
  let cert =
    Exhaustive.certify_cell ~construction:herlihy ~ot:fetch_inc ~plan_name:"crash-stop"
      ~plan ~n:2 ~ops:1 ~seed:42
      ~bounds:{ Sched_tree.no_bounds with preempt = Some 1 }
      ~max_states:200_000 ()
  in
  Alcotest.(check bool) "faulted cell certified" true (Exhaustive.cert_ok cert);
  Alcotest.(check bool) "walk ran" true (cert.Exhaustive.xc_stats.Sched_tree.schedules > 0)

let test_exhaustive_kills_mutants () =
  (* The exhaustive kill is a stronger claim than the fuzzer's: SOME
     in-bound schedule fails, found by systematic walk, not sampling. *)
  List.iter
    (fun name ->
      let mutant =
        match Mutate.find name with
        | Some m -> m
        | None -> Alcotest.failf "%s mutant missing" name
      in
      let mc =
        Exhaustive.certify_mutant ~construction:herlihy ~mutant ~n:3 ~ops:1 ~seed:42
          ~max_states:200_000 ()
      in
      Alcotest.(check bool) (name ^ " fired") true (mc.Exhaustive.xm_fired > 0);
      Alcotest.(check bool) (name ^ " killed in-bounds") true
        (Exhaustive.mutant_cert_killed mc);
      match mc.Exhaustive.xm_cert.Exhaustive.xc_counterexample with
      | None -> Alcotest.fail (name ^ ": killed but no counterexample")
      | Some cx ->
        Alcotest.(check bool) (name ^ ": counterexample is locally minimal") true
          cx.Schedule_fuzz.locally_minimal)
    [ "drop-sc-validation"; "stale-ll"; "lost-sc-write"; "lost-swap-write" ]

let test_exhaustive_report_json () =
  let report =
    {
      Exhaustive.certs =
        [
          Exhaustive.certify_cell ~construction:herlihy ~ot:fetch_inc ~plan_name:"none"
            ~plan:Fault_plan.none ~n:2 ~ops:1 ~seed:3
            ~bounds:{ Sched_tree.no_bounds with preempt = Some 1 }
            ~max_states:200_000 ();
        ];
      mutants = [];
    }
  in
  Alcotest.(check bool) "report ok" true (Exhaustive.ok report);
  let json = Exhaustive.json_of_report report in
  match Json.parse (Json.to_string json) with
  | Ok j -> Alcotest.(check bool) "JSON round-trip" true (j = json)
  | Error e -> Alcotest.failf "exhaustive report JSON unparsable: %s" e

let suite =
  [
    Alcotest.test_case "history: of_events lifecycle + ghosts" `Quick test_history_of_events;
    Alcotest.test_case "history: result and events agree" `Quick
      test_history_result_event_agreement;
    Alcotest.test_case "linearize: witness on overlap" `Quick test_linearize_witness;
    Alcotest.test_case "linearize: certified violation" `Quick
      test_linearize_violation_certificate;
    Alcotest.test_case "linearize: pending may take effect" `Quick
      test_linearize_pending_takes_effect;
    Alcotest.test_case "linearize: restart ghost double effect" `Quick
      test_linearize_ghost_double_effect;
    Alcotest.test_case "linearize: explicit budget exhaustion" `Quick test_linearize_budget;
    Alcotest.test_case "mutate: rewrite swaps the operation" `Quick test_mutate_rewrite;
    Alcotest.test_case "shrink: ddmin + sweep minimize" `Quick test_shrink_minimize;
    test_shrink_one_minimality_general;
    Alcotest.test_case "fuzz: clean cell passes" `Quick test_fuzz_clean_cell_passes;
    Alcotest.test_case "fuzz: recorded schedule replays" `Quick test_fuzz_replay_deterministic;
    Alcotest.test_case "fuzz: drop-sc-validation is killed" `Slow test_fuzz_kills_mutant;
    Alcotest.test_case "fuzz: counterexample is minimal + deterministic" `Slow
      test_fuzz_shrunk_counterexample_certified;
    Alcotest.test_case "fuzz: crash-stopped op is pending, not a violation" `Quick
      test_fuzz_crash_stop_in_flight_pending;
    Alcotest.test_case "fuzz: crash-recovery plan conforms" `Quick
      test_fuzz_faulted_cell_not_failing;
    Alcotest.test_case "conform: report gate + JSON" `Quick test_conform_report_json;
    Alcotest.test_case "conform: matrices invariant under --jobs" `Slow
      test_matrix_jobs_invariant;
    Alcotest.test_case "exhaustive: clean cell certified, counts pinned" `Quick
      test_exhaustive_certifies_cell;
    Alcotest.test_case "exhaustive: impure plan degrades but certifies" `Quick
      test_exhaustive_impure_plan_degrades;
    Alcotest.test_case "exhaustive: every mutant killed in-bounds" `Slow
      test_exhaustive_kills_mutants;
    Alcotest.test_case "exhaustive: report gate + JSON" `Quick test_exhaustive_report_json;
  ]
