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
  match Fault_targets.find "herlihy" with
  | Some c -> c
  | None -> Alcotest.fail "herlihy construction missing"

let inc = Value.unit

(* The campaign's two cell runners. *)
let sample schedules = Conformance.Sample { schedules }

let walk ?(bounds = Exhaustive.default_bounds) () =
  Conformance.Walk { bounds; max_schedules = 200_000 }

let sampled = function
  | Conformance.Sampled c -> c
  | Conformance.Walked _ -> Alcotest.fail "expected a sampled cell"

let walked = function
  | Conformance.Walked c -> c
  | Conformance.Sampled _ -> Alcotest.fail "expected a walked cell"

let completed ?(ghost = false) ~pid ~seq ~invoked ~responded response =
  {
    History.pid;
    seq;
    op = inc;
    invoked;
    outcome = History.Completed { response; responded };
    ghost;
  }

let pending ?(ghost = false) ~pid ~seq ~invoked () =
  { History.pid; seq; op = inc; invoked; outcome = History.Pending; ghost }

(* ---- history construction ---- *)

let test_history_result_event_agreement () =
  (* The same run, seen through the harness result and through the tracer's
     op-lifecycle events, must describe the same operations: identical
     (pid, seq, response-if-completed) multisets. *)
  let spec = fetch_inc.Schedule_fuzz.spec_of ~n:2 in
  let tracer = Tracer.ring ~capacity:4096 () in
  let result =
    Tracer.with_tracer tracer (fun () ->
        Harness.run ~construction:herlihy ~spec ~n:2
          ~ops:(fun _pid -> [ inc; inc ])
          ~scheduler:Scheduler.round_robin ())
  in
  let from_result =
    List.map
      (fun (o : History.op) ->
        ( o.History.pid,
          o.History.seq,
          match o.History.outcome with
          | History.Completed { response; _ } -> Some response
          | History.Pending -> None ))
      result.Harness.history
    |> List.sort compare
  in
  let events = List.map (fun (s : Event.stamped) -> s.Event.event) (Tracer.events tracer) in
  let from_events =
    List.filter_map
      (function
        | Event.Op_invoked { pid; seq; _ } ->
          Some
            ( pid,
              seq,
              List.find_map
                (function
                  | Event.Op_completed c when c.pid = pid && c.seq = seq -> Some c.response
                  | _ -> None)
                events )
        | _ -> None)
      events
    |> List.sort compare
  in
  Alcotest.(check bool) "result and events describe the same ops" true
    (from_result = from_events);
  Alcotest.(check int) "all four ops completed" 4
    (List.length (History.completed result.Harness.history))

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

let test_linearize_bad_prefix_budget () =
  (* p0 returns 5 while only four other increments overlap it, so its
     response alone is a violation: the shortest violating prefix is the
     first.  That prefix leaves p1..p4 pending, and refuting it visits every
     subset of them; each later prefix fixes one more of their responses
     and is refuted in fewer states.  Under a tiny budget the scan passes
     over the prefixes that run out and reports a longer one. *)
  let spec = Counters.fetch_inc ~bits:62 in
  let h =
    completed ~pid:0 ~seq:0 ~invoked:0 ~responded:5 (Value.Int 5)
    :: List.init 4 (fun k ->
           completed ~pid:(k + 1) ~seq:0 ~invoked:(k + 1) ~responded:(k + 6) (Value.Int k))
  in
  let bad_prefix ?max_states () =
    match Linearize.check ?max_states spec h with
    | Linearize.Not_linearizable { bad_prefix; _ } -> bad_prefix
    | v -> Alcotest.failf "expected a violation, got %a" Linearize.pp_verdict v
  in
  Alcotest.(check int) "budget 8: only the whole history is refuted" 5
    (bad_prefix ~max_states:8 ());
  Alcotest.(check int) "budget 12: the first four responses" 4 (bad_prefix ~max_states:12 ());
  Alcotest.(check int) "default budget: the shortest prefix" 1 (bad_prefix ())

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
  let rule () = function
    | Op.Sc (r, _) -> (Op.Validate r, fun resp -> ((), Op.Flagged (false, Op.value_of resp)))
    | inv -> (inv, fun resp -> ((), resp))
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
  let mutant_result, mutant_ops = interpret (Mutate.rewrite rule () program) in
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
  let hunt () =
    Conformance.hunt_mutant ~mode:(sample 500) ~construction:herlihy ~mutant ~n:4 ~ops:4 ~seed:1
      ~max_states:200_000 ()
  in
  let m = hunt () in
  Alcotest.(check bool) "mutant fired" true (m.Conformance.fired > 0);
  match (Conformance.outcome m, Conformance.counterexample m.Conformance.cell) with
  | Conformance.Killed, Some cx ->
    Alcotest.(check bool) "killed with a non-empty minimized schedule" true
      (cx.Schedule_fuzz.minimized <> []);
    Alcotest.(check bool) "gate counts it as killed" true (Conformance.mutant_ok m);
    (* Determinism of the whole hunt, shrink included. *)
    Alcotest.(check bool) "hunt is deterministic" true (hunt () = m)
  | outcome, _ ->
    Alcotest.failf "mutant not killed: %s"
      (match outcome with
      | Conformance.Survived -> "survived"
      | Conformance.Inconclusive -> "checker budget exhausted"
      | Conformance.Not_applicable -> "reported as not applicable"
      | Conformance.Killed -> "no counterexample")

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

let test_fuzz_crash_stop_pending () =
  (* Regression: a crash-stopped pid's in-flight operation never responds,
     but a helping construction can complete it on the crashed process's
     behalf, making its effect visible in other responses.  The history
     must carry that operation as a pending occurrence, and the cell must
     conform —
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
  let h = result.Harness.history in
  Alcotest.(check bool) "the in-flight op is pending in the history" true
    (List.exists
       (fun (o : History.op) ->
         o.History.pid = 0 && (not o.History.ghost)
         && o.History.outcome = History.Pending)
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
  let mode = sample 5 in
  let report =
    {
      Conformance.mode;
      cells =
        [
          Conformance.check_cell ~mode ~construction:herlihy ~ot:fetch_inc ~plan_name:"none"
            ~plan:Fault_plan.none ~n:2 ~ops:2 ~seed:3 ~max_states:200_000 ();
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
    let mode = sample 5 in
    let mutants =
      Conformance.mutant_matrix ~jobs ~constructions:[ herlihy ] ~mode ~n:2 ~ops:2 ~seed:7
        ~max_states:60_000 ()
    in
    let cells =
      Conformance.matrix ~jobs ~constructions:[ herlihy ] ~types:[ fetch_inc ] ~mode ~n:2
        ~ops:2 ~seed:7 ~max_states:60_000 ()
    in
    Json.to_string (Conformance.json_of_report { Conformance.mode; cells; mutants })
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
      let m =
        Conformance.hunt_mutant ~mode:(walk ()) ~construction:herlihy ~mutant ~n:3 ~ops:1
          ~seed:42 ~max_states:200_000 ()
      in
      Alcotest.(check bool) (name ^ " fired") true (m.Conformance.fired > 0);
      Alcotest.(check bool) (name ^ " killed in-bounds") true
        (Conformance.outcome m = Conformance.Killed);
      match Conformance.counterexample m.Conformance.cell with
      | None -> Alcotest.fail (name ^ ": killed but no counterexample")
      | Some cx ->
        Alcotest.(check bool) (name ^ ": counterexample is locally minimal") true
          cx.Schedule_fuzz.locally_minimal)
    [ "drop-sc-validation"; "stale-ll"; "lost-sc-write"; "lost-swap-write" ]

let test_exhaustive_empty_walk_inconclusive () =
  (* A length bound of 1 cuts every run before it completes: the walk
     certifies nothing, refutes nothing, and kills no mutant. *)
  let mode = walk ~bounds:{ Sched_tree.no_bounds with length = Some 1 } () in
  let cell =
    Conformance.check_cell ~mode ~construction:herlihy ~ot:fetch_inc ~plan_name:"none"
      ~plan:Fault_plan.none ~n:2 ~ops:1 ~seed:42 ~max_states:200_000 ()
  in
  Alcotest.(check int) "no schedule completed" 0
    (walked cell).Exhaustive.xc_stats.Sched_tree.schedules;
  Alcotest.(check bool) "not certified" false (Conformance.cell_ok cell);
  let report = { Conformance.mode; cells = [ cell ]; mutants = [] } in
  Alcotest.(check bool) "report not ok" false (Conformance.ok report);
  Alcotest.(check bool) "report inconclusive" true (Conformance.inconclusive report);
  let mutant = Option.get (Mutate.find "lost-swap-write") in
  let m =
    Conformance.hunt_mutant ~mode ~construction:herlihy ~mutant ~n:2 ~ops:1 ~seed:42
      ~max_states:200_000 ()
  in
  Alcotest.(check bool) "mutant fired" true (m.Conformance.fired > 0);
  Alcotest.(check bool) "empty walk is no kill" false (Conformance.mutant_ok m);
  Alcotest.(check bool) "mutant report inconclusive" true
    (Conformance.inconclusive { Conformance.mode; cells = []; mutants = [ m ] })

let test_check_budget_inconclusive () =
  (* A history the checker cannot decide within its budget is neither a
     pass nor a counterexample: the fuzz cell stops there unshrunk, and the
     exhaustive walk raises [Inconclusive]. *)
  let mode = sample 5 in
  let cell =
    Conformance.check_cell ~mode ~construction:herlihy ~ot:fetch_inc ~plan_name:"none"
      ~plan:Fault_plan.none ~n:2 ~ops:1 ~seed:1 ~max_states:1 ()
  in
  Alcotest.(check bool) "no counterexample" true (Conformance.counterexample cell = None);
  Alcotest.(check int) "stops at the undecided schedule" 1 (sampled cell).Schedule_fuzz.runs;
  Alcotest.(check bool) "cell not ok" false (Conformance.cell_ok cell);
  Alcotest.(check bool) "cell inconclusive" true (Conformance.cell_inconclusive cell);
  let report = { Conformance.mode; cells = [ cell ]; mutants = [] } in
  Alcotest.(check bool) "report not ok" false (Conformance.ok report);
  Alcotest.(check bool) "report inconclusive" true (Conformance.inconclusive report);
  Alcotest.(check bool) "exhaustive walk inconclusive" true
    (match
       Conformance.check_cell ~mode:(walk ()) ~construction:herlihy ~ot:fetch_inc ~plan_name:"none"
         ~plan:Fault_plan.none ~n:2 ~ops:1 ~seed:42 ~max_states:1 ()
     with
    | _ -> false
    | exception Exhaustive.Inconclusive _ -> true)

let test_mutant_hunt_budget_inconclusive () =
  (* The mutant hunt treats an undecided history like the fuzz cell does: a
     mutant whose first history exhausts the checker budget is neither
     killed nor survived, nothing is shrunk, and the report is inconclusive
     rather than conformant. *)
  let mutant =
    match Mutate.find "drop-sc-validation" with
    | Some m -> m
    | None -> Alcotest.fail "drop-sc-validation mutant missing"
  in
  let mode = sample 3 in
  let m =
    Conformance.hunt_mutant ~mode ~construction:herlihy ~mutant ~n:2 ~ops:1 ~seed:1
      ~max_states:1 ()
  in
  Alcotest.(check bool) "budget exhaustion is no kill" false (Conformance.mutant_ok m);
  Alcotest.(check bool) "inconclusive hunt" true
    (Conformance.outcome m = Conformance.Inconclusive);
  Alcotest.(check int) "stops at the first schedule" 1
    (sampled m.Conformance.cell).Schedule_fuzz.runs;
  Alcotest.(check bool) "nothing shrunk" true
    (Conformance.counterexample m.Conformance.cell = None);
  let report = { Conformance.mode; cells = []; mutants = [ m ] } in
  Alcotest.(check bool) "report not ok" false (Conformance.ok report);
  Alcotest.(check bool) "report inconclusive" true (Conformance.inconclusive report)

let test_exhaustive_report_json () =
  let mode = walk ~bounds:{ Sched_tree.no_bounds with preempt = Some 1 } () in
  let report =
    {
      Conformance.mode;
      cells =
        [
          Conformance.check_cell ~mode ~construction:herlihy ~ot:fetch_inc ~plan_name:"none"
            ~plan:Fault_plan.none ~n:2 ~ops:1 ~seed:3 ~max_states:200_000 ();
        ];
      mutants = [];
    }
  in
  Alcotest.(check bool) "report ok" true (Conformance.ok report);
  let json = Conformance.json_of_report report in
  match Json.parse (Json.to_string json) with
  | Ok j -> Alcotest.(check bool) "JSON round-trip" true (j = json)
  | Error e -> Alcotest.failf "exhaustive report JSON unparsable: %s" e

(* A mutant row means the same in both modes: [killed] is true only for a
   KILLED outcome and [ok] is [mutant_ok].  A sampled mutant that never
   fires (lost-swap-write on the direct target, which issues no swap) is
   ok but not killed; a walked one that is killed carries its stats. *)
let test_mutant_json_fields () =
  let mutant name = Option.get (Mutate.find name) in
  let direct = Option.get (Fault_targets.find "direct") in
  let inapplicable =
    Conformance.hunt_mutant ~mode:(sample 5) ~construction:direct
      ~mutant:(mutant "lost-swap-write") ~n:2 ~ops:1 ~seed:1 ~max_states:200_000 ()
  in
  let killed =
    Conformance.hunt_mutant
      ~mode:(walk ~bounds:{ Sched_tree.no_bounds with preempt = Some 1 } ())
      ~construction:herlihy ~mutant:(mutant "drop-sc-validation") ~n:2 ~ops:1 ~seed:1
      ~max_states:200_000 ()
  in
  let row m =
    let report = { Conformance.mode = sample 5; cells = []; mutants = [ m ] } in
    match Conformance.json_of_report report with
    | Json.Obj fields -> (
      match List.assoc "mutants" fields with
      | Json.Arr [ Json.Obj row ] -> row
      | _ -> Alcotest.fail "expected one mutant row")
    | _ -> Alcotest.fail "expected a JSON object"
  in
  let keys m = List.map fst (row m) in
  let field m k = List.assoc k (row m) in
  Alcotest.(check (list string))
    "sampled row fields"
    [ "construction"; "mutant"; "fired"; "outcome"; "killed"; "ok" ]
    (keys inapplicable);
  Alcotest.(check (list string))
    "walked row fields"
    [ "construction"; "mutant"; "fired"; "outcome"; "killed"; "ok"; "stats" ]
    (keys killed);
  Alcotest.(check bool) "never fired" true (field inapplicable "fired" = Json.Int 0);
  Alcotest.(check bool) "not applicable is not killed" true
    (field inapplicable "killed" = Json.Bool false);
  Alcotest.(check bool) "not applicable is ok" true (field inapplicable "ok" = Json.Bool true);
  Alcotest.(check bool) "outcome text" true
    (field inapplicable "outcome" = Json.Str "not applicable (never fired)");
  Alcotest.(check bool) "walked mutant killed" true (field killed "killed" = Json.Bool true);
  Alcotest.(check bool) "walked mutant ok" true (field killed "ok" = Json.Bool true);
  Alcotest.(check bool) "walked outcome" true
    (match field killed "outcome" with
    | Json.Str o -> String.starts_with ~prefix:"KILLED" o
    | _ -> false)

(* ---- resumed certification = replayed certification ---- *)

(* [Exhaustive]'s runner from before runs resumed, verbatim: every run
   replays from the root through [Schedule_fuzz.execute], and each decision
   commits late, at the next scheduling point (or the end of the run),
   once the harness metrics show whether the step crossed an operation
   boundary.  Footprints come from the pending invocation, tapped from the
   fault filter. *)
let replay_run_schedule ~construction ~ot ~plan ~model ~n ~ops ~seed ~max_states sched =
  let reg = Metrics.current () in
  let boundary () =
    Metrics.counter_value reg "harness.ops_completed"
    + Metrics.counter_value reg "harness.ops_failed"
    + Metrics.counter_value reg "harness.restarts"
  in
  let impure = not (Exhaustive.pure plan) in
  let pending_of = ref (fun (_ : int) -> None) in
  let wrap_hooks (h : Harness.fault_hooks) =
    {
      h with
      Harness.filter =
        (fun ~step ~pending ~runnable ->
          pending_of := pending;
          h.Harness.filter ~step ~pending ~runnable);
    }
  in
  let parked = ref None in
  let commit_parked () =
    match !parked with
    | None -> ()
    | Some (regs, before) ->
      parked := None;
      let blocking = impure || boundary () <> before in
      ignore (Sched_tree.commit sched ~fp:{ Sched_tree.regs; blocking } ~branches:1)
  in
  let scheduler ~step ~runnable =
    commit_parked ();
    match Sched_tree.choose sched ~step ~enabled:runnable with
    | None -> None
    | Some pid ->
      let regs =
        if pid >= n then [ snd (Semantics.flush_of_id ~n pid) ]
        else
          match !pending_of pid with
          | Some inv -> Sched_tree.footprint inv
          | None -> []
      in
      parked := Some (regs, boundary ());
      Some pid
  in
  let result, schedule =
    Schedule_fuzz.execute ~construction ~ot ~plan ~n ~ops ~seed ~model ~wrap_hooks ~scheduler ()
  in
  commit_parked ();
  if Sched_tree.interrupted sched then None
  else Some (Schedule_fuzz.assess ~construction ~ot ~plan ~n ~ops ~max_states ~schedule result)

let pp_cx ppf (cx : Schedule_fuzz.counterexample) =
  Format.fprintf ppf "cx [%s] -> [%s] %a minimal=%b deterministic=%b"
    (String.concat ";" (List.map string_of_int cx.Schedule_fuzz.original))
    (String.concat ";" (List.map string_of_int cx.Schedule_fuzz.minimized))
    Schedule_fuzz.pp_verdict cx.Schedule_fuzz.minimized_verdict cx.Schedule_fuzz.locally_minimal
    cx.Schedule_fuzz.deterministic

(* One cell's outcome: stats, degraded count, verdict, counterexample. *)
let cell_summary stats degraded ok cx =
  Format.asprintf "%a, %d degraded, %s%a" Sched_tree.pp_stats stats degraded
    (if ok then "ok" else "not ok")
    (Format.pp_print_option (fun ppf cx -> Format.fprintf ppf ", %a" pp_cx cx))
    cx

(* [Exhaustive.certify_cell]'s walk over the replaying runner. *)
let replay_certify ~construction ~ot ~plan ~model ~n ~ops ~seed ~bounds =
  let max_states = 200_000 in
  let degraded = ref 0 and failed = ref None in
  let stats =
    Sched_tree.explore ~bounds
      ~run:(replay_run_schedule ~construction ~ot ~plan ~model ~n ~ops ~seed ~max_states)
      ~f:(fun (r : Schedule_fuzz.run) ->
        match r.Schedule_fuzz.verdict with
        | Schedule_fuzz.Pass -> true
        | Schedule_fuzz.Degraded _ ->
          incr degraded;
          true
        | Schedule_fuzz.Fail _ ->
          failed := Some r;
          false)
      ()
  in
  let cx =
    Option.map
      (Schedule_fuzz.shrink_failure ~construction ~ot ~plan ~n ~ops ~seed ~model ~max_states)
      !failed
  in
  cell_summary stats !degraded (!failed = None && stats.Sched_tree.schedules > 0) cx

let resumed_summary (c : Exhaustive.cert) =
  cell_summary c.Exhaustive.xc_stats c.Exhaustive.xc_degraded (Exhaustive.cert_ok c)
    c.Exhaustive.xc_counterexample

(* Resuming each run where the previous one left off must be invisible:
   every cell gives what the replaying runner gives.  The cells cover a
   handle with local state (consensus-list's replay caches), the mutants
   (stale-ll's threaded cache, and the fire tally a resumed run must be
   credited with), a relaxed memory model, and an impure plan (which never
   resumes). *)
let test_exhaustive_resume_replay () =
  let seed = 7 in
  let pair ?(model = Memory_model.SC) ?(plan_name = "none") ?(plan = Fault_plan.none)
      ?(bounds = Exhaustive.default_bounds) (construction : Iface.t) ot ~n ~ops =
    let label =
      Printf.sprintf "%s/%s/%s/%s n=%d ops=%d" construction.Iface.name ot.Schedule_fuzz.ot_name
        plan_name (Memory_model.to_string model) n ops
    in
    let resumed =
      Exhaustive.certify_cell ~construction ~ot ~plan_name ~plan ~model ~n ~ops ~seed ~bounds
        ~max_states:200_000 ()
    in
    ( label ^ ": " ^ resumed_summary resumed,
      label ^ ": " ^ replay_certify ~construction ~ot ~plan ~model ~n ~ops ~seed ~bounds )
  in
  let matrix =
    List.concat_map
      (fun construction ->
        List.concat_map
          (fun ot ->
            if Schedule_fuzz.supports ~construction ot then
              List.map (fun ops -> pair construction ot ~n:2 ~ops) [ 1; 2 ]
            else [])
          Schedule_fuzz.object_types)
      Fault_targets.all
  in
  let mutants =
    List.concat_map
      (fun construction ->
        List.map
          (fun mutant ->
            let bounds = { Sched_tree.no_bounds with preempt = Some 1 } in
            let label =
              Printf.sprintf "%s+%s n=3" construction.Iface.name mutant.Mutate.name
            in
            let m =
              Conformance.hunt_mutant ~mode:(walk ~bounds ()) ~construction ~mutant ~n:3 ~ops:1
                ~seed ~max_states:200_000 ()
            in
            let mutated, fired = Mutate.wrap mutant construction in
            let replayed =
              replay_certify ~construction:mutated ~ot:fetch_inc ~plan:Fault_plan.none
                ~model:Memory_model.SC ~n:3 ~ops:1 ~seed ~bounds
            in
            ( Printf.sprintf "%s: fired %d, %s" label m.Conformance.fired
                (resumed_summary (walked m.Conformance.cell)),
              Printf.sprintf "%s: fired %d, %s" label (fired ()) replayed ))
          Mutate.all)
      Fault_targets.all
  in
  let bounds = { Sched_tree.no_bounds with preempt = Some 1 } in
  let others =
    [
      pair ~model:Memory_model.TSO ~bounds herlihy fetch_inc ~n:3 ~ops:1;
      pair ~plan_name:"crash-stop" ~plan:(Fault_plan.crash_stop ~pid:0 ~after:2) ~bounds herlihy
        fetch_inc ~n:2 ~ops:1;
    ]
  in
  let resumed, replayed = List.split (matrix @ mutants @ others) in
  Alcotest.(check (list string)) "resumed walks = replayed walks" replayed resumed

(* Program steps a certify walk executes: [counted] wraps every [Op]
   continuation of the construction's programs with a counter. *)
let counted (c : Iface.t) =
  let steps = ref 0 in
  let rec wrap = function
    | Program.Return _ as p -> p
    | Program.Op (inv, k) ->
      Program.Op
        ( inv,
          fun r ->
            incr steps;
            wrap (k r) )
    | Program.Toss k -> Program.Toss (fun o -> wrap (k o))
  in
  let create layout ~n spec =
    let h = c.Iface.create layout ~n spec in
    { h with Iface.apply = (fun ~pid ~seq op -> wrap (h.Iface.apply ~pid ~seq op)) }
  in
  (steps, { c with Iface.create })

(* A deterministic gate on resuming: the program steps the CI cell
   (herlihy fetch-inc, n=4, one op each, pre-emption bound 1) executes.
   Every one of its 1,896 runs is a complete schedule of 56 steps, so a
   walk that replays every run from the root executes 1,896 x 56 = 106,176
   steps.  Each run after the first resumes at its divergence depth d (one
   save per committed step, so no prefix step is replayed) and executes
   56 - d steps, its divergence step included; the divergence depths sum
   to 51,772, so the walk executes 106,176 - 51,772 = 54,404.  A run that
   replayed even one prefix step would raise the count. *)
let test_exhaustive_executed_steps () =
  let bounds = { Sched_tree.no_bounds with preempt = Some 1 } in
  let steps, construction = counted herlihy in
  let cert =
    Exhaustive.certify_cell ~construction ~ot:fetch_inc ~plan_name:"none" ~plan:Fault_plan.none
      ~n:4 ~ops:1 ~seed:1 ~bounds ~max_states:200_000 ()
  in
  Alcotest.(check string) "walk"
    "1896 schedules (0 sleep-blocked, 0 deduped, 4186 elided, depth 56) [BOUNDED]"
    (Format.asprintf "%a" Sched_tree.pp_stats cert.Exhaustive.xc_stats);
  Alcotest.(check int) "executed steps (106,176 when every run replayed)" 54_404 !steps;
  let replay_steps, construction = counted herlihy in
  ignore
    (replay_certify ~construction ~ot:fetch_inc ~plan:Fault_plan.none ~model:Memory_model.SC
       ~n:4 ~ops:1 ~seed:1 ~bounds);
  Alcotest.(check int) "executed steps of the replaying walk" 106_176 !replay_steps

(* The allocation of one certify walk, a deterministic stand-in for its
   time: minor words of [Exhaustive.certify_cell] on the CI cell (herlihy
   fetch-inc, n=4, one op each, pre-emption bound 1), the second of two
   walks.  Before the walk kept its race analysis, root path and resumed
   trace across runs it allocated 27,981,246 words; after, 24,348,536
   (OCaml 5.1.1).  The bound is 1.1x the latter. *)
let exhaustive_walk_words = 24_348_536.

let test_exhaustive_walk_allocation () =
  let bounds = { Sched_tree.no_bounds with preempt = Some 1 } in
  let walk () =
    ignore
      (Exhaustive.certify_cell ~construction:herlihy ~ot:fetch_inc ~plan_name:"none"
         ~plan:Fault_plan.none ~n:4 ~ops:1 ~seed:1 ~bounds ~max_states:200_000 ())
  in
  walk ();
  let before = Gc.minor_words () in
  walk ();
  let words = Gc.minor_words () -. before in
  if words > 1.1 *. exhaustive_walk_words then
    Alcotest.failf "the n=4 herlihy certify walk allocated %.0f minor words (bound %.0f)" words
      (1.1 *. exhaustive_walk_words)

let suite =
  [
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
    Alcotest.test_case "linearize: bad prefix under a tiny budget" `Quick
      test_linearize_bad_prefix_budget;
    Alcotest.test_case "mutate: rewrite swaps the operation" `Quick test_mutate_rewrite;
    Alcotest.test_case "mutant JSON rows agree across modes" `Quick test_mutant_json_fields;
    Alcotest.test_case "shrink: ddmin + sweep minimize" `Quick test_shrink_minimize;
    test_shrink_one_minimality_general;
    Alcotest.test_case "fuzz: clean cell passes" `Quick test_fuzz_clean_cell_passes;
    Alcotest.test_case "fuzz: recorded schedule replays" `Quick test_fuzz_replay_deterministic;
    Alcotest.test_case "fuzz: drop-sc-validation is killed" `Slow test_fuzz_kills_mutant;
    Alcotest.test_case "fuzz: counterexample is minimal + deterministic" `Slow
      test_fuzz_shrunk_counterexample_certified;
    Alcotest.test_case "fuzz: crash-stopped op is pending, not a violation" `Quick
      test_fuzz_crash_stop_pending;
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
    Alcotest.test_case "exhaustive: no completed schedule certifies nothing" `Quick
      test_exhaustive_empty_walk_inconclusive;
    Alcotest.test_case "checker budget exhausted is inconclusive" `Quick
      test_check_budget_inconclusive;
    Alcotest.test_case "mutant hunt: checker budget exhausted is inconclusive" `Quick
      test_mutant_hunt_budget_inconclusive;
    Alcotest.test_case "exhaustive resume = replay" `Slow test_exhaustive_resume_replay;
    Alcotest.test_case "exhaustive executed steps (pinned)" `Quick
      test_exhaustive_executed_steps;
    Alcotest.test_case "exhaustive walk allocation (herlihy n=4, preempt<=1)" `Quick
      test_exhaustive_walk_allocation;
  ]
