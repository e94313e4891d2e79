(* Fault injection: wait-freedom of the universal constructions under
   adversity, via the lb_faults plan/engine stack and the conformance judge.

   A wait-free implementation guarantees that a process completes its
   operation in a bounded number of its own steps regardless of the other
   processes — including when they crash mid-operation, recover and retry,
   or suffer spurious SC failures (weak LL/SC).  A [faults] run drives a
   round-robin fetch&increment workload under a declarative fault plan and
   judges it with [Schedule_fuzz.assess], which returns a structured verdict
   instead of raising; these tests pin down the verdicts. *)

open Lowerbound

let certifiable = [ Adt_tree.construction; Herlihy.construction ]

let crash_plan ~crash_steps = Fault_plan.crash_stop ~pid:0 ~after:crash_steps

let fetch_inc = Option.get (Schedule_fuzz.find_type "fetch-inc")

(* One run as [lowerbound faults] makes it: one fetch&increment per
   process, round robin, judged under the default checker budget. *)
let judge ~(construction : Iface.t) ~plan ~n =
  let result, schedule =
    Schedule_fuzz.execute ~construction ~ot:fetch_inc ~plan ~n ~ops:1 ~seed:1
      ~scheduler:Scheduler.round_robin ()
  in
  let run =
    Schedule_fuzz.assess ~construction ~ot:fetch_inc ~plan ~n ~ops:1 ~max_states:200_000
      ~schedule result
  in
  (result, run.Schedule_fuzz.verdict)

(* Passed, possibly degraded: what the CLI counts as not violated. *)
let certified = function
  | Schedule_fuzz.Pass | Schedule_fuzz.Degraded _ -> true
  | Schedule_fuzz.Fail _ -> false

let linearizable = function
  | Schedule_fuzz.Fail (Schedule_fuzz.Not_linearizable _) -> false
  | _ -> true

let stats_of (result : Harness.result) pid =
  List.filter (fun (s : Harness.op_stat) -> s.Harness.pid = pid) result.Harness.stats

let max_cost result pid =
  List.fold_left (fun acc (s : Harness.op_stat) -> max acc s.Harness.cost) 0 (stats_of result pid)

let test_survivors_complete () =
  List.iter
    (fun (construction : Iface.t) ->
      List.iter
        (fun crash_steps ->
          List.iter
            (fun n ->
              let label =
                Printf.sprintf "%s n=%d crash@%d" construction.Iface.name n crash_steps
              in
              let result, verdict = judge ~construction ~plan:(crash_plan ~crash_steps) ~n in
              Alcotest.(check bool) (label ^ ": certified") true (certified verdict);
              List.iter
                (fun pid ->
                  Alcotest.(check int) (Printf.sprintf "%s: p%d finished" label pid) 1
                    (List.length (stats_of result pid));
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: p%d within bound" label pid)
                    true
                    (max_cost result pid <= construction.Iface.worst_case ~n))
                (List.init (n - 1) (fun i -> i + 1)))
            [ 3; 5; 8 ])
        [ 1; 2; 5; 9 ])
    certifiable

let test_crashed_op_helped_or_lost_atomically () =
  (* The crashed process's increment either took effect (a helper applied
     its announced descriptor) or it did not — never half.  The judge checks
     exactly this: the crashed operation is a pending occurrence in the
     checked history, which must linearize with or without it. *)
  List.iter
    (fun (construction : Iface.t) ->
      List.iter
        (fun crash_steps ->
          let _, verdict = judge ~construction ~plan:(crash_plan ~crash_steps) ~n:6 in
          let label = Printf.sprintf "%s crash@%d" construction.Iface.name crash_steps in
          Alcotest.(check bool) (label ^ ": consistent counter") true (linearizable verdict);
          Alcotest.(check bool) (label ^ ": certified") true (certified verdict))
        [ 1; 2; 3; 4; 6; 10 ])
    certifiable

let test_multiple_crashes () =
  (* Crash all but one process before their first step: the lone survivor
     still finishes solo, sees 0, and stays within its bound. *)
  List.iter
    (fun (construction : Iface.t) ->
      let n = 8 in
      let plan =
        Fault_plan.compose ~name:"crash-all-but-p7"
          (List.init 7 (fun pid -> Fault_plan.crash_stop ~pid ~after:0))
      in
      let result, verdict = judge ~construction ~plan ~n in
      Alcotest.(check bool) (construction.Iface.name ^ ": certified") true (certified verdict);
      match stats_of result 7 with
      | [ s ] ->
        Alcotest.(check int) (construction.Iface.name ^ ": survivor sees 0") 0
          (Value.to_int s.Harness.response);
        Alcotest.(check bool) (construction.Iface.name ^ ": within bound") true
          (s.Harness.cost <= construction.Iface.worst_case ~n)
      | _ -> Alcotest.failf "%s: survivor did not finish exactly once" construction.Iface.name)
    certifiable

let test_all_targets_certified_under_crash_stop () =
  (* The acceptance sweep: every certifiable target (including the direct
     retry loop) survives the named crash-stop plan at several sizes. *)
  List.iter
    (fun n ->
      let plan = Option.get (Fault_plan.of_name ~n "crash-stop") in
      List.iter
        (fun (target : Iface.t) ->
          let _, verdict = judge ~construction:target ~plan ~n in
          Alcotest.(check bool)
            (Printf.sprintf "%s n=%d certified under crash-stop" target.Iface.name n)
            true (certified verdict))
        Fault_targets.all)
    [ 4; 8 ]

let test_crash_recovery_reinvokes () =
  (* Crash-recovery: p0 loses its volatile state mid-operation, comes back,
     and re-invokes the operation from scratch with the same descriptor.
     The dedup in the constructions makes this idempotent, so the run stays
     consistent and p0 completes within the relaxed (2x) bound.  The
     restart itself is a degradation. *)
  List.iter
    (fun (construction : Iface.t) ->
      let n = 6 in
      let plan = Fault_plan.crash_recover ~pid:0 ~after:2 ~restart:(6 * n) in
      let result, verdict = judge ~construction ~plan ~n in
      let label = construction.Iface.name in
      Alcotest.(check bool) (label ^ ": certified") true (certified verdict);
      Alcotest.(check bool) (label ^ ": restarted") true (result.Harness.restarts >= 1);
      Alcotest.(check bool) (label ^ ": degraded by the restart") true
        (match verdict with Schedule_fuzz.Degraded _ -> true | _ -> false);
      Alcotest.(check int) (label ^ ": recovered p0 completed") 1
        (List.length (stats_of result 0));
      Alcotest.(check bool) (label ^ ": recovered within relaxed bound") true
        (max_cost result 0 <= 2 * construction.Iface.worst_case ~n);
      Alcotest.(check bool) (label ^ ": consistent") true (linearizable verdict))
    certifiable

(* herlihy claiming a bound of one shared access per operation: every
   completed operation overshoots it. *)
let herlihy_too_cheap = { Herlihy.construction with Iface.worst_case = (fun ~n:_ -> 1) }

let test_survivor_bound_under_crash_stop () =
  (* A crash plan does not switch the cost bound off: the first completed
     operation of a process that was not crash-stopped is judged against
     it, so an understated bound fails the run. *)
  let n = 4 in
  let plan = Option.get (Fault_plan.of_name ~n "crash-stop") in
  let _, verdict = judge ~construction:herlihy_too_cheap ~plan ~n in
  match verdict with
  | Schedule_fuzz.Fail (Schedule_fuzz.Bound_exceeded { pid; bound; cost; _ }) ->
    Alcotest.(check bool) "a survivor overshot" false
      (List.mem pid (Fault_plan.crash_stopped plan));
    Alcotest.(check int) "judged against the stated bound" 1 bound;
    Alcotest.(check bool) "cost over it" true (cost > bound)
  | v -> Alcotest.failf "expected a bound violation, got %a" Schedule_fuzz.pp_verdict v

let test_recovering_pid_within_twice_the_bound () =
  (* A crash-recovering process re-invokes its operation from scratch and
     may spend up to twice the bound: herlihy's p0 overshoots the plain
     bound after its restart yet the run only degrades. *)
  let n = 4 in
  let construction = Herlihy.construction in
  let plan = Option.get (Fault_plan.of_name ~n "crash-recover") in
  let result, verdict = judge ~construction ~plan ~n in
  let bound = construction.Iface.worst_case ~n in
  Alcotest.(check bool) "p0 is over the plain bound" true (max_cost result 0 > bound);
  Alcotest.(check bool) "p0 is within twice the bound" true (max_cost result 0 <= 2 * bound);
  Alcotest.(check int) "allowance" (2 * bound)
    (Schedule_fuzz.cost_bound ~construction ~plan ~n 0);
  Alcotest.(check bool) "degraded, not failed" true
    (match verdict with Schedule_fuzz.Degraded _ -> true | _ -> false)

(* Spurious SC failures injected during [f ()], per pid, read off the
   trace: the memory tap marks each spuriously failed SC. *)
let spurious_by_pid f =
  let tracer = Tracer.ring () in
  let x = Tracer.with_tracer tracer f in
  let pids =
    List.filter_map
      (fun (e : Event.stamped) ->
        match e.Event.event with
        | Event.Shared_access { pid; spurious = true; _ } -> Some pid
        | _ -> None)
      (Tracer.events tracer)
  in
  (x, pids)

let test_spurious_sc_surgical () =
  (* Solo run, direct target: the first would-be-successful SC is failed
     spuriously; the retry loop absorbs it at the cost of one extra LL/SC
     pair.  Deterministic — no rates involved. *)
  let plan = Fault_plan.spurious_sc_at ~pid:0 ~at:[ 1 ] in
  let (result, verdict), injected =
    spurious_by_pid (fun () -> judge ~construction:Direct.fetch_inc ~plan ~n:1)
  in
  Alcotest.(check int) "exactly one injection" 1 (List.length injected);
  Alcotest.(check int) "p0 completed" 1 (List.length (stats_of result 0));
  Alcotest.(check int) "one retry: LL SC LL SC" 4 (max_cost result 0);
  Alcotest.(check bool) "still certified" true (certified verdict);
  Alcotest.(check (list int)) "injection attributed to p0" [ 0 ] injected

let test_spurious_sc_exhausts_retry () =
  (* Rate 1.0: every would-be-successful SC fails, so the bounded retry
     loops exhaust and give up.  The judge reports the give-ups (graceful
     degradation) instead of crashing: degraded, not failed. *)
  let n = 4 in
  let plan = Fault_plan.spurious_sc_rate 1.0 in
  let result, verdict = judge ~construction:Direct.fetch_inc ~plan ~n in
  Alcotest.(check bool) "some operations gave up" true (result.Harness.failures <> []);
  List.iter
    (fun (f : Harness.op_failure) ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool) "failure reason mentions the give-up" true
        (contains f.Harness.reason "attempts exhausted"))
    result.Harness.failures;
  Alcotest.(check bool) "degraded, not violated" true
    (match verdict with Schedule_fuzz.Degraded _ -> true | _ -> false);
  Alcotest.(check bool) "still certified (reported gracefully)" true (certified verdict);
  (* Give-ups still cost shared ops: they count toward t(R). *)
  List.iter
    (fun (f : Harness.op_failure) ->
      Alcotest.(check bool) "give-up cost accounted" true (f.Harness.cost > 0))
    result.Harness.failures

let test_delay_and_stall_windows () =
  (* Bounded adversarial windows (starved process, stalled memory region)
     delay completion but cannot break wait-freedom: once the window
     expires everyone finishes, certified. *)
  List.iter
    (fun plan_name ->
      let n = 4 in
      let plan = Option.get (Fault_plan.of_name ~n plan_name) in
      List.iter
        (fun (target : Iface.t) ->
          let result, verdict = judge ~construction:target ~plan ~n in
          let label = Printf.sprintf "%s under %s" target.Iface.name plan_name in
          Alcotest.(check bool) (label ^ ": certified") true (certified verdict);
          List.iter
            (fun pid ->
              Alcotest.(check int)
                (Printf.sprintf "%s: p%d completed" label pid)
                1
                (List.length (stats_of result pid)))
            (List.init n Fun.id))
        [ Adt_tree.construction; Direct.fetch_inc ])
    [ "delay"; "stall" ]

let test_retry_loop_not_wait_free_under_lockstep () =
  (* Contrast: the direct retry loop is only lock-free.  A starvation
     schedule at n = 2 lets p1's SC land between p0's LL and SC on every
     attempt, so p0 exhausts its 2n + 4 = 8 attempts while p1 completes an
     operation each time — the wait-freedom failure made visible.  The
     harness captures the raise as a structured op_failure (graceful
     degradation) instead of letting it kill the run. *)
  let starve = Scheduler.fixed (List.concat (List.init 8 (fun _ -> [ 0; 1; 1; 0 ]))) in
  let scheduler ~step ~runnable =
    match starve ~step ~runnable with
    | Some pid -> Some pid
    | None -> Scheduler.round_robin ~step ~runnable
  in
  let result =
    Harness.run ~construction:Direct.fetch_inc ~spec:(Counters.fetch_inc ~bits:62) ~n:2
      ~ops:(fun pid -> List.init (if pid = 0 then 1 else 8) (fun _ -> Value.Unit))
      ~scheduler ()
  in
  Alcotest.(check (list (pair int string)))
    "p0 exhausted its retry budget"
    [ (0, "Program.retry_until: 8 attempts exhausted") ]
    (List.map (fun (f : Harness.op_failure) -> (f.Harness.pid, f.Harness.reason))
       result.Harness.failures);
  Alcotest.(check int) "p1 ran 8 ops" 8 (List.length (stats_of result 1));
  (* The other process was not taken down by the failed one. *)
  Alcotest.(check int) "every op accounted for" 9
    (List.length result.Harness.stats + List.length result.Harness.failures)

(* ---- wakeup certification ---- *)

let test_wakeup_graceful_under_crashes () =
  (* An honest wakeup algorithm under crashes: wakeup becomes unattainable,
     and the honest survivors decline to claim it — DEGRADED, no false
     claim. *)
  let n = 6 in
  let entry = Option.get (Corpus.find "naive-collect") in
  let plan = Option.get (Fault_plan.of_name ~n "crash-stop") in
  let r = Faults.run_wakeup ~algorithm:entry.Corpus.name ~make:entry.Corpus.make ~plan ~n () in
  Alcotest.(check bool) "degraded" true (r.Faults.wstatus = Faults.Degraded);
  Alcotest.(check bool) "no false claim" false r.Faults.false_claim;
  Alcotest.(check (list int)) "nobody woke" [] r.Faults.woke

let test_wakeup_cheater_false_claim () =
  (* The blind cheater claims wakeup after a single LL.  Crash another
     process before its first step: the claim is now a concrete condition-
     (3) violation — someone returned 1 while p1 never took a step. *)
  let n = 4 in
  let plan = Fault_plan.crash_stop ~pid:1 ~after:0 in
  let r =
    Faults.run_wakeup ~algorithm:"cheater-blind"
      ~make:(fun ~n -> Cheaters.blind ~n)
      ~plan ~n ()
  in
  Alcotest.(check bool) "violated" true (r.Faults.wstatus = Faults.Violated);
  Alcotest.(check bool) "false claim detected" true r.Faults.false_claim

let test_cheater_plan_duals_are_graceful () =
  (* The dual framing: keep the algorithm honest (naive collect) and move
     each cheater's truncation into the environment as a crash plan.  The
     honest algorithm never produces a false claim under any of them —
     cheating is algorithmic, not environmental. *)
  let n = 6 in
  let entry = Option.get (Corpus.find "naive-collect") in
  List.iter
    (fun plan ->
      let r =
        Faults.run_wakeup ~algorithm:entry.Corpus.name ~make:entry.Corpus.make ~plan ~n ()
      in
      let label = Fault_plan.name plan in
      Alcotest.(check bool) (label ^ ": no false claim") false r.Faults.false_claim;
      Alcotest.(check bool) (label ^ ": not violated") true (r.Faults.wstatus <> Faults.Violated))
    [
      Cheaters.blind_plan ~n;
      Cheaters.fixed_ops_plan ~k:4 ~n;
      Cheaters.lucky_plan ~threshold:2 ~seed:3 ~n;
    ]

let test_plan_grammar () =
  let n = 8 in
  let composed = Option.get (Fault_plan.of_name ~n "crash-stop+spurious-sc") in
  Alcotest.(check bool) "composed has crash" true (Fault_plan.has_crash composed);
  Alcotest.(check bool) "composed has spurious" true (Fault_plan.has_spurious composed);
  Alcotest.(check bool) "unknown plan rejected" true (Fault_plan.of_name ~n "bogus" = None);
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " resolves")
        true
        (Fault_plan.of_name ~n name <> None))
    Fault_plan.plan_names

let suite =
  [
    Alcotest.test_case "survivors complete after crash" `Slow test_survivors_complete;
    Alcotest.test_case "crashed op helped or lost atomically" `Slow
      test_crashed_op_helped_or_lost_atomically;
    Alcotest.test_case "lone survivor of 7 crashes" `Quick test_multiple_crashes;
    Alcotest.test_case "all targets certified under crash-stop" `Quick
      test_all_targets_certified_under_crash_stop;
    Alcotest.test_case "crash-recovery re-invokes idempotently" `Quick
      test_crash_recovery_reinvokes;
    Alcotest.test_case "surgical spurious SC absorbed by one retry" `Quick
      test_spurious_sc_surgical;
    Alcotest.test_case "spurious SC storm degrades gracefully" `Quick
      test_spurious_sc_exhausts_retry;
    Alcotest.test_case "delay and stall windows expire" `Quick test_delay_and_stall_windows;
    Alcotest.test_case "retry loop is not wait-free" `Quick
      test_retry_loop_not_wait_free_under_lockstep;
    Alcotest.test_case "honest wakeup degrades gracefully under crashes" `Quick
      test_wakeup_graceful_under_crashes;
    Alcotest.test_case "cheater under crash is a false claim" `Quick
      test_wakeup_cheater_false_claim;
    Alcotest.test_case "cheater plan duals are graceful" `Quick
      test_cheater_plan_duals_are_graceful;
    Alcotest.test_case "plan grammar" `Quick test_plan_grammar;
    Alcotest.test_case "survivor bound holds under crash-stop" `Quick
      test_survivor_bound_under_crash_stop;
    Alcotest.test_case "recovering pid allowed twice the bound" `Quick
      test_recovering_pid_within_twice_the_bound;
  ]
