(* Tests for the runtime: coins, the program monad, processes, systems and
   generic schedulers. *)

open Lowerbound
open Program.Syntax

let value = Alcotest.testable Value.pp Value.equal

(* ---- Coin ---- *)

let test_coin_constant () =
  let a = Coin.constant 7 in
  Alcotest.(check int) "constant" 7 (a ~pid:3 ~idx:12)

let test_coin_uniform_deterministic () =
  let a = Coin.uniform ~seed:1 and b = Coin.uniform ~seed:1 in
  for pid = 0 to 5 do
    for idx = 0 to 5 do
      Alcotest.(check int) "replayable" (a ~pid ~idx) (b ~pid ~idx)
    done
  done

let test_coin_uniform_nonneg_and_varied () =
  let a = Coin.uniform ~seed:99 in
  let outcomes = List.init 64 (fun i -> a ~pid:(i mod 8) ~idx:(i / 8)) in
  List.iter (fun o -> Alcotest.(check bool) "non-negative" true (o >= 0)) outcomes;
  let distinct = List.sort_uniq Int.compare outcomes in
  Alcotest.(check bool) "not constant" true (List.length distinct > 32)

let test_coin_bounded () =
  let a = Coin.bounded ~bound:3 (Coin.uniform ~seed:5) in
  for i = 0 to 50 do
    let o = a ~pid:0 ~idx:i in
    Alcotest.(check bool) "in range" true (o >= 0 && o < 3)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Coin.bounded: bound must be positive")
    (fun () ->
      let _ : Coin.assignment = Coin.bounded ~bound:0 (Coin.constant 0) in
      ())

(* ---- Program ---- *)

let run_program ?(assignment = Coin.constant 0) ?(inits = []) program =
  let memory = Memory.create ~default:(Value.Int 0) () in
  List.iter (fun (r, v) -> Memory.set_init memory r v) inits;
  let p = Process.create ~id:0 program in
  let result = Process.run_solo p memory assignment ~fuel:10_000 in
  (result, memory, p)

let test_program_pure () =
  let result, _, p = run_program (Program.return 42) in
  Alcotest.(check int) "pure" 42 result;
  Alcotest.(check int) "no ops" 0 (Process.shared_ops p);
  Alcotest.(check int) "no tosses" 0 (Process.num_tosses p)

let test_program_ll_swap () =
  let program =
    let* v = Program.ll 0 in
    let* old = Program.swap 1 v in
    Program.return (Value.to_int old)
  in
  let result, memory, p = run_program ~inits:[ (0, Value.Int 5); (1, Value.Int 9) ] program in
  Alcotest.(check int) "swap returned old" 9 result;
  Alcotest.check value "swapped in" (Value.Int 5) (Memory.peek memory 1);
  Alcotest.(check int) "two ops" 2 (Process.shared_ops p)

let test_program_sc_validate () =
  let program =
    let* _ = Program.ll 0 in
    let* ok1 = Program.sc_flag 0 (Value.Int 1) in
    let* ok2 = Program.sc_flag 0 (Value.Int 2) in
    let* linked, v = Program.validate 0 in
    Program.return (ok1, ok2, linked, Value.to_int v)
  in
  let (ok1, ok2, linked, v), _, _ = run_program program in
  Alcotest.(check bool) "first SC succeeds" true ok1;
  Alcotest.(check bool) "second SC fails (link consumed)" false ok2;
  Alcotest.(check bool) "not linked" false linked;
  Alcotest.(check int) "value" 1 v

let test_program_read_does_not_link () =
  let program =
    let* _ = Program.read 0 in
    let* ok = Program.sc_flag 0 (Value.Int 1) in
    Program.return ok
  in
  let ok, _, _ = run_program program in
  Alcotest.(check bool) "read is not LL" false ok

let test_program_move () =
  let program =
    let* () = Program.move ~src:0 ~dst:1 in
    Program.read 1
  in
  let result, _, _ = run_program ~inits:[ (0, Value.Str "x") ] program in
  Alcotest.check value "moved" (Value.Str "x") result

let test_program_toss () =
  let program =
    let* a = Program.toss in
    let* b = Program.toss_bounded 10 in
    Program.return (a, b)
  in
  let (a, b), _, p = run_program ~assignment:(Coin.of_fun (fun _ idx -> 100 + idx)) program in
  Alcotest.(check int) "first toss" 100 a;
  Alcotest.(check int) "second toss mod 10" 1 b;
  Alcotest.(check int) "tosses counted" 2 (Process.num_tosses p)

let test_program_iter_fold_map () =
  let program =
    let* () = Program.iter_list (fun r -> Program.move ~src:9 ~dst:r) [ 0; 1; 2 ] in
    let* sum =
      Program.fold_list
        (fun acc r ->
          let* v = Program.read r in
          Program.return (acc + Value.to_int v))
        0 [ 0; 1; 2 ]
    in
    let* values = Program.map_list (fun r -> Program.read r) [ 0; 1 ] in
    Program.return (sum, List.length values)
  in
  let (sum, len), _, _ = run_program ~inits:[ (9, Value.Int 7) ] program in
  Alcotest.(check int) "fold sum" 21 sum;
  Alcotest.(check int) "map length" 2 len

let test_retry_until () =
  (* Succeeds on attempt 3. *)
  let attempts = ref 0 in
  let program =
    Program.retry_until ~max_attempts:5 (fun () ->
        incr attempts;
        let* _ = Program.read 0 in
        Program.return (if !attempts = 3 then Some !attempts else None))
  in
  let result, _, p = run_program program in
  Alcotest.(check int) "result" 3 result;
  Alcotest.(check int) "ops = attempts" 3 (Process.shared_ops p)

let test_retry_exhaustion () =
  let program =
    Program.retry_until ~max_attempts:2 (fun () ->
        let* _ = Program.read 0 in
        Program.return None)
  in
  Alcotest.check_raises "exhausted" (Failure "Program.retry_until: 2 attempts exhausted")
    (fun () -> ignore (run_program program))

let test_pending_op () =
  let program = Program.ll 3 in
  (match Program.pending_op program with
  | Some inv -> Alcotest.(check bool) "LL pending" true (Op.equal_invocation inv (Op.Ll 3))
  | None -> Alcotest.fail "expected pending op");
  Alcotest.(check bool) "toss not pending" true
    (Program.pending_op Program.toss = None);
  Alcotest.(check bool) "return is done" true (Program.is_done (Program.return ()))

(* ---- Process ---- *)

let test_process_history () =
  let program =
    let* _ = Program.ll 0 in
    let* _ = Program.sc 0 (Value.Int 1) in
    Program.return 0
  in
  let _, _, p = run_program program in
  match Process.history p with
  | [ h1; h2 ] ->
    Alcotest.(check bool) "first LL" true (Op.equal_invocation h1.Process.invocation (Op.Ll 0));
    Alcotest.(check bool) "second SC" true
      (Op.equal_invocation h2.Process.invocation (Op.Sc (0, Value.Int 1)))
  | h -> Alcotest.failf "expected 2 history entries, got %d" (List.length h)

let test_process_tosses_recorded () =
  let program =
    let* a = Program.toss in
    let* b = Program.toss in
    Program.return (a + b)
  in
  let memory = Memory.create () in
  let p = Process.create ~id:2 program in
  let assignment = Coin.of_fun (fun pid idx -> (10 * pid) + idx) in
  ignore (Process.run_solo p memory assignment ~fuel:10);
  Alcotest.(check (list int)) "toss outcomes" [ 20; 21 ] (Process.tosses p)

let test_exec_without_pending () =
  let p = Process.create ~id:0 (Program.return 1) in
  Alcotest.(check bool) "terminated" true (Process.is_terminated p);
  Alcotest.check_raises "no pending op"
    (Invalid_argument "Process.exec_op: p0 has no pending operation") (fun () ->
      ignore (Process.exec_op p (Memory.create ()) ~round:1))

let test_run_solo_fuel () =
  (* An infinite LL loop must hit the fuel bound. *)
  let rec spin () =
    let* _ = Program.ll 0 in
    spin ()
  in
  let p = Process.create ~id:0 (spin ()) in
  Alcotest.check_raises "fuel" (Failure "Process.run_solo: p0 did not finish within fuel")
    (fun () -> ignore (Process.run_solo p (Memory.create ()) (Coin.constant 0) ~fuel:5))

(* ---- System + schedulers ---- *)

let incrementer _pid =
  let* v = Program.ll 0 in
  let* ok = Program.sc_flag 0 (Value.Int (Value.to_int v + 1)) in
  Program.return (if ok then 1 else 0)

let test_system_round_robin () =
  let memory = Memory.create ~default:(Value.Int 0) () in
  let sys = System.create ~memory ~n:4 incrementer in
  let outcome = System.run sys Scheduler.round_robin ~fuel:1_000 in
  Alcotest.(check bool) "terminated" true (outcome = System.All_terminated);
  (* Under round-robin all LL first, then all SC: exactly one SC wins. *)
  let winners =
    Array.to_list (System.results sys) |> List.filter (fun r -> r = Some 1) |> List.length
  in
  Alcotest.(check int) "one winner" 1 winners;
  Alcotest.check value "counter" (Value.Int 1) (Memory.peek memory 0)

let test_system_sequential_schedule () =
  (* The fixed scheduler running each process to completion in turn lets every
     SC succeed. *)
  let memory = Memory.create ~default:(Value.Int 0) () in
  let sys = System.create ~memory ~n:3 incrementer in
  let sequence = [ 0; 0; 1; 1; 2; 2 ] in
  let outcome = System.run sys (Scheduler.fixed sequence) ~fuel:100 in
  Alcotest.(check bool) "terminated" true (outcome = System.All_terminated);
  Alcotest.check value "counter 3" (Value.Int 3) (Memory.peek memory 0);
  Array.iter (fun r -> Alcotest.(check (option int)) "all won" (Some 1) r) (System.results sys)

let test_system_stalls () =
  let memory = Memory.create ~default:(Value.Int 0) () in
  let sys = System.create ~memory ~n:2 incrementer in
  let outcome = System.run sys (Scheduler.fixed [ 0 ]) ~fuel:100 in
  Alcotest.(check bool) "stalled" true (outcome = System.Stalled)

let test_system_out_of_fuel () =
  let rec spin _pid =
    let* _ = Program.ll 0 in
    spin 0
  in
  let sys = System.create ~n:2 (fun pid -> spin pid) in
  let outcome = System.run sys Scheduler.round_robin ~fuel:10 in
  Alcotest.(check bool) "out of fuel" true (outcome = System.Out_of_fuel)

let test_run_diagnosed () =
  (* run_diagnosed reports who was scheduled last, per-process op counts
     (the paper's t(p, R)) and who never finished. *)
  let memory = Memory.create ~default:(Value.Int 0) () in
  let sys = System.create ~memory ~n:3 incrementer in
  let d = System.run_diagnosed sys (Scheduler.fixed [ 0; 0; 1; 1 ]) ~fuel:100 in
  Alcotest.(check bool) "stalled" true (d.System.outcome = System.Stalled);
  Alcotest.(check int) "four steps" 4 d.System.steps;
  Alcotest.(check (option int)) "last scheduled" (Some 1) d.System.last_scheduled;
  Alcotest.(check (list (pair int int))) "t(p, R)" [ (0, 2); (1, 2); (2, 0) ]
    d.System.ops_per_process;
  Alcotest.(check (list int)) "p2 unfinished" [ 2 ] d.System.unfinished;
  (* run is run_diagnosed's outcome. *)
  let sys2 = System.create ~memory:(Memory.create ~default:(Value.Int 0) ()) ~n:3 incrementer in
  Alcotest.(check bool) "run agrees" true
    (System.run sys2 (Scheduler.fixed [ 0; 0; 1; 1 ]) ~fuel:100 = System.Stalled)

let test_random_scheduler_deterministic () =
  let run seed =
    let memory = Memory.create ~default:(Value.Int 0) () in
    let sys = System.create ~memory ~n:4 incrementer in
    ignore (System.run sys (Scheduler.random ~seed) ~fuel:1_000);
    Array.to_list (System.results sys)
  in
  Alcotest.(check bool) "same seed same run" true (run 7 = run 7)

let test_result_exn () =
  let sys = System.create ~n:1 (fun _ -> Program.return 9) in
  ignore (System.run sys Scheduler.round_robin ~fuel:10);
  Alcotest.(check int) "result" 9 (System.result_exn sys 0);
  let sys2 = System.create ~n:1 incrementer in
  Alcotest.check_raises "still running" (Invalid_argument "System.result_exn: p0 still running")
    (fun () -> ignore (System.result_exn sys2 0))

(* ---- relaxed memory: flush pseudo-pids and quiescence ---- *)

let test_relaxed_flush_scheduling () =
  let memory = Memory.create ~model:Memory_model.TSO ~default:(Value.Int 0) () in
  let program pid =
    if pid = 0 then
      let* () = Program.write 1 (Value.Int 7) in
      Program.return 0
    else
      let* a = Program.read 1 in
      let* b = Program.read 1 in
      Program.return ((10 * Value.to_int a) + Value.to_int b)
  in
  let sys = System.create ~memory ~n:2 program in
  System.step sys ~pid:0;
  (* p0's buffered write of R1 is flush pseudo-pid n*(1+r)+p = 2*2+0 = 4. *)
  Alcotest.(check (list int)) "flush joins the schedulable set" [ 1; 4 ] (System.runnable sys);
  Alcotest.check value "not yet visible" (Value.Int 0) (Memory.peek memory 1);
  System.step sys ~pid:1;
  Alcotest.(check (list int)) "flush still pending" [ 1; 4 ] (System.runnable sys);
  System.step sys ~pid:4;
  Alcotest.check value "flush applied the write" (Value.Int 7) (Memory.peek memory 1);
  Alcotest.(check (list int)) "only p1 left" [ 1 ] (System.runnable sys);
  System.step sys ~pid:1;
  Alcotest.(check (list int)) "all terminated" [] (System.runnable sys);
  Alcotest.(check int) "p1 read 0 before the flush, 7 after" 7 (System.result_exn sys 1)

let test_relaxed_quiescent_drain () =
  (* When every process has returned, leftover buffers drain on the spot:
     their order is no longer observable, so no scheduling choice remains. *)
  let memory = Memory.create ~model:Memory_model.PSO ~default:(Value.Int 0) () in
  let program _pid =
    let* () = Program.write 0 (Value.Int 1) in
    let* () = Program.write 1 (Value.Int 2) in
    Program.return 0
  in
  let sys = System.create ~memory ~n:1 program in
  System.step sys ~pid:0;
  System.step sys ~pid:0;
  Alcotest.(check (list int)) "quiescent" [] (System.runnable sys);
  Alcotest.check value "R0 drained" (Value.Int 1) (Memory.peek memory 0);
  Alcotest.check value "R1 drained" (Value.Int 2) (Memory.peek memory 1)

let test_sc_never_schedules_flushes () =
  let memory = Memory.create ~default:(Value.Int 0) () in
  let program _pid =
    let* () = Program.write 0 (Value.Int 1) in
    Program.return 0
  in
  let sys = System.create ~memory ~n:2 program in
  Alcotest.(check (list int)) "plain pids only" [ 0; 1 ] (System.runnable sys);
  System.step sys ~pid:0;
  Alcotest.check value "write immediate under SC" (Value.Int 1) (Memory.peek memory 0)

let suite =
  [
    Alcotest.test_case "coin constant" `Quick test_coin_constant;
    Alcotest.test_case "coin uniform deterministic" `Quick test_coin_uniform_deterministic;
    Alcotest.test_case "coin uniform varied" `Quick test_coin_uniform_nonneg_and_varied;
    Alcotest.test_case "coin bounded" `Quick test_coin_bounded;
    Alcotest.test_case "program pure" `Quick test_program_pure;
    Alcotest.test_case "program LL/swap" `Quick test_program_ll_swap;
    Alcotest.test_case "program SC/validate" `Quick test_program_sc_validate;
    Alcotest.test_case "read does not link" `Quick test_program_read_does_not_link;
    Alcotest.test_case "program move" `Quick test_program_move;
    Alcotest.test_case "program toss" `Quick test_program_toss;
    Alcotest.test_case "iter/fold/map combinators" `Quick test_program_iter_fold_map;
    Alcotest.test_case "retry_until" `Quick test_retry_until;
    Alcotest.test_case "retry exhaustion" `Quick test_retry_exhaustion;
    Alcotest.test_case "pending_op introspection" `Quick test_pending_op;
    Alcotest.test_case "process history" `Quick test_process_history;
    Alcotest.test_case "process tosses recorded" `Quick test_process_tosses_recorded;
    Alcotest.test_case "exec without pending raises" `Quick test_exec_without_pending;
    Alcotest.test_case "run_solo fuel" `Quick test_run_solo_fuel;
    Alcotest.test_case "system round robin" `Quick test_system_round_robin;
    Alcotest.test_case "system sequential schedule" `Quick test_system_sequential_schedule;
    Alcotest.test_case "system stalls" `Quick test_system_stalls;
    Alcotest.test_case "system out of fuel" `Quick test_system_out_of_fuel;
    Alcotest.test_case "run diagnostics" `Quick test_run_diagnosed;
    Alcotest.test_case "random scheduler deterministic" `Quick test_random_scheduler_deterministic;
    Alcotest.test_case "result_exn" `Quick test_result_exn;
    Alcotest.test_case "relaxed flush scheduling" `Quick test_relaxed_flush_scheduling;
    Alcotest.test_case "relaxed quiescent drain" `Quick test_relaxed_quiescent_drain;
    Alcotest.test_case "sc never schedules flushes" `Quick test_sc_never_schedules_flushes;
  ]
