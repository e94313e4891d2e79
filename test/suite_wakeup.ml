(* Tests for the wakeup problem: specification checking, the Theorem 6.2
   reductions (against the oracle and compiled through both universal
   constructions), the direct and randomized algorithms, and the cheaters. *)

open Lowerbound

(* ---- problem checker ---- *)

let run_entry (entry : Corpus.entry) ~n ?(seed = 0) () =
  let program_of, inits = entry.Corpus.make ~n in
  let assignment = if entry.Corpus.randomized then Coin.uniform ~seed else Coin.constant 0 in
  All_run.execute ~n ~program_of ~assignment ~inits ~max_rounds:4_000 ()

let test_checker_accepts_correct () =
  List.iter
    (fun entry ->
      List.iter
        (fun n ->
          let run = run_entry entry ~n () in
          Alcotest.(check bool)
            (Printf.sprintf "%s n=%d terminating" entry.Corpus.name n)
            true
            (run.All_run.outcome = All_run.Terminating);
          match Problem.check run with
          | [] -> ()
          | issue :: _ ->
            Alcotest.failf "%s n=%d: %a" entry.Corpus.name n Problem.pp_issue issue)
        [ 1; 2; 3; 8 ])
    [ Corpus.naive; Corpus.post_collect; Corpus.move_collect; Corpus.tree_collect;
      Corpus.two_counter; Corpus.backoff_collect; Corpus.log_wakeup ]

let test_checker_flags_nobody () =
  (* An "algorithm" in which everyone returns 0 violates condition 2. *)
  let program_of _pid =
    Program.bind (Program.ll 0) (fun _ -> Program.return 0)
  in
  let run = All_run.execute ~n:3 ~program_of ~max_rounds:10 () in
  match Problem.check run with
  | [ Problem.Nobody_returned_one ] -> ()
  | issues -> Alcotest.failf "expected Nobody_returned_one, got %d issues" (List.length issues)

let test_checker_flags_bad_return () =
  let program_of _pid = Program.return 7 in
  let run = All_run.execute ~n:2 ~program_of ~max_rounds:10 () in
  Alcotest.(check bool) "bad return flagged" true
    (List.exists
       (function Problem.Bad_return (_, 7) -> true | _ -> false)
       (Problem.check run))

(* ---- reductions against the sequential oracle ---- *)

let test_reductions_oracle_all_orders () =
  (* For every reduction and several arrival orders: exactly the last
     arriver returns 1 (single-use recipes) — validates the decision rules
     themselves, independent of any shared-memory machinery. *)
  let orders n = [ List.init n (fun i -> i); List.rev (List.init n (fun i -> i)) ] in
  List.iter
    (fun (red : Reductions.t) ->
      List.iter
        (fun n ->
          List.iter
            (fun order ->
              let oracle = Atomic.create (red.Reductions.spec ~n) in
              let results = Array.make n (-1) in
              List.iter
                (fun pid ->
                  match Reductions.oracle_program red ~n oracle ~pid with
                  | Program.Return v -> results.(pid) <- v
                  | Program.Toss _ | Program.Op _ ->
                    Alcotest.fail "oracle program should not touch shared memory")
                order;
              let winners = Array.to_list results |> List.filter (fun v -> v = 1) in
              let label =
                Printf.sprintf "%s n=%d order=%s" red.Reductions.name n
                  (String.concat "," (List.map string_of_int order))
              in
              Alcotest.(check int) (label ^ ": one winner") 1 (List.length winners);
              (* And the winner is the last arriver. *)
              let last = List.nth order (n - 1) in
              Alcotest.(check int) (label ^ ": last wins") 1 results.(last))
            (orders n))
        [ 1; 2; 3; 5; 9 ])
    Reductions.all

(* ---- reductions compiled through universal constructions ---- *)

let test_reductions_compiled_satisfy_wakeup () =
  List.iter
    (fun construction ->
      List.iter
        (fun (red : Reductions.t) ->
          List.iter
            (fun n ->
              let program_of, inits = Reductions.program red ~construction ~n in
              let run = All_run.execute ~n ~program_of ~inits ~max_rounds:4_000 () in
              let label =
                Printf.sprintf "%s via %s n=%d" red.Reductions.name
                  construction.Iface.name n
              in
              Alcotest.(check bool) (label ^ " terminating") true
                (run.All_run.outcome = All_run.Terminating);
              (match Problem.check run with
              | [] -> ()
              | issue :: _ -> Alcotest.failf "%s: %a" label Problem.pp_issue issue);
              let winners = List.filter (fun (_, v) -> v = 1) run.All_run.results in
              (* Single-use recipes have distinct responses, so exactly one
                 process can observe the winning pattern; read+inc (two
                 uses) legitimately allows several late readers to see n. *)
              if red.Reductions.uses = 1 then
                Alcotest.(check int) (label ^ " one winner") 1 (List.length winners)
              else
                Alcotest.(check bool) (label ^ " some winner") true (winners <> []))
            [ 1; 2; 4; 6 ])
        Reductions.all)
    [ Adt_tree.construction; Herlihy.construction ]

let test_reductions_compiled_under_random_schedule () =
  (* Wakeup correctness is not adversary-specific: run the compiled
     reductions under random schedules via the generic System executor. *)
  List.iter
    (fun (red : Reductions.t) ->
      List.iter
        (fun seed ->
          let n = 5 in
          let program_of, inits =
            Reductions.program red ~construction:Adt_tree.construction ~n
          in
          let memory = Memory.create () in
          List.iter (fun (r, v) -> Memory.set_init memory r v) inits;
          let sys = System.create ~memory ~n program_of in
          let outcome = System.run sys (Scheduler.random ~seed) ~fuel:100_000 in
          let label = Printf.sprintf "%s seed=%d" red.Reductions.name seed in
          Alcotest.(check bool) (label ^ " finished") true (outcome = System.All_terminated);
          let winners =
            Array.to_list (System.results sys) |> List.filter (fun v -> v = Some 1)
          in
          if red.Reductions.uses = 1 then
            Alcotest.(check int) (label ^ " one winner") 1 (List.length winners)
          else Alcotest.(check bool) (label ^ " some winner") true (winners <> []))
        [ 1; 2; 3 ])
    Reductions.all

(* ---- worst-case bounds of the corpus ---- *)

let test_corpus_worst_cases_hold () =
  List.iter
    (fun (entry : Corpus.entry) ->
      match entry.Corpus.worst_case with
      | None -> ()
      | Some bound ->
        List.iter
          (fun n ->
            let run = run_entry entry ~n ~seed:3 () in
            Alcotest.(check bool)
              (Printf.sprintf "%s n=%d: %d <= %d" entry.Corpus.name n
                 run.All_run.max_shared_ops (bound ~n))
              true
              (run.All_run.max_shared_ops <= bound ~n))
          [ 2; 4; 8; 16 ])
    (Corpus.correct_algorithms ())

let test_log_wakeup_is_logarithmic () =
  (* The tight upper bound: the fetch&inc-via-tree wakeup costs at most
     8 log2 n + 9 per process even under the adversary — compare with the
     naive collect's linear growth. *)
  let max_ops entry n =
    let run = run_entry entry ~n () in
    run.All_run.max_shared_ops
  in
  let log_64 = max_ops Corpus.log_wakeup 64 in
  let log_256 = max_ops Corpus.log_wakeup 256 in
  let naive_64 = max_ops Corpus.naive 64 in
  let naive_256 = max_ops Corpus.naive 256 in
  Alcotest.(check bool) "tree sublinear step" true (log_256 - log_64 <= 20);
  Alcotest.(check bool) "naive linear step" true (naive_256 - naive_64 >= 256);
  Alcotest.(check bool) "tree beats naive at 256" true (log_256 < naive_256)

(* ---- randomized algorithms use their coins ---- *)

let test_randomized_actually_tosses () =
  let program_of, inits = Randomized.two_counter ~n:4 in
  let run =
    All_run.execute ~n:4 ~program_of ~assignment:(Coin.uniform ~seed:5) ~inits ~max_rounds:1_000 ()
  in
  let final = List.nth run.All_run.rounds (All_run.num_rounds run - 1) in
  Array.iteri
    (fun pid obs ->
      Alcotest.(check bool) (Printf.sprintf "p%d tossed" pid) true (obs.Round.tosses >= 1))
    final.Round.procs

let test_randomized_correct_across_seeds () =
  List.iter
    (fun seed ->
      let run = run_entry Corpus.two_counter ~n:6 ~seed () in
      match Problem.check run with
      | [] -> ()
      | issue :: _ -> Alcotest.failf "seed %d: %a" seed Problem.pp_issue issue)
    (List.init 15 (fun i -> i))

(* ---- cheaters violate the spec ---- *)

let test_blind_cheater_s_run_violates () =
  (* Directly inspect the violating (S, A)-run produced by the analysis. *)
  let entry = List.hd (Corpus.cheaters ~n_hint:16) in
  let report = Lowerbound.analyze_entry entry ~n:16 ~max_rounds:100 in
  match report.Lower_bound.violation with
  | Some v ->
    Alcotest.(check int) "winner is p0" 0 v.Lower_bound.winner;
    Alcotest.(check int) "15 silent" 15 (Ids.cardinal v.Lower_bound.silent)
  | None -> Alcotest.fail "blind cheater not caught"

let test_cheater_below_log_bound () =
  (* The fixed-k cheater's measured complexity is below the lower bound —
     which is exactly why it cannot be correct. *)
  let entries = Corpus.cheaters ~n_hint:256 in
  let fixed = List.nth entries 1 in
  let report = Lowerbound.analyze_entry fixed ~n:256 ~max_rounds:100 in
  Alcotest.(check bool) "below bound" false report.Lower_bound.bound_met;
  Alcotest.(check bool) "violation found" true (report.Lower_bound.violation <> None)

let suite =
  [
    Alcotest.test_case "checker accepts correct algorithms" `Slow test_checker_accepts_correct;
    Alcotest.test_case "checker flags nobody-returned-one" `Quick test_checker_flags_nobody;
    Alcotest.test_case "checker flags bad returns" `Quick test_checker_flags_bad_return;
    Alcotest.test_case "reductions vs oracle, all orders" `Quick test_reductions_oracle_all_orders;
    Alcotest.test_case "compiled reductions satisfy wakeup" `Slow
      test_reductions_compiled_satisfy_wakeup;
    Alcotest.test_case "compiled reductions under random schedules" `Slow
      test_reductions_compiled_under_random_schedule;
    Alcotest.test_case "corpus worst cases hold" `Slow test_corpus_worst_cases_hold;
    Alcotest.test_case "log-wakeup is logarithmic" `Slow test_log_wakeup_is_logarithmic;
    Alcotest.test_case "randomized algorithms toss" `Quick test_randomized_actually_tosses;
    Alcotest.test_case "randomized correct across seeds" `Slow
      test_randomized_correct_across_seeds;
    Alcotest.test_case "blind cheater S-run violates" `Quick test_blind_cheater_s_run_violates;
    Alcotest.test_case "fixed cheater below bound" `Quick test_cheater_below_log_bound;
  ]
