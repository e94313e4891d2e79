(* Tests for the Section 5 machinery: the Figure-2 adversary, UP sets,
   (S, A)-runs, the indistinguishability lemma, and the Theorem 6.1 engine. *)

open Lowerbound
open Program.Syntax

let ids = Alcotest.testable Ids.pp Ids.equal

(* ---- Round structure of the (All, A)-run ---- *)

(* A process that does LL, then SC, then returns. *)
let ll_sc_program _pid =
  let* v = Program.ll 0 in
  let* ok = Program.sc_flag 0 (Value.Int (Value.to_int v + 1)) in
  Program.return (if ok then 1 else 0)

let test_all_run_phases () =
  let run =
    All_run.execute ~n:3 ~program_of:ll_sc_program ~inits:[ (0, Value.Int 0) ] ~max_rounds:10 ()
  in
  Alcotest.(check bool) "terminating" true (run.All_run.outcome = All_run.Terminating);
  Alcotest.(check int) "two rounds" 2 (All_run.num_rounds run);
  (* Round 1: all three LL (phase 2).  Round 2: all three SC (phase 5),
     only p0 succeeds. *)
  let r1 = All_run.round run 1 and r2 = All_run.round run 2 in
  Alcotest.(check int) "r1 all in phase 2" 3 (List.length (Round.events_in_phase r1 2));
  Alcotest.(check int) "r2 all in phase 5" 3 (List.length (Round.events_in_phase r2 5));
  Alcotest.(check (option int)) "p0's SC wins (id order)" (Some 0)
    (Round.successful_sc r2 ~reg:0);
  (* Results: exactly one process returns 1 here (p0); the others lost. *)
  Alcotest.(check int) "p0 won" 1 (List.assoc 0 run.All_run.results);
  Alcotest.(check int) "p1 lost" 0 (List.assoc 1 run.All_run.results)

let test_all_run_round_limit () =
  let rec spin _pid =
    let* _ = Program.ll 0 in
    spin 0
  in
  let run = All_run.execute ~n:2 ~program_of:(fun p -> spin p) ~max_rounds:7 () in
  Alcotest.(check bool) "round limit" true (run.All_run.outcome = All_run.Round_limit);
  Alcotest.(check int) "7 rounds" 7 (All_run.num_rounds run)

let test_all_run_mixed_phases () =
  (* p0 swaps, p1 moves, p2 LLs: one round, phases ordered read < move <
     swap. *)
  let program_of = function
    | 0 ->
      let* _ = Program.swap 0 (Value.Int 9) in
      Program.return 0
    | 1 ->
      let* () = Program.move ~src:1 ~dst:0 in
      Program.return 0
    | _ ->
      let* _ = Program.ll 0 in
      Program.return 0
  in
  let run =
    All_run.execute ~n:3 ~program_of
      ~inits:[ (0, Value.Int 0); (1, Value.Int 5) ]
      ~max_rounds:5 ()
  in
  let r1 = All_run.round run 1 in
  let phases = List.map (fun e -> e.Round.phase) r1.Round.events in
  Alcotest.(check (list int)) "phase order" [ 2; 3; 4 ] phases;
  (* Move spec captured. *)
  Alcotest.(check (list int)) "move group" [ 1 ] (Move_spec.procs r1.Round.move_spec);
  Alcotest.(check (list int)) "sigma" [ 1 ] r1.Round.sigma;
  (* The swap (phase 4) lands after the move (phase 3): R0 = 9 at end. *)
  match Round.reg_state r1 0 with
  | Some (v, _) -> Alcotest.(check int) "swap last" 9 (Value.to_int v)
  | None -> Alcotest.fail "R0 missing from snapshot"

let test_termination_round () =
  let run =
    All_run.execute ~n:3 ~program_of:ll_sc_program ~inits:[ (0, Value.Int 0) ] ~max_rounds:10 ()
  in
  Alcotest.(check (option int)) "p0 terminates in round 2" (Some 2)
    (All_run.termination_round run ~pid:0);
  Alcotest.(check int) "p0 ops" 2 (All_run.ops_of run ~pid:0)

(* ---- UP sets ---- *)

let test_up_initial () =
  let run = All_run.execute ~n:4 ~program_of:ll_sc_program ~inits:[ (0, Value.Int 0) ] ~max_rounds:10 () in
  let up = Upsets.compute ~n:4 run.All_run.rounds in
  Alcotest.check ids "UP(p2, 0)" (Ids.singleton 2) (Upsets.of_process up ~r:0 ~pid:2);
  Alcotest.check ids "UP(R0, 0)" Ids.empty (Upsets.of_register up ~r:0 ~reg:0)

let test_up_ll_then_sc () =
  (* After round 1 (all LL): UP(p, 1) = {p} (register was empty).  After
     round 2 (all SC, p0 wins): UP(R0, 2) = UP(p0, 1) = {p0}; an
     unsuccessful SC by q joins UP(R0, 2). *)
  let run = All_run.execute ~n:3 ~program_of:ll_sc_program ~inits:[ (0, Value.Int 0) ] ~max_rounds:10 () in
  let up = Upsets.compute ~n:3 run.All_run.rounds in
  Alcotest.check ids "UP(p1, 1)" (Ids.singleton 1) (Upsets.of_process up ~r:1 ~pid:1);
  Alcotest.check ids "UP(R0, 2)" (Ids.singleton 0) (Upsets.of_register up ~r:2 ~reg:0);
  (* p0's successful SC joins UP(R0, 1) = {} — stays {p0}. *)
  Alcotest.check ids "UP(p0, 2)" (Ids.singleton 0) (Upsets.of_process up ~r:2 ~pid:0);
  (* p1's unsuccessful SC joins UP(R0, 2) = {p0}. *)
  Alcotest.check ids "UP(p1, 2)" (Ids.of_list [ 0; 1 ]) (Upsets.of_process up ~r:2 ~pid:1)

let test_up_swap_chain () =
  (* Both processes swap the same register in one round: the second swapper
     learns the first's knowledge (rule: swap immediately after q). *)
  let program_of pid =
    let* old = Program.swap 0 (Value.Int pid) in
    Program.return (Value.to_int old)
  in
  let run = All_run.execute ~n:2 ~program_of ~inits:[ (0, Value.Int 42) ] ~max_rounds:5 () in
  let up = Upsets.compute ~n:2 run.All_run.rounds in
  (* p0 swaps first: learns UP(R0, 0) = {} -> {p0}.  p1 swaps second: learns
     UP(p0, 0) = {p0} -> {p0, p1}.  Register: last swapper p1's knowledge at
     r-1 = {p1}. *)
  Alcotest.check ids "first swapper" (Ids.singleton 0) (Upsets.of_process up ~r:1 ~pid:0);
  Alcotest.check ids "second swapper" (Ids.of_list [ 0; 1 ]) (Upsets.of_process up ~r:1 ~pid:1);
  Alcotest.check ids "register gets last swapper's" (Ids.singleton 1)
    (Upsets.of_register up ~r:1 ~reg:0)

let test_up_move_rule () =
  (* p0 moves R1 -> R0 in round 1; p1 LLs R0 in round 2 and learns the
     source's and the mover's knowledge. *)
  let program_of = function
    | 0 ->
      let* () = Program.move ~src:1 ~dst:0 in
      Program.return 0
    | _ ->
      (* p1 idles one round on a private register, then reads R0. *)
      let* _ = Program.ll 5 in
      let* v = Program.read 0 in
      Program.return (Value.to_int v)
  in
  let run = All_run.execute ~n:2 ~program_of ~inits:[ (1, Value.Int 7) ] ~max_rounds:5 () in
  let up = Upsets.compute ~n:2 run.All_run.rounds in
  (* Round 1: R0 receives a move: UP(R0,1) = UP(R1,0) ∪ UP(p0,0) = {p0};
     the mover itself learns nothing. *)
  Alcotest.check ids "mover learns nothing" (Ids.singleton 0) (Upsets.of_process up ~r:1 ~pid:0);
  Alcotest.check ids "moved-into register" (Ids.singleton 0) (Upsets.of_register up ~r:1 ~reg:0);
  (* Round 2: p1 validates R0 and learns {p0}. *)
  Alcotest.check ids "reader learns mover" (Ids.of_list [ 0; 1 ])
    (Upsets.of_process up ~r:2 ~pid:1)

let test_lemma_5_1_on_corpus () =
  List.iter
    (fun (entry : Corpus.entry) ->
      List.iter
        (fun n ->
          let program_of, inits = entry.Corpus.make ~n in
          let run = All_run.execute ~n ~program_of ~inits ~max_rounds:2_000 () in
          let up = Upsets.compute ~n run.All_run.rounds in
          Alcotest.(check bool)
            (Printf.sprintf "lemma 5.1: %s n=%d" entry.Corpus.name n)
            true (Upsets.lemma_5_1_holds up))
        [ 2; 5; 8 ])
    [ Corpus.naive; Corpus.log_wakeup ]

(* ---- (S, A)-runs and indistinguishability ---- *)

let indist_check_entry (entry : Corpus.entry) ~n ~seed =
  let program_of, inits = entry.Corpus.make ~n in
  let assignment = Coin.uniform ~seed in
  let run = All_run.execute ~n ~program_of ~assignment ~inits ~max_rounds:2_000 () in
  let upsets = Upsets.compute ~n run.All_run.rounds in
  (* Check the lemma for several subsets S: each process's final UP set, and
     the full set. *)
  let subsets =
    Ids.range n
    :: List.init n (fun pid ->
           let r = min (All_run.ops_of run ~pid) (All_run.num_rounds run) in
           Upsets.of_process upsets ~r ~pid)
  in
  List.iter
    (fun s ->
      let s_run = S_run.execute ~n ~program_of ~assignment ~inits ~s ~all_run:run ~upsets () in
      let failures = Indistinguishability.check ~n ~all_run:run ~s_run ~upsets in
      if failures <> [] then
        Alcotest.failf "%s n=%d S=%s: %a" entry.Corpus.name n (Ids.to_string s)
          Indistinguishability.pp_failure (List.hd failures);
      let claim_failures = Claims.check ~n ~all_run:run ~s_run ~upsets in
      if claim_failures <> [] then
        Alcotest.failf "%s n=%d S=%s: %a" entry.Corpus.name n (Ids.to_string s)
          Claims.pp_failure (List.hd claim_failures))
    subsets

let test_indistinguishability_corpus () =
  List.iter
    (fun entry ->
      List.iter (fun n -> indist_check_entry entry ~n ~seed:11) [ 2; 4; 7 ])
    ([ Corpus.naive; Corpus.post_collect; Corpus.move_collect; Corpus.tree_collect;
       Corpus.two_counter; Corpus.backoff_collect; Corpus.log_wakeup ]
    @ Corpus.cheaters ~n_hint:7)

let test_s_run_full_set_equals_all_run () =
  (* With S = everyone, the (S, A)-run replays the (All, A)-run exactly. *)
  let program_of, inits = Corpus.naive.Corpus.make ~n:5 in
  let run = All_run.execute ~n:5 ~program_of ~inits ~max_rounds:1_000 () in
  let upsets = Upsets.compute ~n:5 run.All_run.rounds in
  let s_run =
    S_run.execute ~n:5 ~program_of ~inits ~s:(Ids.range 5) ~all_run:run ~upsets ()
  in
  Alcotest.(check int) "same rounds" (All_run.num_rounds run) (S_run.num_rounds s_run);
  Alcotest.(check bool) "same results" true (s_run.S_run.results = run.All_run.results);
  Alcotest.check ids "everyone stepped" (Ids.range 5) (S_run.steppers s_run)

let test_s_run_restricts_steppers () =
  (* For the blind cheater, S = {winner}: only the winner steps in the
     (S, A)-run. *)
  let program_of, inits = Cheaters.blind ~n:6 in
  let run = All_run.execute ~n:6 ~program_of ~inits ~max_rounds:100 () in
  let upsets = Upsets.compute ~n:6 run.All_run.rounds in
  let s = Upsets.of_process upsets ~r:1 ~pid:0 in
  Alcotest.check ids "S = {p0}" (Ids.singleton 0) s;
  let s_run = S_run.execute ~n:6 ~program_of ~inits ~s ~all_run:run ~upsets () in
  Alcotest.check ids "only p0 stepped" (Ids.singleton 0) (S_run.steppers s_run);
  Alcotest.(check bool) "p0 still returns 1" true
    (List.exists (fun (pid, v) -> pid = 0 && v = 1) s_run.S_run.results)

(* ---- Theorem 6.1 analysis ---- *)

let test_ceil_log4 () =
  List.iter
    (fun (n, expected) ->
      Alcotest.(check int) (Printf.sprintf "ceil_log4 %d" n) expected (Lower_bound.ceil_log4 n))
    [ (1, 0); (2, 1); (4, 1); (5, 2); (16, 2); (17, 3); (64, 3); (65, 4); (256, 4) ]

let test_analyze_correct_algorithms () =
  List.iter
    (fun (entry : Corpus.entry) ->
      List.iter
        (fun n ->
          let report = Lowerbound.analyze_entry entry ~n ~max_rounds:2_000 in
          let label fmt = Printf.sprintf "%s n=%d: %s" entry.Corpus.name n fmt in
          Alcotest.(check bool) (label "terminating") true report.Lower_bound.terminating;
          Alcotest.(check bool) (label "someone returned 1") true
            report.Lower_bound.someone_returned_one;
          Alcotest.(check bool) (label "lemma 5.1") true report.Lower_bound.lemma_5_1;
          Alcotest.(check int) (label "S is everyone") n report.Lower_bound.s_size;
          Alcotest.(check bool) (label "bound met") true report.Lower_bound.bound_met;
          Alcotest.(check int)
            (label "no indist failures")
            0
            (List.length report.Lower_bound.indist_failures);
          Alcotest.(check bool) (label "no violation") true
            (report.Lower_bound.violation = None))
        [ 2; 4; 8; 16 ])
    [ Corpus.naive; Corpus.log_wakeup ]

let test_analyze_catches_cheaters () =
  List.iter
    (fun n ->
      List.iter
        (fun (entry : Corpus.entry) ->
          if not entry.Corpus.randomized then begin
            let report = Lowerbound.analyze_entry entry ~n ~max_rounds:1_000 in
            match report.Lower_bound.violation with
            | Some v ->
              Alcotest.(check bool)
                (Printf.sprintf "%s n=%d: silent nonempty" entry.Corpus.name n)
                false (Ids.is_empty v.Lower_bound.silent)
            | None ->
              Alcotest.failf "%s n=%d: cheater not caught" entry.Corpus.name n
          end)
        (Corpus.cheaters ~n_hint:n))
    [ 32; 64; 256 ]

let test_analyze_lucky_cheater_seeded () =
  (* The randomized cheater is caught on a seed where someone draws outcome
     0 (probability 1 - (3/4)^n over processes). *)
  let entry = List.find (fun e -> e.Corpus.name = "cheater-lucky") (Corpus.cheaters ~n_hint:64) in
  let caught = ref false in
  for seed = 1 to 20 do
    if not !caught then begin
      let report = Lowerbound.analyze_entry_seeded entry ~n:64 ~seed ~max_rounds:1_000 in
      if report.Lower_bound.violation <> None then caught := true
    end
  done;
  Alcotest.(check bool) "caught on some seed" true !caught

let test_estimate_randomized () =
  let e =
    let program_of_factory ~n = Corpus.two_counter.Corpus.make ~n in
    let program_of, inits = program_of_factory ~n:16 in
    Lower_bound.estimate ~n:16 ~program_of ~inits ~seeds:(List.init 10 (fun i -> i))
      ~max_rounds:2_000 ()
  in
  Alcotest.(check int) "all terminated" 10 e.Lower_bound.terminated;
  Alcotest.(check bool) "expected >= c log4 n" true
    (e.Lower_bound.mean_winner_ops >= e.Lower_bound.expected_bound);
  Alcotest.(check bool) "min over seeds >= log4 n" true
    (float_of_int e.Lower_bound.min_winner_ops >= Lower_bound.log4 16)

let test_estimate_partial_termination () =
  (* Lemma 3.1 with c < 1: each process first tosses a coin in {0..3}; on 0
     it spins forever, otherwise it runs the naive collect.  A toss
     assignment yields a terminating (All, A)-run iff no process draws 0,
     so the termination rate estimates (3/4)^n. *)
  let n = 4 in
  let collect, inits = Direct_algorithms.naive_collect ~n in
  let program_of pid =
    let* outcome = Program.toss_bounded 4 in
    if outcome = 0 then
      let rec spin () =
        let* _ = Program.ll 5 in
        spin ()
      in
      spin ()
    else collect pid
  in
  let seeds = List.init 120 (fun i -> i) in
  let e = Lower_bound.estimate ~n ~program_of ~inits ~seeds ~max_rounds:200 () in
  let analytic = (3.0 /. 4.0) ** float_of_int n (* ~ 0.316 *) in
  Alcotest.(check bool) "some runs diverge" true (e.Lower_bound.terminated < 120);
  Alcotest.(check bool) "some runs terminate" true (e.Lower_bound.terminated > 0);
  Alcotest.(check bool) "rate near (3/4)^n" true
    (abs_float (e.Lower_bound.termination_rate -. analytic) < 0.15);
  (* Lemma 3.1: the expected complexity clears the c-scaled floor. *)
  Alcotest.(check bool) "expected >= c log4 n" true
    (e.Lower_bound.mean_winner_ops >= e.Lower_bound.expected_bound)

(* ---- negative tests: the checkers can actually fail ---- *)

let test_indist_checker_detects_divergence () =
  (* Replay the (S, A)-run of a randomized algorithm with a DIFFERENT toss
     assignment: the runs genuinely diverge and the checker must say so. *)
  let n = 4 in
  let program_of, inits = Corpus.two_counter.Corpus.make ~n in
  let run =
    All_run.execute ~n ~program_of ~assignment:(Coin.uniform ~seed:1) ~inits ~max_rounds:500 ()
  in
  let upsets = Upsets.compute ~n run.All_run.rounds in
  let s_run =
    S_run.execute ~n ~program_of
      ~assignment:(Coin.uniform ~seed:999) (* wrong on purpose *)
      ~inits ~s:(Ids.range n) ~all_run:run ~upsets ()
  in
  let failures = Indistinguishability.check ~n ~all_run:run ~s_run ~upsets in
  Alcotest.(check bool) "divergence detected" true (failures <> [])

let test_claims_checker_detects_divergence () =
  let n = 4 in
  let program_of, inits = Corpus.two_counter.Corpus.make ~n in
  let run =
    All_run.execute ~n ~program_of ~assignment:(Coin.uniform ~seed:1) ~inits ~max_rounds:500 ()
  in
  let upsets = Upsets.compute ~n run.All_run.rounds in
  let s_run =
    S_run.execute ~n ~program_of ~assignment:(Coin.uniform ~seed:999) ~inits ~s:(Ids.range n)
      ~all_run:run ~upsets ()
  in
  Alcotest.(check bool) "claims divergence detected" true
    (Claims.check ~n ~all_run:run ~s_run ~upsets <> [])

(* ---- the remaining UP rules, pinned by hand-crafted scenarios ---- *)

let test_up_register_unchanged_rule () =
  (* Register rule 4: no successful SC, no swap, no move into R in round r
     => UP(R, r) = UP(R, r-1). *)
  let program_of = function
    | 0 ->
      (* p0 installs knowledge {p0} into R0 in round 2 via a successful SC,
         then stops. *)
      let* _ = Program.ll 0 in
      let* _ = Program.sc 0 (Value.Int 1) in
      Program.return 0
    | _ ->
      (* p1 keeps LL-ing a different register for a while. *)
      let rec busy k =
        if k = 0 then Program.return 0
        else
          let* _ = Program.ll 7 in
          busy (k - 1)
      in
      busy 6
  in
  let run =
    All_run.execute ~n:2 ~program_of ~inits:[ (0, Value.Int 0); (7, Value.Int 0) ]
      ~max_rounds:10 ()
  in
  let up = Upsets.compute ~n:2 run.All_run.rounds in
  let expected = Ids.singleton 0 in
  (* R0 untouched from round 3 on: its UP set must stay {p0} verbatim. *)
  List.iter
    (fun r ->
      Alcotest.check (Alcotest.testable Ids.pp Ids.equal)
        (Printf.sprintf "UP(R0, %d)" r)
        expected
        (Upsets.of_register up ~r ~reg:0))
    [ 2; 3; 4; 5 ]

let test_up_first_swap_after_move_rule () =
  (* Process rule 4: p's first swap on R in a round where a move lands in R
     joins the source's and the movers' knowledge (p's swap returns what the
     move put there). *)
  let program_of = function
    | 0 ->
      (* p0: LL R5 in round 1 (gains nothing), move R5 -> R3 in round 2. *)
      let* _ = Program.ll 5 in
      let* () = Program.move ~src:5 ~dst:3 in
      Program.return 0
    | _ ->
      (* p1: LL R9 in round 1 (idle), swap on R3 in round 2 — same round as
         the move, and swaps fire after moves. *)
      let* _ = Program.ll 9 in
      let* old = Program.swap 3 (Value.Int 77) in
      Program.return (Value.to_int old)
  in
  let run =
    All_run.execute ~n:2 ~program_of
      ~inits:[ (3, Value.Int 0); (5, Value.Int 42); (9, Value.Int 0) ]
      ~max_rounds:10 ()
  in
  (* p1's swap returned the moved value. *)
  Alcotest.(check int) "swap saw moved value" 42 (List.assoc 1 run.All_run.results);
  let up = Upsets.compute ~n:2 run.All_run.rounds in
  (* After round 2, p1 knows the mover p0. *)
  Alcotest.check (Alcotest.testable Ids.pp Ids.equal) "UP(p1, 2)" (Ids.of_list [ 0; 1 ])
    (Upsets.of_process up ~r:2 ~pid:1)

(* ---- reference checkers: the list-scanning versions of the Lemma 5.2
   check, the appendix claims and the UP-set rules, kept verbatim (over
   Round.obs / event_of / reg_state and List.nth round access).  The
   linear versions must return exactly what these return. ---- *)

module Ref_check = struct
  let reg_state round reg =
    Option.value ~default:(Value.Unit, Ids.empty) (Round.reg_state round reg)

  let event_agrees all_round s_round pid =
    match Round.event_of all_round pid, Round.event_of s_round pid with
    | None, None -> true
    | Some a, Some b ->
      Op.equal_invocation a.Round.invocation b.Round.invocation
      && Op.equal_response a.Round.response b.Round.response
    | Some _, None | None, Some _ -> false

  let indist ~n ~all_run ~s_run ~upsets =
    let failures = ref [] in
    let fail round subject reason =
      failures := { Indistinguishability.round; subject; reason } :: !failures
    in
    let s = s_run.S_run.s in
    let total = min (All_run.num_rounds all_run) (S_run.num_rounds s_run) in
    let in_s up = Ids.subset up s in
    for r = 1 to total do
      let all_round = All_run.round all_run r in
      let s_round = S_run.round s_run r in
      let in_s_pids =
        List.filter (fun pid -> in_s (Upsets.of_process upsets ~r ~pid)) (List.init n (fun i -> i))
      in
      List.iter
        (fun pid ->
          let oa = Round.obs all_round pid and ob = Round.obs s_round pid in
          if oa.Round.tosses <> ob.Round.tosses then
            fail r (`Process pid)
              (Printf.sprintf "numtosses differ: %d (All) vs %d (S)" oa.Round.tosses
                 ob.Round.tosses);
          if oa.Round.ops <> ob.Round.ops then
            fail r (`Process pid)
              (Printf.sprintf "shared-op counts differ: %d (All) vs %d (S)" oa.Round.ops
                 ob.Round.ops);
          (match oa.Round.result, ob.Round.result with
          | Some _, Some _ | None, None -> ()
          | Some _, None -> fail r (`Process pid) "terminated in (All,A)-run but not in (S,A)-run"
          | None, Some _ -> fail r (`Process pid) "terminated in (S,A)-run but not in (All,A)-run");
          if not (event_agrees all_round s_round pid) then
            fail r (`Process pid) "round events (invocation/response) differ")
        in_s_pids;
      let touched =
        List.sort_uniq Int.compare
          (List.map fst all_round.Round.regs @ List.map fst s_round.Round.regs)
      in
      List.iter
        (fun reg ->
          if in_s (Upsets.of_register upsets ~r ~reg) then begin
            let va, pa = reg_state all_round reg and vb, pb = reg_state s_round reg in
            if not (Value.equal va vb) then
              fail r (`Register reg)
                (Printf.sprintf "values differ: %s (All) vs %s (S)" (Value.to_string va)
                   (Value.to_string vb));
            List.iter
              (fun q ->
                if Ids.mem q pa <> Ids.mem q pb then
                  fail r (`Register reg)
                    (Printf.sprintf "Pset membership of p%d differs: %b (All) vs %b (S)" q
                       (Ids.mem q pa) (Ids.mem q pb)))
              in_s_pids
          end)
        touched
    done;
    List.rev !failures

  let claims ~n ~all_run ~s_run ~upsets =
    let failures = ref [] in
    let fail claim round detail = failures := { Claims.claim; round; detail } :: !failures in
    let s = s_run.S_run.s in
    let in_s up = Ids.subset up s in
    let total = min (All_run.num_rounds all_run) (S_run.num_rounds s_run) in
    for r = 1 to total do
      let all_round = All_run.round all_run r in
      let s_round = S_run.round s_run r in
      let up_prev pid = Upsets.of_process upsets ~r:(r - 1) ~pid in
      for pid = 0 to n - 1 do
        if in_s (up_prev pid) then begin
          let ta = (Round.obs all_round pid).Round.tosses
          and ts = (Round.obs s_round pid).Round.tosses in
          if ta <> ts then
            fail "A.1" r (Printf.sprintf "p%d tosses: %d (All) vs %d (S)" pid ta ts)
        end
      done;
      for pid = 0 to n - 1 do
        let ea = Round.event_of all_round pid and es = Round.event_of s_round pid in
        if not (in_s (up_prev pid)) then begin
          match es with
          | Some _ ->
            fail "A.2(1)" r (Printf.sprintf "p%d stepped in (S,A)-run despite UP ⊄ S" pid)
          | None -> ()
        end
        else
          match ea, es with
          | None, Some _ ->
            fail "A.2(2)" r
              (Printf.sprintf "p%d idle in (All,A)-run but stepped in (S,A)-run" pid)
          | Some a, Some b ->
            if not (Op.equal_invocation a.Round.invocation b.Round.invocation) then
              fail "A.2(3)" r
                (Format.asprintf "p%d operations differ: %a vs %a" pid Op.pp_invocation
                   a.Round.invocation Op.pp_invocation b.Round.invocation)
          | (None | Some _), None -> ()
      done;
      let g2 = Move_spec.procs all_round.Round.move_spec in
      List.iter
        (fun p ->
          if not (List.mem p g2) then
            fail "A.3" r (Printf.sprintf "p%d moves in (S,A)-run but not in (All,A)-run" p))
        (Move_spec.procs s_round.Round.move_spec);
      let touched =
        List.sort_uniq Int.compare
          (List.concat_map
             (fun (round : 'a Round.t) ->
               List.concat_map (fun e -> Op.registers e.Round.invocation) round.Round.events)
             [ all_round; s_round ])
      in
      List.iter
        (fun reg ->
          let up_r = Upsets.of_register upsets ~r ~reg in
          let up_r_prev = Upsets.of_register upsets ~r:(r - 1) ~reg in
          (match Round.successful_sc all_round ~reg with
          | Some winner ->
            if not (Ids.subset up_r_prev up_r) then
              fail "A.4" r
                (Format.asprintf "R%d: UP(R, r-1) = %a ⊄ UP(R, r) = %a" reg Ids.pp up_r_prev
                   Ids.pp up_r);
            if in_s up_r then begin
              match Round.successful_sc s_round ~reg with
              | Some winner' when winner' = winner -> ()
              | Some winner' ->
                fail "A.6" r
                  (Printf.sprintf "R%d: winner p%d (All) vs p%d (S)" reg winner winner')
              | None ->
                fail "A.6" r
                  (Printf.sprintf "R%d: p%d's SC succeeds only in (All,A)-run" reg winner)
            end
          | None ->
            if in_s up_r then begin
              match Round.successful_sc s_round ~reg with
              | Some winner ->
                fail "A.9" r
                  (Printf.sprintf "R%d: p%d's SC succeeds only in (S,A)-run" reg winner)
              | None -> ()
            end);
          List.iter
            (fun e ->
              match e.Round.invocation with
              | Op.Sc (reg', _) when reg' = reg ->
                if in_s (Upsets.of_process upsets ~r ~pid:e.Round.pid) && not (in_s up_r) then
                  fail "A.5" r
                    (Format.asprintf "R%d: p%d SCs with UP(p) ⊆ S but UP(R, r) = %a ⊄ S" reg
                       e.Round.pid Ids.pp up_r)
              | _ -> ())
            all_round.Round.events)
        touched
    done;
    List.rev !failures

  (* The UP-set rules, one register scan per affected register. *)
  type layer = { procs : Ids.t array; regs : (int, Ids.t) Hashtbl.t }

  let reg_up layer reg = Option.value ~default:Ids.empty (Hashtbl.find_opt layer.regs reg)

  let step prev (round : 'a Round.t) =
    let sm = Source_movers.eval round.Round.move_spec round.Round.sigma in
    let moved_into reg = Source_movers.movers_len sm reg > 0 in
    let move_knowledge reg =
      let source = Source_movers.source sm reg in
      List.fold_left
        (fun acc q -> Ids.union acc prev.procs.(q))
        (reg_up prev source)
        (Source_movers.movers sm reg)
    in
    let regs = Hashtbl.copy prev.regs in
    let affected =
      List.sort_uniq Int.compare
        (List.concat_map
           (fun e ->
             match e.Round.invocation with Op.Fence -> [] | inv -> [ Op.target inv ])
           round.Round.events)
    in
    List.iter
      (fun reg ->
        match Round.successful_sc round ~reg with
        | Some p -> Hashtbl.replace regs reg prev.procs.(p)
        | None -> (
          match List.rev (Round.swappers round ~reg) with
          | last :: _ -> Hashtbl.replace regs reg prev.procs.(last)
          | [] -> if moved_into reg then Hashtbl.replace regs reg (move_knowledge reg)))
      affected;
    let next = { procs = Array.copy prev.procs; regs } in
    Array.iteri
      (fun p up ->
        match Round.event_of round p with
        | None -> ()
        | Some e ->
          let joined =
            match e.Round.invocation, e.Round.response with
            | (Op.Ll reg | Op.Validate reg), _ -> Ids.union up (reg_up prev reg)
            | Op.Move _, _ -> up
            | Op.Swap (reg, _), _ -> (
              match Round.swappers round ~reg with
              | first :: _ when first = p ->
                if moved_into reg then Ids.union up (move_knowledge reg)
                else Ids.union up (reg_up prev reg)
              | swappers ->
                let rec previous = function
                  | q :: r :: _ when r = p -> q
                  | _ :: rest -> previous rest
                  | [] -> assert false
                in
                Ids.union up prev.procs.(previous swappers))
            | Op.Sc (reg, _), Op.Flagged (true, _) -> Ids.union up (reg_up prev reg)
            | Op.Sc (reg, _), Op.Flagged (false, _) -> Ids.union up (reg_up next reg)
            | Op.Sc _, (Op.Value _ | Op.Ack) -> assert false
            | (Op.Write _ | Op.Fence), _ -> up
          in
          next.procs.(p) <- joined)
      prev.procs;
    next

  let layers ~n rounds =
    let layer0 = { procs = Array.init n Ids.singleton; regs = Hashtbl.create 16 } in
    List.rev
      (List.fold_left (fun acc round -> step (List.hd acc) round :: acc) [ layer0 ] rounds)
end

let equivalence_entries =
  [ Corpus.naive; Corpus.post_collect; Corpus.move_collect; Corpus.tree_collect;
    Corpus.two_counter; Corpus.backoff_collect; Corpus.log_wakeup ]
  @ Corpus.cheaters ~n_hint:16

(* A fault planted in one round of an (S, A)-run. *)
type perturbation =
  | Unperturbed
  | Toss of int * int  (** round, pid: one extra coin toss. *)
  | Reg_value of int * int  (** round, register: a different value. *)
  | Pset_bit of int * int * int  (** round, register, pid: one Pset bit flipped. *)
  | Drop_event of int * int  (** round, event: the event removed. *)
  | Drop_reg of int * int  (** round, register: missing from the snapshot. *)

let pp_perturbation = function
  | Unperturbed -> "unperturbed"
  | Toss (r, p) -> Printf.sprintf "toss(round#%d, pid#%d)" r p
  | Reg_value (r, g) -> Printf.sprintf "value(round#%d, reg#%d)" r g
  | Pset_bit (r, g, q) -> Printf.sprintf "pset(round#%d, reg#%d, pid#%d)" r g q
  | Drop_event (r, e) -> Printf.sprintf "drop(round#%d, event#%d)" r e
  | Drop_reg (r, g) -> Printf.sprintf "drop(round#%d, reg#%d)" r g

(* Selectors are taken modulo the available choices; a round with nothing to
   perturb is left as it is. *)
let perturb ~n (rounds : int Round.t list) perturbation =
  let remake (rd : int Round.t) ?(events = rd.Round.events) ?(procs = rd.Round.procs)
      ?(regs = rd.Round.regs) () =
    Round.make ~index:rd.Round.index ~participants:rd.Round.participants ~events
      ~move_spec:rd.Round.move_spec ~sigma:rd.Round.sigma ~procs ~regs
  in
  let map_nth l k f = List.mapi (fun i x -> if i = k then f x else x) l in
  let at_round r f =
    match rounds with [] -> [] | _ -> map_nth rounds (r mod List.length rounds) f
  in
  let at_reg (rd : int Round.t) g f =
    match rd.Round.regs with
    | [] -> rd
    | regs -> remake rd ~regs:(map_nth regs (g mod List.length regs) f) ()
  in
  match perturbation with
  | Unperturbed -> rounds
  | Toss (r, p) ->
    at_round r (fun rd ->
        let procs = Array.copy rd.Round.procs in
        let obs = procs.(p mod n) in
        procs.(p mod n) <- { obs with Round.tosses = obs.Round.tosses + 1 };
        remake rd ~procs ())
  | Reg_value (r, g) ->
    at_round r (fun rd ->
        at_reg rd g (fun (reg, (v, pset)) -> (reg, (Value.Pair (v, Value.Unit), pset))))
  | Pset_bit (r, g, q) ->
    let q = q mod n in
    at_round r (fun rd ->
        at_reg rd g (fun (reg, (v, pset)) ->
            (reg, (v, if Ids.mem q pset then Ids.remove q pset else Ids.add q pset))))
  | Drop_event (r, e) ->
    at_round r (fun rd ->
        match rd.Round.events with
        | [] -> rd
        | events ->
          let k = e mod List.length events in
          remake rd ~events:(List.filteri (fun i _ -> i <> k) events) ())
  | Drop_reg (r, g) ->
    at_round r (fun rd ->
        match rd.Round.regs with
        | [] -> rd
        | regs ->
          let k = g mod List.length regs in
          remake rd ~regs:(List.filteri (fun i _ -> i <> k) regs) ())

let gen_equivalence_case =
  let open QCheck.Gen in
  let sel = int_bound 1_000 in
  let perturbation =
    oneof
      [
        return Unperturbed;
        map2 (fun r p -> Toss (r, p)) sel sel;
        map2 (fun r g -> Reg_value (r, g)) sel sel;
        map3 (fun r g q -> Pset_bit (r, g, q)) sel sel sel;
        map2 (fun r e -> Drop_event (r, e)) sel sel;
        map2 (fun r g -> Drop_reg (r, g)) sel sel;
      ]
  in
  map
    (fun ((entry, n, seed), (subset, perturbation, on_all)) ->
      (entry, n, seed, subset, perturbation, on_all))
    (pair
       (triple (int_bound (List.length equivalence_entries - 1)) (int_range 2 16) (int_bound 50))
       (triple (int_bound 16) perturbation (frequency [ (4, return false); (1, return true) ])))

let prop_checks_match_reference =
  let print (entry, n, seed, subset, p, on_all) =
    Printf.sprintf "%s n=%d seed=%d subset#%d %s in the %s-run"
      (List.nth equivalence_entries entry).Corpus.name n seed subset (pp_perturbation p)
      (if on_all then "All" else "S")
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"Lemma 5.2 and claim checks = list-scanning reference"
       (QCheck.make ~print gen_equivalence_case)
       (fun (entry, n, seed, subset, perturbation, on_all) ->
         let entry = List.nth equivalence_entries entry in
         let program_of, inits = entry.Corpus.make ~n in
         let assignment = Coin.uniform ~seed in
         let all_run =
           All_run.execute ~n ~program_of ~assignment ~inits ~max_rounds:2_000 ()
         in
         let upsets = Upsets.compute ~n all_run.All_run.rounds in
         (* The subsets E4 uses: everyone, or one process's winner-style
            UP(p, r). *)
         let s =
           if subset = 0 then Ids.range n
           else
             let pid = subset mod n in
             let r = min (All_run.ops_of all_run ~pid) (All_run.num_rounds all_run) in
             Upsets.of_process upsets ~r ~pid
         in
         let s_run =
           S_run.execute ~n ~program_of ~assignment ~inits ~s ~all_run ~upsets ()
         in
         (* Mostly the S-run is perturbed; a perturbed (All, A)-run covers
            registers only the S-run touched. *)
         let all_run, s_run =
           if on_all then
             ( { all_run with All_run.rounds = perturb ~n all_run.All_run.rounds perturbation },
               s_run )
           else (all_run, { s_run with S_run.rounds = perturb ~n s_run.S_run.rounds perturbation })
         in
         Indistinguishability.check ~n ~all_run ~s_run ~upsets
         = Ref_check.indist ~n ~all_run ~s_run ~upsets
         && Claims.check ~n ~all_run ~s_run ~upsets = Ref_check.claims ~n ~all_run ~s_run ~upsets))

(* Every process swaps R0 in round 1: each joins the previous swapper's
   knowledge, a chain no corpus entry builds. *)
let swap_pile =
  {
    Corpus.naive with
    Corpus.name = "swap-pile";
    make =
      (fun ~n:_ ->
        ( (fun pid ->
            let* old = Program.swap 0 (Value.Int pid) in
            let* _ = Program.ll 0 in
            Program.return (Value.to_int old)),
          [ (0, Value.Int (-1)) ] ));
  }

let test_upsets_match_reference () =
  List.iter
    (fun (entry : Corpus.entry) ->
      List.iter
        (fun n ->
          let program_of, inits = entry.Corpus.make ~n in
          let run =
            All_run.execute ~n ~program_of ~assignment:(Coin.uniform ~seed:3) ~inits
              ~max_rounds:2_000 ()
          in
          let up = Upsets.compute ~n run.All_run.rounds in
          let regs =
            List.sort_uniq Int.compare
              (List.concat_map
                 (fun (rd : int Round.t) -> List.map fst rd.Round.regs)
                 run.All_run.rounds)
          in
          List.iteri
            (fun r (layer : Ref_check.layer) ->
              let label what = Printf.sprintf "%s n=%d r=%d %s" entry.Corpus.name n r what in
              Array.iteri
                (fun pid expected ->
                  Alcotest.check ids (label (Printf.sprintf "UP(p%d)" pid)) expected
                    (Upsets.of_process up ~r ~pid))
                layer.Ref_check.procs;
              List.iter
                (fun reg ->
                  Alcotest.check ids (label (Printf.sprintf "UP(R%d)" reg))
                    (Ref_check.reg_up layer reg) (Upsets.of_register up ~r ~reg))
                regs)
            (Ref_check.layers ~n run.All_run.rounds))
        [ 2; 5; 9 ])
    (swap_pile :: equivalence_entries)

(* ---- the round record's invariants ---- *)

let test_round_invariants () =
  (* The merge walk of the Lemma 5.2 check needs strictly ascending
     register snapshots; [obs] and [event_of] need per-pid indexing. *)
  let rec ascending = function
    | (a, _) :: ((b, _) :: _ as rest) -> a < b && ascending rest
    | [ _ ] | [] -> true
  in
  List.iter
    (fun (entry : Corpus.entry) ->
      List.iter
        (fun n ->
          let program_of, inits = entry.Corpus.make ~n in
          let run = All_run.execute ~n ~program_of ~inits ~max_rounds:2_000 () in
          let upsets = Upsets.compute ~n run.All_run.rounds in
          let s = Upsets.of_process upsets ~r:(min 2 (All_run.num_rounds run)) ~pid:0 in
          let s_run = S_run.execute ~n ~program_of ~inits ~s ~all_run:run ~upsets () in
          List.iter
            (fun (rd : int Round.t) ->
              let label what =
                Printf.sprintf "%s n=%d round %d: %s" entry.Corpus.name n rd.Round.index what
              in
              Alcotest.(check bool)
                (label "regs strictly ascending")
                true (ascending rd.Round.regs);
              Alcotest.(check int) (label "one obs per pid") n (Array.length rd.Round.procs);
              let stepped =
                List.filter (fun pid -> Round.event_of rd pid <> None) (List.init n Fun.id)
              in
              Alcotest.(check int)
                (label "one event per stepping pid")
                (List.length rd.Round.events) (List.length stepped);
              List.iter
                (fun (e : Round.event) ->
                  Alcotest.(check bool) (label "event_of finds the event") true
                    (match Round.event_of rd e.Round.pid with Some e' -> e' == e | None -> false))
                rd.Round.events;
              List.iter
                (fun (reg, evs) ->
                  Alcotest.(check (option int)) (label "group winner") (Round.successful_sc rd ~reg)
                    (Round.sc_winner evs);
                  Alcotest.(check (list int)) (label "group swappers") (Round.swappers rd ~reg)
                    (Round.swappers_in evs))
                (Round.by_register rd))
            (run.All_run.rounds @ s_run.S_run.rounds))
        [ 3; 8 ])
    equivalence_entries

(* ---- a deterministic memory gate for the adversary's round records ---- *)

(* [Obj.reachable_words] of the (All, A)-run's rounds for fetch&inc via
   adt-tree at n = 64, as measured (OCaml 5.1, 64-bit) when every round
   stored its processes as an association list and every descriptor set
   re-encoded all of its descriptors. *)
let rounds_words_unshared = 469_323

let test_rounds_memory_gate () =
  let n = 64 in
  let entry = Option.get (Corpus.find "fetch&inc via adt-tree") in
  let program_of, inits = entry.Corpus.make ~n in
  let run = All_run.execute ~n ~program_of ~inits ~max_rounds:40_000 () in
  let words = Obj.reachable_words (Obj.repr run.All_run.rounds) in
  Alcotest.(check bool)
    (Printf.sprintf "%d words, at most half of %d" words rounds_words_unshared)
    true
    (2 * words <= rounds_words_unshared)

(* [Obj.reachable_words] of one Theorem 6.1 analysis's (All, A)-run, UP
   sets and (S, A)-run together, for tree-collect at n = 512 — the first
   analysis of the analyze-lower-bound benchmark workload, whose peak RSS
   is paced by the major GC and so moves with unrelated allocation; this
   is the deterministic measure of what the analysis keeps.  It read
   4,026,713 words (OCaml 5.1.1); the bound is 1.1x that. *)
let analyze_live_words = 4_026_713

let test_analyze_live_words () =
  let n = 512 in
  let program_of, inits = Corpus.tree_collect.Corpus.make ~n in
  let assignment = Coin.constant 0 in
  let all_run = All_run.execute ~n ~program_of ~assignment ~inits ~max_rounds:40_000 () in
  let upsets = Upsets.compute ~n all_run.All_run.rounds in
  (* The winner, as [Lower_bound.analyze] picks it: the first process
     returning 1, by termination round then id. *)
  let winner =
    List.fold_left
      (fun best (pid, result) ->
        if result <> 1 then best
        else
          let round = Option.value ~default:max_int (All_run.termination_round all_run ~pid) in
          match best with
          | Some (_, r) when r <= round -> best
          | Some _ | None -> Some (pid, round))
      None all_run.All_run.results
    |> Option.get |> fst
  in
  let r = min (All_run.ops_of all_run ~pid:winner) (All_run.num_rounds all_run) in
  let s = Upsets.of_process upsets ~r ~pid:winner in
  let s_run = S_run.execute ~n ~program_of ~assignment ~inits ~s ~all_run ~upsets () in
  let words = Obj.reachable_words (Obj.repr (all_run, upsets, s_run)) in
  if float_of_int words > 1.1 *. float_of_int analyze_live_words then
    Alcotest.failf "a tree-collect n=512 analysis holds %d words (bound %.0f)" words
      (1.1 *. float_of_int analyze_live_words)

let suite =
  [
    Alcotest.test_case "all-run phases" `Quick test_all_run_phases;
    Alcotest.test_case "all-run round limit" `Quick test_all_run_round_limit;
    Alcotest.test_case "all-run mixed phases" `Quick test_all_run_mixed_phases;
    Alcotest.test_case "termination round" `Quick test_termination_round;
    Alcotest.test_case "UP initial" `Quick test_up_initial;
    Alcotest.test_case "UP: LL then SC" `Quick test_up_ll_then_sc;
    Alcotest.test_case "UP: swap chain" `Quick test_up_swap_chain;
    Alcotest.test_case "UP: move rule" `Quick test_up_move_rule;
    Alcotest.test_case "Lemma 5.1 on corpus" `Quick test_lemma_5_1_on_corpus;
    Alcotest.test_case "Lemma 5.2 on corpus" `Slow test_indistinguishability_corpus;
    Alcotest.test_case "S-run with S=all replays" `Quick test_s_run_full_set_equals_all_run;
    Alcotest.test_case "S-run restricts steppers" `Quick test_s_run_restricts_steppers;
    Alcotest.test_case "ceil_log4" `Quick test_ceil_log4;
    Alcotest.test_case "Theorem 6.1: correct algorithms" `Slow test_analyze_correct_algorithms;
    Alcotest.test_case "Theorem 6.1: cheaters caught" `Slow test_analyze_catches_cheaters;
    Alcotest.test_case "lucky cheater caught on a seed" `Slow test_analyze_lucky_cheater_seeded;
    Alcotest.test_case "randomized estimate (Lemma 3.1)" `Slow test_estimate_randomized;
    Alcotest.test_case "partial termination (c < 1)" `Slow test_estimate_partial_termination;
    Alcotest.test_case "indist checker detects divergence" `Quick
      test_indist_checker_detects_divergence;
    Alcotest.test_case "claims checker detects divergence" `Quick
      test_claims_checker_detects_divergence;
    Alcotest.test_case "UP rule: register unchanged" `Quick test_up_register_unchanged_rule;
    Alcotest.test_case "UP rule: first swap after move" `Quick
      test_up_first_swap_after_move_rule;
    prop_checks_match_reference;
    Alcotest.test_case "UP sets = per-register-scan reference" `Quick test_upsets_match_reference;
    Alcotest.test_case "round invariants" `Quick test_round_invariants;
    Alcotest.test_case "round records memory gate" `Quick test_rounds_memory_gate;
    Alcotest.test_case "analyze live words (tree-collect n=512)" `Quick test_analyze_live_words;
  ]
