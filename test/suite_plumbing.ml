(* Small-surface tests for the plumbing helpers that larger suites use
   indirectly: Op classification, Round accessors, Engine validation,
   Explore run predicates, and the pretty-printers (smoke: they must not
   raise and must mention the key facts). *)

open Lowerbound
open Program.Syntax

(* ---- Op ---- *)

let test_op_kind_and_registers () =
  Alcotest.(check bool) "ll read" true (Op.kind (Op.Ll 3) = Op.Read);
  Alcotest.(check bool) "validate read" true (Op.kind (Op.Validate 3) = Op.Read);
  Alcotest.(check bool) "swap kind" true (Op.kind (Op.Swap (1, Value.Unit)) = Op.Swap_kind);
  Alcotest.(check bool) "sc kind" true (Op.kind (Op.Sc (1, Value.Unit)) = Op.Sc_kind);
  Alcotest.(check bool) "move kind" true (Op.kind (Op.Move (1, 2)) = Op.Move_kind);
  Alcotest.(check (list int)) "move registers" [ 1; 2 ] (Op.registers (Op.Move (1, 2)));
  Alcotest.(check (list int)) "sc registers" [ 4 ] (Op.registers (Op.Sc (4, Value.Unit)));
  Alcotest.(check int) "move target is dst" 2 (Op.target (Op.Move (1, 2)));
  Alcotest.(check int) "ll target" 7 (Op.target (Op.Ll 7))

let test_op_response_accessors () =
  Alcotest.(check bool) "value_of Value" true
    (Value.equal (Op.value_of (Op.Value (Value.Int 3))) (Value.Int 3));
  Alcotest.(check bool) "value_of Flagged" true
    (Value.equal (Op.value_of (Op.Flagged (false, Value.Str "x"))) (Value.Str "x"));
  Alcotest.(check bool) "flag_of" false (Op.flag_of (Op.Flagged (false, Value.Unit)));
  Alcotest.check_raises "value_of Ack" (Invalid_argument "Op.value_of: Ack carries no value")
    (fun () -> ignore (Op.value_of Op.Ack));
  Alcotest.check_raises "flag_of Value" (Invalid_argument "Op.flag_of: response carries no flag")
    (fun () -> ignore (Op.flag_of (Op.Value Value.Unit)))

let test_op_pp () =
  Alcotest.(check string) "pp ll" "LL(R3)" (Format.asprintf "%a" Op.pp_invocation (Op.Ll 3));
  Alcotest.(check string) "pp move" "move(R1, R2)"
    (Format.asprintf "%a" Op.pp_invocation (Op.Move (1, 2)));
  Alcotest.(check string) "pp ack" "ack" (Format.asprintf "%a" Op.pp_response Op.Ack)

(* ---- Round accessors ---- *)

let sample_run () =
  let program_of = function
    | 0 ->
      let* _ = Program.swap 0 (Value.Int 1) in
      Program.return 0
    | 1 ->
      let* _ = Program.swap 0 (Value.Int 2) in
      Program.return 0
    | _ ->
      let* _ = Program.ll 0 in
      let* ok = Program.sc_flag 0 (Value.Int 9) in
      Program.return (if ok then 1 else 0)
  in
  All_run.execute ~n:3 ~program_of ~inits:[ (0, Value.Int 0) ] ~max_rounds:5 ()

let test_round_accessors () =
  let run = sample_run () in
  let r1 = All_run.round run 1 in
  (* Round 1: p2's LL (phase 2) then p0, p1 swaps (phase 4) in id order. *)
  Alcotest.(check (list int)) "swappers in order" [ 0; 1 ] (Round.swappers r1 ~reg:0);
  Alcotest.(check int) "phase 2 count" 1 (List.length (Round.events_in_phase r1 2));
  Alcotest.(check int) "phase 4 count" 2 (List.length (Round.events_in_phase r1 4));
  Alcotest.(check (option int)) "no successful SC round 1" None (Round.successful_sc r1 ~reg:0);
  (* Round 2: p2's SC — it fails because the swaps invalidated its link. *)
  let r2 = All_run.round run 2 in
  Alcotest.(check (option int)) "SC failed" None (Round.successful_sc r2 ~reg:0);
  Alcotest.(check int) "p2 lost" 0 (List.assoc 2 run.All_run.results);
  Alcotest.check_raises "unknown pid" (Invalid_argument "Round.obs: unknown pid 9") (fun () ->
      ignore (Round.obs r1 9))

let test_all_run_round_bounds () =
  let run = sample_run () in
  Alcotest.check_raises "round 0" (Invalid_argument "All_run.round: no round 0") (fun () ->
      ignore (All_run.round run 0));
  Alcotest.check_raises "beyond" (Invalid_argument "All_run.round: no round 99") (fun () ->
      ignore (All_run.round run 99))

(* ---- Explore helpers ---- *)

let test_steppers_before_first_one () =
  let run =
    {
      Explore.events =
        [
          Explore.Stepped (0, Op.Ll 0, Op.Value Value.Unit);
          Explore.Returned (0, 0);
          Explore.Stepped (1, Op.Ll 0, Op.Value Value.Unit);
          Explore.Returned (1, 1);
        ];
      results = [ (0, 0); (1, 1) ];
    }
  in
  (match Explore.steppers_before_first_one run with
  | Some stepped -> Alcotest.(check bool) "both stepped" true (Ids.equal stepped (Ids.of_list [ 0; 1 ]))
  | None -> Alcotest.fail "expected Some");
  let no_one = { Explore.events = [ Explore.Returned (0, 0) ]; results = [ (0, 0) ] } in
  Alcotest.(check bool) "none returned 1" true
    (Explore.steppers_before_first_one no_one = None)

let test_wakeup_ok_cases () =
  let stepped pid = Explore.Stepped (pid, Op.Ll 0, Op.Value Value.Unit) in
  let good =
    {
      Explore.events = [ stepped 0; stepped 1; Explore.Returned (0, 1); Explore.Returned (1, 0) ];
      results = [ (0, 1); (1, 0) ];
    }
  in
  Alcotest.(check bool) "good run" true (Explore.wakeup_ok ~n:2 good);
  let premature =
    {
      Explore.events = [ stepped 0; Explore.Returned (0, 1); stepped 1; Explore.Returned (1, 0) ];
      results = [ (0, 1); (1, 0) ];
    }
  in
  Alcotest.(check bool) "premature 1" false (Explore.wakeup_ok ~n:2 premature);
  let nobody =
    {
      Explore.events = [ stepped 0; stepped 1; Explore.Returned (0, 0); Explore.Returned (1, 0) ];
      results = [ (0, 0); (1, 0) ];
    }
  in
  Alcotest.(check bool) "nobody returned 1" false (Explore.wakeup_ok ~n:2 nobody);
  let bad_value = { good with Explore.results = [ (0, 1); (1, 7) ] } in
  Alcotest.(check bool) "bad return value" false (Explore.wakeup_ok ~n:2 bad_value)

(* ---- pretty-printer smoke ---- *)

let contains = Astring_contains.contains

let test_pp_smoke () =
  let run = sample_run () in
  let round_str = Format.asprintf "%a" Round.pp (All_run.round run 1) in
  Alcotest.(check bool) "round pp mentions swap" true (contains round_str "swap");
  let report = Lowerbound.analyze_entry Corpus.naive ~n:4 ~max_rounds:100 in
  let report_str = Format.asprintf "%a" Lower_bound.pp_report report in
  Alcotest.(check bool) "report mentions winner" true (contains report_str "winner");
  Alcotest.(check bool) "report mentions bound" true (contains report_str "bound met");
  let profile_str =
    let m = Memory.create () in
    Format.asprintf "%a" Profile.pp
      (Profile.of_accesses [ (0, Op.Ll 0, Memory.apply m ~pid:0 (Op.Ll 0)) ])
  in
  Alcotest.(check bool) "profile mentions registers" true (contains profile_str "top registers")

(* ---- Layout.reserve_tail ---- *)

let test_reserve_tail () =
  let l = Layout.create () in
  let a = Layout.alloc l ~init:Value.Unit in
  let base = Layout.reserve_tail l in
  Alcotest.(check int) "tail after allocs" (a + 1) base;
  Alcotest.check_raises "closed" (Invalid_argument "Layout.alloc: layout closed by reserve_tail")
    (fun () -> ignore (Layout.alloc l ~init:Value.Unit))

let suite =
  [
    Alcotest.test_case "op kinds and registers" `Quick test_op_kind_and_registers;
    Alcotest.test_case "op response accessors" `Quick test_op_response_accessors;
    Alcotest.test_case "op pretty-printing" `Quick test_op_pp;
    Alcotest.test_case "round accessors" `Quick test_round_accessors;
    Alcotest.test_case "all-run round bounds" `Quick test_all_run_round_bounds;
    Alcotest.test_case "steppers before first 1" `Quick test_steppers_before_first_one;
    Alcotest.test_case "wakeup_ok cases" `Quick test_wakeup_ok_cases;
    Alcotest.test_case "pretty-printer smoke" `Quick test_pp_smoke;
    Alcotest.test_case "layout reserve_tail" `Quick test_reserve_tail;
  ]
