(* Tests for the hardware backend (lib/hardware): the Atomic LL/SC
   memory against the simulator's semantics, the ring-buffer recorder,
   the domain-per-process harness, and the bridge into the conformance
   checker.

   The load-bearing properties:
   - Hw_memory.apply and Memory.apply agree response-for-response on any
     single-domain operation sequence (the differential test scripts
     every interesting LL/SC/VL/swap/move interleaving across pids);
   - a solo hardware run of each universal construction reports exactly
     the simulator's per-op shared-access costs — the cross-validation
     of the two worlds;
   - a genuinely concurrent hardware run of each construction produces a
     history the Wing–Gong checker certifies linearizable, with
     fetch&inc responses forming a permutation (the acceptance criterion
     of the hardware backend);
   - the recorder flushes oldest-first and counts wraparound losses;
   - equal wall-clock stamps map to equal history ranks, so the history
     never asserts a real-time precedence that was not observed. *)

open Lowerbound

let spec = Counters.fetch_inc ~bits:62

let construction name =
  match Fault_targets.find name with
  | Some c -> c
  | None -> Alcotest.fail (name ^ " construction missing")

let hw_constructions = [ "adt-tree"; "herlihy"; "direct" ]

(* ---- differential memory semantics ---- *)

(* Replay one invocation on both memories and compare responses. *)
let agree ~sim ~hw ~pid inv ctx =
  let sim_r = Memory.apply sim ~pid inv in
  let hw_r = Hw_memory.apply hw ~pid inv in
  Alcotest.(check bool)
    (Printf.sprintf "%s: p%d %s agrees" ctx pid (Format.asprintf "%a" Op.pp_invocation inv))
    true
    (Op.equal_response sim_r hw_r)

let test_memory_differential () =
  let sim = Memory.create () in
  let hw = Hw_memory.create ~registers:8 ~n:3 () in
  let a = agree ~sim ~hw in
  (* Plain LL/SC success, then SC without a fresh link fails. *)
  a ~pid:0 (Op.Ll 0) "ll";
  a ~pid:0 (Op.Sc (0, Value.Int 1)) "sc succeeds after ll";
  a ~pid:0 (Op.Sc (0, Value.Int 2)) "second sc fails (link consumed)";
  (* An intervening write breaks the link. *)
  a ~pid:1 (Op.Ll 0) "p1 links";
  a ~pid:0 (Op.Ll 0) "p0 links";
  a ~pid:0 (Op.Sc (0, Value.Int 3)) "p0 wins";
  a ~pid:1 (Op.Sc (0, Value.Int 4)) "p1 loses: p0 wrote in between";
  (* Validate: true while linked, false after any write. *)
  a ~pid:2 (Op.Validate 0) "validate without link";
  a ~pid:2 (Op.Ll 0) "p2 links";
  a ~pid:2 (Op.Validate 0) "validate with link";
  a ~pid:0 (Op.Swap (0, Value.Int 9)) "swap returns the old value";
  a ~pid:2 (Op.Validate 0) "validate after swap: link broken";
  a ~pid:2 (Op.Sc (0, Value.Int 5)) "sc after swap fails";
  (* Swap breaks the swapper's own link too. *)
  a ~pid:0 (Op.Ll 1) "p0 links R1";
  a ~pid:0 (Op.Swap (1, Value.Int 7)) "p0 swaps R1";
  a ~pid:0 (Op.Sc (1, Value.Int 8)) "own swap broke the link";
  (* Move copies src to dst and breaks dst links. *)
  a ~pid:1 (Op.Ll 2) "p1 links R2";
  a ~pid:0 (Op.Move (0, 2)) "move R0 -> R2";
  a ~pid:1 (Op.Validate 2) "move broke R2 links";
  a ~pid:1 (Op.Ll 2) "R2 now holds R0's value";
  (* Counts agree per pid. *)
  List.iter
    (fun pid ->
      Alcotest.(check int)
        (Printf.sprintf "p%d access count" pid)
        (Memory.ops_of sim ~pid) (Hw_memory.ops_of hw ~pid))
    [ 0; 1; 2 ]

let test_memory_self_move_raises () =
  let hw = Hw_memory.create ~registers:4 ~n:1 () in
  Alcotest.check_raises "self-move raises like the simulator"
    (Memory.Self_move { pid = 0; reg = 2 })
    (fun () -> ignore (Hw_memory.apply hw ~pid:0 (Op.Move (2, 2))))

let test_memory_capacity_checked () =
  let hw = Hw_memory.create ~registers:4 ~n:1 () in
  match Hw_memory.apply hw ~pid:0 (Op.Ll 4) with
  | _ -> Alcotest.fail "out-of-range register must raise"
  | exception Invalid_argument _ -> ()

(* ---- the recorder ---- *)

let entry_seqs r = List.map (fun (e : Hw_recorder.entry) -> e.seq) (Hw_recorder.entries r)

let record_n r count =
  for seq = 0 to count - 1 do
    Hw_recorder.record r ~seq ~op:Value.unit ~response:(Value.Int seq)
      ~invoked:(float_of_int seq) ~responded:(float_of_int seq +. 0.5) ~cost:seq
  done

let test_recorder_flush_order () =
  let r = Hw_recorder.create ~capacity:8 in
  record_n r 5;
  Alcotest.(check (list int)) "oldest first, recording order" [ 0; 1; 2; 3; 4 ] (entry_seqs r);
  let e = List.nth (Hw_recorder.entries r) 2 in
  Alcotest.(check int) "cost preserved" 2 e.Hw_recorder.cost;
  Alcotest.(check bool) "stamps preserved" true
    (e.Hw_recorder.invoked = 2.0 && e.Hw_recorder.responded = 2.5)

let test_recorder_exact_capacity () =
  let r = Hw_recorder.create ~capacity:4 in
  record_n r 4;
  Alcotest.(check (list int)) "all four in order" [ 0; 1; 2; 3 ] (entry_seqs r)

let test_recorder_full_raises () =
  (* A record past the capacity must raise, not overwrite an older one. *)
  let r = Hw_recorder.create ~capacity:4 in
  record_n r 4;
  (match
     Hw_recorder.record r ~seq:4 ~op:Value.unit ~response:(Value.Int 4) ~invoked:4.0
       ~responded:4.5 ~cost:4
   with
  | () -> Alcotest.fail "a record past the capacity must raise"
  | exception Invalid_argument _ -> ());
  Alcotest.(check (list int)) "the four records are intact" [ 0; 1; 2; 3 ] (entry_seqs r)

(* ---- timestamp ranking ---- *)

let stat ~pid ~seq ~invoked ~responded response =
  {
    Hw_harness.pid;
    seq;
    op = Value.unit;
    response;
    invoked_s = invoked;
    responded_s = responded;
    cost = 1;
  }

let test_equal_stamps_share_rank () =
  (* Two ops with byte-identical windows, plus one strictly later: the
     equal stamps must collapse to equal ranks (fabricating an order
     would assert a precedence never observed), while genuinely distinct
     stamps keep their order. *)
  let h =
    Hw_harness.history_of
      ~stats:
        [
          stat ~pid:0 ~seq:0 ~invoked:1.0 ~responded:2.0 (Value.Int 0);
          stat ~pid:1 ~seq:0 ~invoked:1.0 ~responded:2.0 (Value.Int 1);
          stat ~pid:0 ~seq:1 ~invoked:3.0 ~responded:4.0 (Value.Int 2);
        ]
      ~failures:[]
  in
  let invoked pid seq =
    let op =
      List.find (fun (o : History.op) -> o.pid = pid && o.seq = seq) h
    in
    op.invoked
  in
  let responded pid seq =
    let op =
      List.find (fun (o : History.op) -> o.pid = pid && o.seq = seq) h
    in
    match op.outcome with
    | History.Completed { responded; _ } -> responded
    | History.Pending -> Alcotest.fail "expected a completed op"
  in
  Alcotest.(check int) "equal invocations, equal ranks" (invoked 0 0) (invoked 1 0);
  Alcotest.(check int) "equal responses, equal ranks" (responded 0 0) (responded 1 0);
  Alcotest.(check bool) "later op ranks later" true (invoked 0 1 > responded 0 0);
  (* And the overlap is checker-visible: with both orders possible the
     history linearizes whichever way the responses demand. *)
  Alcotest.(check bool) "overlapping history linearizable" true
    (Linearize.is_linearizable spec h)

let test_failures_become_pending () =
  let h =
    Hw_harness.history_of
      ~stats:[ stat ~pid:0 ~seq:0 ~invoked:1.0 ~responded:2.0 (Value.Int 0) ]
      ~failures:
        [ { Hw_harness.pid = 1; seq = 0; op = Value.unit; reason = "gave up"; invoked_s = 1.5 } ]
  in
  Alcotest.(check int) "two ops" 2 (List.length h);
  Alcotest.(check int) "one pending" 1 (List.length (History.pending h));
  Alcotest.(check bool) "give-up may or may not have taken effect" true
    (Linearize.is_linearizable spec h)

(* ---- solo cross-validation: hardware costs = simulator costs ---- *)

let test_solo_costs_match_simulator () =
  List.iter
    (fun name ->
      let c = construction name in
      let ops _ = List.init 8 (fun _ -> Value.unit) in
      let hw = Hw_harness.run ~construction:c ~spec ~n:1 ~ops () in
      let sim = Harness.run ~construction:c ~spec ~n:1 ~ops () in
      let hw_costs = List.map (fun (s : Hw_harness.op_stat) -> s.cost) hw.Hw_harness.stats in
      let sim_costs = List.map (fun (s : Harness.op_stat) -> s.Harness.cost) sim.Harness.stats in
      Alcotest.(check (list int))
        (name ^ ": solo per-op shared-access costs match the simulator")
        sim_costs hw_costs;
      let hw_responses =
        List.map (fun (s : Hw_harness.op_stat) -> s.response) hw.Hw_harness.stats
      in
      Alcotest.(check (list int))
        (name ^ ": solo responses are the counter sequence")
        [ 0; 1; 2; 3; 4; 5; 6; 7 ]
        (List.map Value.to_int hw_responses))
    hw_constructions

(* ---- concurrent runs: the acceptance criterion ---- *)

let test_concurrent_histories_linearizable () =
  List.iter
    (fun name ->
      let c = construction name in
      let n = 4 and per = 8 in
      let result =
        Hw_harness.run ~construction:c ~spec ~n
          ~ops:(fun _ -> List.init per (fun _ -> Value.unit))
          ~seed:1 ()
      in
      let completed = List.length result.Hw_harness.stats in
      let failed = List.length result.Hw_harness.failures in
      Alcotest.(check int) (name ^ ": every op completed or gave up") (n * per)
        (completed + failed);
      (match Hw_harness.check ~max_states:500_000 ~spec result with
      | Linearize.Linearizable _ -> ()
      | Linearize.Not_linearizable _ ->
        Alcotest.fail (name ^ ": hardware history is not linearizable")
      | Linearize.Budget_exhausted _ ->
        Alcotest.fail (name ^ ": checker budget exhausted at this size"));
      (* The wait-free constructions cannot give up; when nothing gave
         up, fetch&inc responses must be a permutation of 0..N-1. *)
      if failed = 0 then begin
        let responses =
          List.map (fun (s : Hw_harness.op_stat) -> Value.to_int s.response)
            result.Hw_harness.stats
          |> List.sort Int.compare
        in
        Alcotest.(check (list int))
          (name ^ ": responses form a permutation")
          (List.init (n * per) Fun.id) responses
      end;
      if name <> "direct" then
        Alcotest.(check int) (name ^ ": wait-free, nothing gave up") 0 failed)
    hw_constructions

let test_concurrent_costs_within_worst_case () =
  (* The paper's bounds hold per operation on hardware exactly as in the
     simulator: cost accounting is the same counter. *)
  List.iter
    (fun name ->
      let c = construction name in
      let n = 4 in
      let result =
        Hw_harness.run ~construction:c ~spec ~n
          ~ops:(fun _ -> List.init 8 (fun _ -> Value.unit))
          ~seed:1 ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: max cost %d within worst case %d" name
           result.Hw_harness.max_cost (c.Iface.worst_case ~n))
        true
        (result.Hw_harness.max_cost <= c.Iface.worst_case ~n))
    [ "adt-tree"; "herlihy" ]

(* ---- wakeup algorithms on hardware ---- *)

let test_wakeup_on_hardware () =
  List.iter
    (fun name ->
      match Corpus.find name with
      | None -> Alcotest.fail (name ^ " missing from the corpus")
      | Some entry ->
        let w = Hw_harness.run_wakeup ~make:entry.Corpus.make ~n:4 ~seed:1 () in
        Alcotest.(check (list string)) (name ^ ": wakeup conditions hold") []
          w.Hw_harness.issues;
        Alcotest.(check int) (name ^ ": every process decided") 4
          (List.length w.Hw_harness.results))
    [ "naive-collect"; "post-collect"; "move-collect"; "tree-collect"; "two-counter" ]

(* ---- bench rows ---- *)

let test_bench_row_shape () =
  let row =
    Hw_bench.measure ~check:true ~construction:(construction "direct") ~n:2
      ~ops_per_process:8 ~seed:1 ()
  in
  Alcotest.(check string) "row name" "hardware/direct/2" (Hw_bench.row_name row);
  Alcotest.(check int) "accounts for every op" 16
    (row.Hw_bench.completed + row.Hw_bench.failed);
  Alcotest.(check bool) "history checked" true (row.Hw_bench.linearizable <> None);
  (* The payload is Bench_gate-compatible: names + ns_per_run parse back. *)
  let parsed = Bench_gate.benchmarks_of_payload (Hw_bench.payload [ row ]) in
  match parsed with
  | [ (name, ns) ] ->
    Alcotest.(check string) "gate sees the row" "hardware/direct/2" name;
    Alcotest.(check bool) "ns_per_run non-negative" true (ns >= 0.0)
  | _ -> Alcotest.fail "payload must expose exactly one gated benchmark"

let suite =
  [
    Alcotest.test_case "memory: differential semantics vs simulator" `Quick
      test_memory_differential;
    Alcotest.test_case "memory: self-move raises" `Quick test_memory_self_move_raises;
    Alcotest.test_case "memory: register capacity checked" `Quick test_memory_capacity_checked;
    Alcotest.test_case "recorder: flush is oldest-first" `Quick test_recorder_flush_order;
    Alcotest.test_case "recorder: exact capacity drops nothing" `Quick
      test_recorder_exact_capacity;
    Alcotest.test_case "recorder: a record past capacity raises" `Quick
      test_recorder_full_raises;
    Alcotest.test_case "history: equal stamps share a rank" `Quick
      test_equal_stamps_share_rank;
    Alcotest.test_case "history: give-ups become pending ops" `Quick
      test_failures_become_pending;
    Alcotest.test_case "solo run matches simulator costs exactly" `Quick
      test_solo_costs_match_simulator;
    Alcotest.test_case "concurrent histories certified linearizable" `Quick
      test_concurrent_histories_linearizable;
    Alcotest.test_case "concurrent costs within paper worst cases" `Quick
      test_concurrent_costs_within_worst_case;
    Alcotest.test_case "wakeup algorithms run on domains" `Quick test_wakeup_on_hardware;
    Alcotest.test_case "bench rows are Bench_gate-compatible" `Quick test_bench_row_shape;
  ]
