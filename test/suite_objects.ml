(* Tests for the sequential object specifications, the atomic oracle, and
   the linearizability checker. *)

open Lowerbound

let value = Alcotest.testable Value.pp Value.equal

let apply_all spec ops = Spec.run_sequential spec ops

(* ---- counters ---- *)

let test_fetch_inc () =
  let spec = Counters.fetch_inc ~bits:62 in
  let responses, final = apply_all spec [ Value.Unit; Value.Unit; Value.Unit ] in
  Alcotest.(check (list int)) "responses are old values" [ 0; 1; 2 ]
    (List.map Value.to_int responses);
  Alcotest.check value "final" (Value.Int 3) final

let test_fetch_inc_wraps () =
  let spec = Counters.fetch_inc ~bits:2 in
  let responses, final = apply_all spec [ Value.Unit; Value.Unit; Value.Unit; Value.Unit ] in
  Alcotest.(check (list int)) "wraps mod 4" [ 0; 1; 2; 3 ] (List.map Value.to_int responses);
  Alcotest.check value "wrapped to 0" (Value.Int 0) final

let test_fetch_inc_bad_bits () =
  Alcotest.check_raises "bits 63" (Invalid_argument "Counters: bits = 63 outside [1, 62]")
    (fun () -> ignore (Counters.fetch_inc ~bits:63))

let test_fetch_add () =
  let spec = Counters.fetch_add ~bits:8 in
  let responses, final = apply_all spec [ Value.Int 200; Value.Int 100 ] in
  Alcotest.(check (list int)) "old values" [ 0; 200 ] (List.map Value.to_int responses);
  Alcotest.check value "wraps mod 256" (Value.Int 44) final

let test_read_inc () =
  let spec = Counters.read_inc ~bits:62 in
  let responses, final =
    apply_all spec [ Counters.op_read; Counters.op_inc; Counters.op_inc; Counters.op_read ]
  in
  (match responses with
  | [ r1; a1; a2; r2 ] ->
    Alcotest.check value "read 0" (Value.Int 0) r1;
    Alcotest.check value "inc acks" Value.Unit a1;
    Alcotest.check value "inc acks" Value.Unit a2;
    Alcotest.check value "read 2" (Value.Int 2) r2
  | _ -> Alcotest.fail "shape");
  Alcotest.check value "final" (Value.Int 2) final

(* ---- bitwise ---- *)

let test_fetch_and () =
  let spec = Bitwise.fetch_and ~bits:8 in
  let mask = Value.Bits (Bitvec.of_int ~width:8 0b11111110) in
  let responses, final = apply_all spec [ mask; mask ] in
  (match List.map Value.to_bits responses with
  | [ r1; r2 ] ->
    Alcotest.(check bool) "first sees all ones" true (Bitvec.equal r1 (Bitvec.ones 8));
    Alcotest.(check bool) "second sees bit cleared" false (Bitvec.get r2 0)
  | _ -> Alcotest.fail "shape");
  Alcotest.(check bool) "final bit 0 clear" false (Bitvec.get (Value.to_bits final) 0)

let test_fetch_or_int_operand () =
  let spec = Bitwise.fetch_or ~bits:8 in
  let responses, final = apply_all spec [ Value.Int 0b101; Value.Int 0b010 ] in
  Alcotest.(check int) "first old" 0
    (Option.get (Bitvec.to_int_opt (Value.to_bits (List.hd responses))));
  Alcotest.(check int) "final" 0b111 (Option.get (Bitvec.to_int_opt (Value.to_bits final)))

let test_fetch_complement () =
  let spec = Bitwise.fetch_complement ~bits:8 in
  let _, final = apply_all spec [ Value.Int 3; Value.Int 3; Value.Int 5 ] in
  let v = Value.to_bits final in
  Alcotest.(check bool) "bit 3 flipped twice" false (Bitvec.get v 3);
  Alcotest.(check bool) "bit 5 flipped once" true (Bitvec.get v 5)

let test_fetch_multiply () =
  let spec = Bitwise.fetch_multiply ~bits:8 in
  let responses, final = apply_all spec [ Value.Int 2; Value.Int 2; Value.Int 2 ] in
  Alcotest.(check (list int)) "powers of two" [ 1; 2; 4 ]
    (List.map (fun r -> Option.get (Bitvec.to_int_opt (Value.to_bits r))) responses);
  Alcotest.(check int) "final 8" 8 (Option.get (Bitvec.to_int_opt (Value.to_bits final)))

let test_bitwise_width_mismatch () =
  let spec = Bitwise.fetch_and ~bits:8 in
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Bitwise: operand width 9 does not match object width 8") (fun () ->
      ignore (spec.Spec.apply spec.Spec.init (Value.Bits (Bitvec.ones 9))))

(* ---- containers ---- *)

let test_queue_fifo () =
  let spec = Containers.queue in
  let responses, final =
    apply_all spec
      [
        Containers.op_enq (Value.Int 1);
        Containers.op_enq (Value.Int 2);
        Containers.op_deq;
        Containers.op_deq;
        Containers.op_deq;
      ]
  in
  (match responses with
  | [ _; _; d1; d2; d3 ] ->
    Alcotest.check value "fifo 1" (Value.Int 1) d1;
    Alcotest.check value "fifo 2" (Value.Int 2) d2;
    Alcotest.check value "empty" (Value.Str "empty") d3
  | _ -> Alcotest.fail "shape");
  Alcotest.check value "final empty" (Value.List []) final

let test_stack_lifo () =
  let spec = Containers.stack in
  let responses, _ =
    apply_all spec
      [
        Containers.op_push (Value.Int 1);
        Containers.op_push (Value.Int 2);
        Containers.op_pop;
        Containers.op_pop;
        Containers.op_pop;
      ]
  in
  match responses with
  | [ _; _; p1; p2; p3 ] ->
    Alcotest.check value "lifo 2" (Value.Int 2) p1;
    Alcotest.check value "lifo 1" (Value.Int 1) p2;
    Alcotest.check value "empty" (Value.Str "empty") p3
  | _ -> Alcotest.fail "shape"

let test_preloaded_containers () =
  let q = Containers.queue_with_items 3 in
  let responses, _ = apply_all q [ Containers.op_deq; Containers.op_deq; Containers.op_deq ] in
  Alcotest.(check (list int)) "queue order 1..3" [ 1; 2; 3 ] (List.map Value.to_int responses);
  let s = Containers.stack_with_items 3 in
  let responses, _ = apply_all s [ Containers.op_pop; Containers.op_pop; Containers.op_pop ] in
  Alcotest.(check (list int)) "stack pops 1..3 (n at bottom)" [ 1; 2; 3 ]
    (List.map Value.to_int responses)

(* ---- misc types ---- *)

let test_swap_object () =
  let spec = Misc_types.swap_object ~init:(Value.Int 0) in
  let responses, final = apply_all spec [ Value.Int 5; Value.Int 9 ] in
  Alcotest.(check (list int)) "old values" [ 0; 5 ] (List.map Value.to_int responses);
  Alcotest.check value "final" (Value.Int 9) final

let test_test_and_set () =
  let spec = Misc_types.test_and_set in
  let responses, _ =
    apply_all spec [ Misc_types.op_test_set; Misc_types.op_test_set; Misc_types.op_reset ]
  in
  match responses with
  | [ r1; r2; r3 ] ->
    Alcotest.check value "first sees false" (Value.Bool false) r1;
    Alcotest.check value "second sees true" (Value.Bool true) r2;
    Alcotest.check value "reset acks" Value.Unit r3
  | _ -> Alcotest.fail "shape"

let test_compare_and_swap_spec () =
  let spec = Misc_types.compare_and_swap ~init:(Value.Int 0) in
  let responses, final =
    apply_all spec
      [
        Misc_types.op_cas ~expected:(Value.Int 0) ~new_:(Value.Int 1);
        Misc_types.op_cas ~expected:(Value.Int 0) ~new_:(Value.Int 2);
        Misc_types.op_cas ~expected:(Value.Int 1) ~new_:(Value.Int 3);
      ]
  in
  (match responses with
  | [ r1; r2; r3 ] ->
    Alcotest.check value "first wins" (Value.pair (Value.bool true) (Value.Int 0)) r1;
    Alcotest.check value "second fails" (Value.pair (Value.bool false) (Value.Int 1)) r2;
    Alcotest.check value "third wins" (Value.pair (Value.bool true) (Value.Int 1)) r3
  | _ -> Alcotest.fail "shape");
  Alcotest.check value "final" (Value.Int 3) final

let test_consensus () =
  let spec = Misc_types.consensus in
  let responses, _ =
    apply_all spec [ Misc_types.op_propose (Value.Int 5); Misc_types.op_propose (Value.Int 9) ]
  in
  Alcotest.(check (list int)) "first proposal decides" [ 5; 5 ] (List.map Value.to_int responses)

let test_snapshot () =
  let spec = Misc_types.snapshot ~n:3 in
  let responses, final =
    apply_all spec
      [
        Misc_types.op_scan;
        Misc_types.op_update ~segment:1 (Value.Str "x");
        Misc_types.op_scan;
        Misc_types.op_update ~segment:0 (Value.Int 7);
        Misc_types.op_scan;
      ]
  in
  (match responses with
  | [ s1; u1; s2; _; s3 ] ->
    Alcotest.check value "initial scan" (Value.List [ Value.Unit; Value.Unit; Value.Unit ]) s1;
    Alcotest.check value "update acks" Value.Unit u1;
    Alcotest.check value "scan sees update" (Value.List [ Value.Unit; Value.Str "x"; Value.Unit ]) s2;
    Alcotest.check value "scan sees both" (Value.List [ Value.Int 7; Value.Str "x"; Value.Unit ]) s3
  | _ -> Alcotest.fail "shape");
  Alcotest.check value "final state" (Value.List [ Value.Int 7; Value.Str "x"; Value.Unit ]) final;
  Alcotest.check_raises "segment range" (Invalid_argument "snapshot: segment 3 out of range")
    (fun () -> ignore (spec.Spec.apply spec.Spec.init (Misc_types.op_update ~segment:3 Value.Unit)))

(* ---- atomic ---- *)

let test_atomic () =
  let o = Atomic.create (Counters.fetch_inc ~bits:62) in
  Alcotest.check value "first" (Value.Int 0) (Atomic.apply o Value.Unit);
  Alcotest.check value "second" (Value.Int 1) (Atomic.apply o Value.Unit);
  Alcotest.(check int) "applied" 2 (Atomic.applied o);
  Alcotest.check value "state" (Value.Int 2) (Atomic.state o)

(* ---- linearizability checker ---- *)

let e ~pid ~op ~resp ~inv ~res =
  History.completed_op ~pid ~seq:0 ~op ~response:resp ~invoked:inv ~responded:res

let test_lin_sequential_ok () =
  let spec = Counters.fetch_inc ~bits:62 in
  let h =
    [
      e ~pid:0 ~op:Value.Unit ~resp:(Value.Int 0) ~inv:1 ~res:2;
      e ~pid:1 ~op:Value.Unit ~resp:(Value.Int 1) ~inv:3 ~res:4;
    ]
  in
  Alcotest.(check bool) "sequential ok" true (Linearize.is_linearizable spec h)

let test_lin_sequential_wrong_order () =
  let spec = Counters.fetch_inc ~bits:62 in
  let h =
    [
      (* The later operation claims the earlier response: impossible. *)
      e ~pid:0 ~op:Value.Unit ~resp:(Value.Int 1) ~inv:1 ~res:2;
      e ~pid:1 ~op:Value.Unit ~resp:(Value.Int 0) ~inv:3 ~res:4;
    ]
  in
  Alcotest.(check bool) "rejected" false (Linearize.is_linearizable spec h)

let test_lin_concurrent_either_order () =
  let spec = Counters.fetch_inc ~bits:62 in
  (* Two overlapping increments: responses 1 then 0 are fine because they
     were concurrent. *)
  let h =
    [
      e ~pid:0 ~op:Value.Unit ~resp:(Value.Int 1) ~inv:1 ~res:10;
      e ~pid:1 ~op:Value.Unit ~resp:(Value.Int 0) ~inv:2 ~res:9;
    ]
  in
  Alcotest.(check bool) "concurrent reorder ok" true (Linearize.is_linearizable spec h)

let test_lin_duplicate_response_rejected () =
  let spec = Counters.fetch_inc ~bits:62 in
  let h =
    [
      e ~pid:0 ~op:Value.Unit ~resp:(Value.Int 0) ~inv:1 ~res:10;
      e ~pid:1 ~op:Value.Unit ~resp:(Value.Int 0) ~inv:2 ~res:9;
    ]
  in
  Alcotest.(check bool) "duplicate responses rejected" false (Linearize.is_linearizable spec h)

let test_lin_queue_witness () =
  let spec = Containers.queue in
  let h =
    [
      e ~pid:0 ~op:(Containers.op_enq (Value.Int 7)) ~resp:Value.Unit ~inv:1 ~res:4;
      e ~pid:1 ~op:Containers.op_deq ~resp:(Value.Int 7) ~inv:2 ~res:5;
    ]
  in
  match Linearize.check spec h with
  | Linearize.Linearizable { witness = [ first; second ]; _ } ->
    Alcotest.(check int) "enq first" 0 first.Linearize.pid;
    Alcotest.(check int) "deq second" 1 second.Linearize.pid
  | _ -> Alcotest.fail "expected a 2-entry witness"

let test_lin_queue_deq_before_enq_rejected () =
  let spec = Containers.queue in
  let h =
    [
      (* Dequeue strictly precedes the enqueue in real time but returns its
         value. *)
      e ~pid:1 ~op:Containers.op_deq ~resp:(Value.Int 7) ~inv:1 ~res:2;
      e ~pid:0 ~op:(Containers.op_enq (Value.Int 7)) ~resp:Value.Unit ~inv:3 ~res:4;
    ]
  in
  Alcotest.(check bool) "real-time order enforced" false (Linearize.is_linearizable spec h)

let test_lin_empty_history () =
  Alcotest.(check bool) "empty ok" true
    (Linearize.is_linearizable (Counters.fetch_inc ~bits:62) [])

let test_entry_validation () =
  Alcotest.check_raises "responded < invoked"
    (Invalid_argument "History.completed_op: responded before invoked") (fun () ->
      ignore (e ~pid:0 ~op:Value.Unit ~resp:Value.Unit ~inv:5 ~res:4))

(* Property: histories generated by the atomic oracle under random
   interleavings of invocation order are always linearizable. *)
let prop_atomic_histories_linearizable =
  let open QCheck in
  let arb = make ~print:string_of_int Gen.int in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"atomic oracle histories linearizable" arb (fun seed ->
         let st = Random.State.make [| seed |] in
         let spec = Counters.fetch_inc ~bits:62 in
         let o = Atomic.create spec in
         let clock = ref 0 in
         let entries =
           List.init 6 (fun pid ->
               incr clock;
               let invoked = !clock in
               let response = Atomic.apply o Value.Unit in
               (* Random extra delay before the response is visible. *)
               clock := !clock + 1 + Random.State.int st 3;
               e ~pid ~op:Value.Unit ~resp:response ~inv:invoked ~res:!clock)
         in
         Linearize.is_linearizable spec entries))

let suite =
  [
    Alcotest.test_case "fetch&inc" `Quick test_fetch_inc;
    Alcotest.test_case "fetch&inc wraps" `Quick test_fetch_inc_wraps;
    Alcotest.test_case "fetch&inc bad bits" `Quick test_fetch_inc_bad_bits;
    Alcotest.test_case "fetch&add" `Quick test_fetch_add;
    Alcotest.test_case "read+inc" `Quick test_read_inc;
    Alcotest.test_case "fetch&and" `Quick test_fetch_and;
    Alcotest.test_case "fetch&or int operand" `Quick test_fetch_or_int_operand;
    Alcotest.test_case "fetch&complement" `Quick test_fetch_complement;
    Alcotest.test_case "fetch&multiply" `Quick test_fetch_multiply;
    Alcotest.test_case "bitwise width mismatch" `Quick test_bitwise_width_mismatch;
    Alcotest.test_case "queue FIFO" `Quick test_queue_fifo;
    Alcotest.test_case "stack LIFO" `Quick test_stack_lifo;
    Alcotest.test_case "preloaded containers" `Quick test_preloaded_containers;
    Alcotest.test_case "swap object" `Quick test_swap_object;
    Alcotest.test_case "test&set" `Quick test_test_and_set;
    Alcotest.test_case "compare&swap spec" `Quick test_compare_and_swap_spec;
    Alcotest.test_case "consensus" `Quick test_consensus;
    Alcotest.test_case "snapshot" `Quick test_snapshot;
    Alcotest.test_case "atomic oracle" `Quick test_atomic;
    Alcotest.test_case "lin: sequential ok" `Quick test_lin_sequential_ok;
    Alcotest.test_case "lin: wrong order rejected" `Quick test_lin_sequential_wrong_order;
    Alcotest.test_case "lin: concurrent reorder ok" `Quick test_lin_concurrent_either_order;
    Alcotest.test_case "lin: duplicate responses rejected" `Quick
      test_lin_duplicate_response_rejected;
    Alcotest.test_case "lin: queue witness" `Quick test_lin_queue_witness;
    Alcotest.test_case "lin: real-time enforced" `Quick test_lin_queue_deq_before_enq_rejected;
    Alcotest.test_case "lin: empty history" `Quick test_lin_empty_history;
    Alcotest.test_case "entry validation" `Quick test_entry_validation;
    prop_atomic_histories_linearizable;
  ]
