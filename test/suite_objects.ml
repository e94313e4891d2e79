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

let test_lin_touching_intervals_concurrent () =
  let spec = Counters.fetch_inc ~bits:62 in
  (* The second increment is invoked at the first one's response time:
     the two overlap at that instant, so the second may come first. *)
  let h res =
    [
      e ~pid:0 ~op:Value.Unit ~resp:(Value.Int 1) ~inv:1 ~res;
      e ~pid:1 ~op:Value.Unit ~resp:(Value.Int 0) ~inv:5 ~res:6;
    ]
  in
  Alcotest.(check bool) "touching: either order" true (Linearize.is_linearizable spec (h 5));
  Alcotest.(check bool) "disjoint: real-time order" false (Linearize.is_linearizable spec (h 4))

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

(* ---- the checker against its former self ---- *)

(* The string-keyed checker the bitset/interned-state one replaced: the
   reference for the equality properties below.  Its candidate order is a
   parameter.  [Stutter_first] is the checker's: at each node, completed
   ops that match their response and leave the state equal, then the other
   matching completed ops, then pending ops that change the state (a
   pending op that leaves the state equal is not taken there).
   [Completed_first] is the order the checker had before: matching
   completed ops, then every pending op, each in index order. *)
type order = Stutter_first | Completed_first

module Reference = struct
  open Linearize

  exception Out_of_budget

  (* Wing–Gong DFS over one history.  Returns the witness or None; raises
     [Out_of_budget] when more than [max_states] distinct search nodes were
     expanded.  Memoization is on failure: a (taken-set, abstract-state) pair
     that already failed to extend to a full witness order never will. *)
  let solve ~order ~max_states (spec : Spec.t) (history : History.t) =
    let ops = Array.of_list history in
    let nops = Array.length ops in
    let is_completed i =
      match ops.(i).History.outcome with History.Completed _ -> true | History.Pending -> false
    in
    let response_of i =
      match ops.(i).History.outcome with
      | History.Completed { response; _ } -> Some response
      | History.Pending -> None
    in
    let responded_of i =
      match ops.(i).History.outcome with
      | History.Completed { responded; _ } -> Some responded
      | History.Pending -> None
    in
    let num_completed = ref 0 in
    for i = 0 to nops - 1 do
      if is_completed i then incr num_completed
    done;
    let num_completed = !num_completed in
    let taken = Array.make nops false in
    let memo = Hashtbl.create 1024 in
    let states = ref 0 in
    let memo_hits = ref 0 in
    let key state =
      let b = Buffer.create (nops + 16) in
      for i = 0 to nops - 1 do
        Buffer.add_char b (if taken.(i) then '1' else '0')
      done;
      Buffer.add_char b '|';
      Buffer.add_string b (Value.to_string state);
      Buffer.contents b
    in
    (* An untaken op is enabled when every completed op that responded before
       its invocation has already been linearized (Wing–Gong minimality: the
       candidate is minimal in the real-time precedence order).  Pending ops
       never precede anything — they have no response. *)
    let enabled i =
      let inv = ops.(i).History.invoked in
      let ok = ref true in
      for j = 0 to nops - 1 do
        if !ok && not taken.(j) && j <> i then
          match responded_of j with
          | Some r when r < inv -> ok := false
          | Some _ | None -> ()
      done;
      !ok
    in
    (* The rank of a candidate in the descent order, or None when it is not
       taken at this node. *)
    let rank state i (state', resp) =
      let stutter = Value.to_string state' = Value.to_string state in
      match (response_of i, order) with
      | Some recorded, _ when not (Value.equal recorded resp) -> None
      | Some _, Completed_first -> Some 0
      | None, Completed_first -> Some 1
      | Some _, Stutter_first -> Some (if stutter then 0 else 1)
      | None, Stutter_first -> if stutter then None else Some 2
    in
    let rec search state taken_completed =
      if taken_completed = num_completed then Some []
      else begin
        let k = key state in
        if Hashtbl.mem memo k then begin
          incr memo_hits;
          None
        end
        else begin
          incr states;
          if !states > max_states then raise Out_of_budget;
          let candidates =
            List.filter_map
              (fun i ->
                if taken.(i) || not (enabled i) then None
                else
                  let next = spec.Spec.apply state ops.(i).History.op in
                  Option.map (fun r -> (r, i, next)) (rank state i next))
              (List.init nops Fun.id)
            |> List.stable_sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
          in
          let result = ref None in
          List.iter
            (fun (_, i, (state', resp)) ->
              if !result = None then begin
                let o = ops.(i) in
                let was_pending = not (is_completed i) in
                taken.(i) <- true;
                let taken_completed' = if was_pending then taken_completed else taken_completed + 1 in
                (match search state' taken_completed' with
                | Some rest ->
                  result :=
                    Some
                      ({ pid = o.History.pid; seq = o.History.seq; op = o.History.op;
                         response = resp; was_pending }
                      :: rest)
                | None -> ());
                taken.(i) <- false
              end)
            candidates;
          if !result = None then Hashtbl.add memo k ();
          !result
        end
      end
    in
    let witness = search spec.Spec.init 0 in
    (witness, { states = !states; memo_hits = !memo_hits }, num_completed)

  (* The minimal violating prefix: order the completed responses r_1 < ... <
     r_C; the k-th prefix keeps operations completed by r_k, truncates
     operations invoked before r_k but not yet responded to pending, and drops
     the rest.  A prefix of a linearizable history is linearizable, so the
     first failing k certifies exactly where linearizability was lost. *)
  let prefix_at history r_k =
    List.filter_map
      (fun (o : History.op) ->
        match o.History.outcome with
        | History.Completed { responded; _ } when responded <= r_k -> Some o
        | History.Completed _ | History.Pending ->
          if o.History.invoked < r_k then Some { o with History.outcome = History.Pending }
          else None)
      history

  let bad_prefix ~order ~max_states spec history num_completed =
    let response_times =
      List.filter_map
        (fun (o : History.op) ->
          match o.History.outcome with
          | History.Completed { responded; _ } -> Some responded
          | History.Pending -> None)
        history
      |> List.sort Int.compare
    in
    let rec scan k = function
      | [] -> num_completed
      | r :: rest -> (
        match solve ~order ~max_states spec (prefix_at history r) with
        | None, _, _ -> k
        | Some _, _, _ | (exception Out_of_budget) -> scan (k + 1) rest)
    in
    scan 1 response_times

  let check ?(order = Stutter_first) ?(max_states = 200_000) (spec : Spec.t)
      (history : History.t) =
    match solve ~order ~max_states spec history with
    | Some witness, stats, _ -> Linearizable { witness; stats }
    | None, stats, completed ->
      Not_linearizable
        { stats; completed; bad_prefix = bad_prefix ~order ~max_states spec history completed }
    | exception Out_of_budget ->
      Budget_exhausted { stats = { states = max_states; memo_hits = 0 }; budget = max_states }
end

let find_ot name =
  match Schedule_fuzz.find_type name with
  | Some ot -> ot
  | None -> Alcotest.failf "object type %s missing" name

let find_construction name =
  match Fault_targets.find name with
  | Some c -> c
  | None -> Alcotest.failf "construction %s missing" name

(* The history of one seeded fuzz run: the workload and the sampler are both
   seeded [seed], as in [Schedule_fuzz.check_cell]. *)
let fuzz_history ~construction ~ot ~plan ~n ~ops ~seed =
  let result, _ =
    Schedule_fuzz.execute ~construction ~ot ~plan ~n ~ops ~seed
      ~scheduler:(Schedule_fuzz.sample_scheduler ~seed) ()
  in
  result.Harness.history

(* Give the [k]-th completed op (mod their number) the response of the next
   completed op whose response differs, when there is one. *)
let perturb k (history : History.t) =
  let responses =
    List.filter_map
      (fun (o : History.op) ->
        match o.History.outcome with
        | History.Completed { response; _ } -> Some response
        | History.Pending -> None)
      history
    |> Array.of_list
  in
  let c = Array.length responses in
  if c < 2 then history
  else
    let k = k mod c in
    let other =
      List.find_opt
        (fun j -> not (Value.equal responses.(j) responses.(k)))
        (List.init (c - 1) (fun d -> (k + 1 + d) mod c))
    in
    match other with
    | None -> history
    | Some j ->
      let idx = ref (-1) in
      List.map
        (fun (o : History.op) ->
          match o.History.outcome with
          | History.Completed c ->
            incr idx;
            if !idx = k then
              { o with History.outcome = History.Completed { c with response = responses.(j) } }
            else o
          | History.Pending -> o)
        history

let pp_verdict_full ppf = function
  | Linearize.Linearizable { witness; stats } ->
    Format.fprintf ppf "linearizable states=%d hits=%d witness=[%a]" stats.Linearize.states
      stats.Linearize.memo_hits
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") Linearize.pp_step)
      witness
  | Linearize.Not_linearizable { stats; completed; bad_prefix } ->
    Format.fprintf ppf "violation states=%d hits=%d completed=%d bad_prefix=%d"
      stats.Linearize.states stats.Linearize.memo_hits completed bad_prefix
  | Linearize.Budget_exhausted { stats; budget } ->
    Format.fprintf ppf "budget states=%d hits=%d budget=%d" stats.Linearize.states
      stats.Linearize.memo_hits budget

(* [None] when the checker and the reference agree, else both verdicts. *)
let reference_diff ?max_states spec history =
  let got = Linearize.check ?max_states spec history
  and want = Reference.check ?max_states spec history in
  if got = want then None
  else
    Some
      (Format.asprintf "checker:   %a@.reference: %a" pp_verdict_full got pp_verdict_full want)

type lin_case = {
  construction : string;
  ot : string;
  plan : string;
  n : int;
  ops : int;
  seed : int;
  perturbed : int option;
  max_states : int option;
}

let case_plan c =
  match c.plan with
  | "crash-stop" -> Fault_plan.crash_stop ~pid:0 ~after:(3 + (c.seed mod 17))
  | "crash-recover" -> Fault_plan.crash_recover ~pid:1 ~after:(2 + (c.seed mod 13)) ~restart:4
  | "spurious" -> Fault_plan.spurious_sc_rate 0.3
  | _ -> Fault_plan.none

let case_history c =
  let history =
    fuzz_history ~construction:(find_construction c.construction) ~ot:(find_ot c.ot)
      ~plan:(case_plan c) ~n:c.n ~ops:c.ops ~seed:c.seed
  in
  match c.perturbed with Some k -> perturb k history | None -> history

let print_case c =
  Printf.sprintf "%s/%s plan=%s n=%d ops=%d seed=%d perturbed=%s max_states=%s" c.construction
    c.ot c.plan c.n c.ops c.seed
    (match c.perturbed with Some k -> string_of_int k | None -> "-")
    (match c.max_states with Some m -> string_of_int m | None -> "default")

let gen_case =
  QCheck.Gen.(
    let* construction = oneofl [ "herlihy"; "adt-tree" ] in
    let* ot = oneofl [ "snapshot"; "queue"; "stack"; "fetch-inc"; "fetch-or"; "cas" ] in
    let* plan = oneofl [ "none"; "none"; "crash-stop"; "crash-recover"; "spurious" ] in
    let* n = int_range 2 5 in
    let* ops = int_range 1 4 in
    let* seed = int_range 0 1_000_000 in
    let* perturbed = opt ~ratio:0.5 (int_range 0 100) in
    let+ max_states = opt ~ratio:0.3 (int_range 1 100) in
    { construction; ot; plan; n; ops; seed; perturbed; max_states })

(* Property: the checker returns exactly the reference's verdict — witness
   steps in order, states, memo hits, completed count, violating prefix and
   budget — on fuzzed histories of both constructions and six object types,
   with pending ops and ghosts from crash and spurious-failure plans, one
   response perturbed or not, and state budgets from 1 up. *)
let prop_checker_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"lin: checker = string-keyed reference"
       (QCheck.make ~print:print_case gen_case)
       (fun c ->
         let spec = (find_ot c.ot).Schedule_fuzz.spec_of ~n:c.n in
         match reference_diff ?max_states:c.max_states spec (case_history c) with
         | None -> true
         | Some diff -> QCheck.Test.fail_report diff))

(* The verdict class, completed count and violating prefix, which do not
   depend on the search order; None for an exhausted budget, which does. *)
let order_free = function
  | Linearize.Linearizable _ -> Some `Linearizable
  | Linearize.Not_linearizable { completed; bad_prefix; _ } ->
    Some (`Violation (completed, bad_prefix))
  | Linearize.Budget_exhausted _ -> None

(* Property: the checker and the reference in the order the checker had
   before agree on everything but the search itself, on the histories of
   the property above, wherever neither runs out of budget.  The budget
   stays at its default: under a small one, a prefix search of the
   [bad_prefix] scan may run out in one order and fail in the other, and a
   prefix that runs out is passed over. *)
let prop_order_free_results_match_old_order =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"lin: checker = completed-first reference, but for search"
       (QCheck.make ~print:print_case
          (QCheck.Gen.map (fun c -> { c with max_states = None }) gen_case))
       (fun c ->
         let spec = (find_ot c.ot).Schedule_fuzz.spec_of ~n:c.n in
         let history = case_history c in
         let got = Linearize.check ?max_states:c.max_states spec history
         and want = Reference.check ~order:Completed_first ?max_states:c.max_states spec history in
         match (order_free got, order_free want) with
         | Some g, Some w when g <> w ->
           QCheck.Test.fail_reportf "checker:   %a@.reference: %a" pp_verdict_full got
             pp_verdict_full want
         | Some _, Some _ | None, _ | _, None -> true))

(* [None] when [witness] linearizes [history] under [spec]: every
   completed op is taken once with its recorded response and every
   pending op at most once, replaying the steps through [Spec.apply] gives
   each step's response, and no step comes after an op that responded
   before it was invoked.  Steps name ops by (pid, seq, pending); the
   pending copies of one (pid, seq) (restart ghosts) are alike. *)
let witness_error spec (history : History.t) (witness : Linearize.step list) =
  let recorded (o : History.op) =
    match o.History.outcome with
    | History.Completed { response; responded } -> Some (response, responded)
    | History.Pending -> None
  in
  let same_op (s : Linearize.step) pid seq pending =
    s.Linearize.pid = pid && s.Linearize.seq = seq && s.Linearize.was_pending = pending
  in
  let copies (s : Linearize.step) =
    List.filter
      (fun (o : History.op) ->
        same_op s o.History.pid o.History.seq (Option.is_none (recorded o)))
      history
  in
  let rec replay state before = function
    | [] -> None
    | (s : Linearize.step) :: rest -> (
      let step = Format.asprintf "%a" Linearize.pp_step s in
      match copies s with
      | [] -> Some (step ^ " is no op of the history")
      | o :: _ as cs -> (
        let state', response = spec.Spec.apply state o.History.op in
        (* A completed op that responded before [o] was invoked and comes
           later in the witness. *)
        let late =
          List.find_opt
            (fun p ->
              match recorded p with
              | Some (_, responded) -> responded < o.History.invoked && not (List.memq p before)
              | None -> false)
            history
        in
        let uses =
          List.length
            (List.filter (fun t -> same_op t s.Linearize.pid s.Linearize.seq s.Linearize.was_pending)
               witness)
        in
        if uses > List.length cs then Some (step ^ " taken too often")
        else if not (Value.equal s.Linearize.op o.History.op && Value.equal s.Linearize.response response)
        then Some (Format.asprintf "%s: the spec responds %a" step Value.pp response)
        else
          match (recorded o, late) with
          | Some (r, _), _ when not (Value.equal r response) ->
            Some (step ^ " differs from the recorded response")
          | _, Some p -> Some (Format.asprintf "%a precedes %s in real time" History.pp_op p step)
          | _, None -> replay state' (o :: before) rest))
  in
  let taken (o : History.op) =
    List.exists (fun s -> same_op s o.History.pid o.History.seq false) witness
  in
  match List.find_opt (fun o -> Option.is_some (recorded o) && not (taken o)) history with
  | Some o -> Some (Format.asprintf "%a is missing" History.pp_op o)
  | None -> replay spec.Spec.init [] witness

(* Property: every witness the checker returns is a linearization of its
   history, on the generator of the properties above. *)
let prop_witness_is_linearization =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"lin: witness is a linearization"
       (QCheck.make ~print:print_case gen_case)
       (fun c ->
         let spec = (find_ot c.ot).Schedule_fuzz.spec_of ~n:c.n in
         let history = case_history c in
         match Linearize.check ?max_states:c.max_states spec history with
         | Linearize.Linearizable { witness; _ } -> (
           match witness_error spec history witness with
           | None -> true
           | Some e -> QCheck.Test.fail_report e)
         | Linearize.Not_linearizable _ | Linearize.Budget_exhausted _ -> true))

(* Histories of 63 to 140 ops: the taken set fills one word exactly,
   spills one op into a second word, or spans two and three words.
   With two or three processes, late ops (second word on) respond before
   later ones are invoked, so real-time precedence crosses word bounds. *)
let test_lin_multiword_matches_reference () =
  List.iter
    (fun (ot, n, ops, seed, perturbed, max_states) ->
      let c =
        { construction = "herlihy"; ot; plan = "none"; n; ops; seed; perturbed; max_states }
      in
      let history = case_history c in
      Alcotest.(check int) "history length" (n * ops) (List.length history);
      let spec = (find_ot ot).Schedule_fuzz.spec_of ~n in
      Option.iter
        (Alcotest.failf "%s:@.%s" (print_case c))
        (reference_diff ?max_states spec history))
    [
      ("fetch-inc", 9, 7, 3, None, None);
      ("fetch-inc", 9, 7, 3, Some 40, None);
      ("snapshot", 8, 8, 5, None, None);
      ("snapshot", 8, 8, 5, Some 7, Some 100);
      ("snapshot", 10, 7, 1, None, None);
      ("queue", 10, 7, 2, Some 3, None);
      ("fetch-inc", 16, 4, 4, Some 50, None);
      ("fetch-inc", 2, 35, 6, Some 66, None);
      ("queue", 3, 25, 7, Some 68, None);
      ("stack", 2, 70, 8, Some 130, None);
    ]

(* The summed states and memo hits of the checker over [histories], all
   linearizable. *)
let batch_stats spec histories =
  List.fold_left
    (fun (s, h) -> function
      | Linearize.Linearizable { stats; _ } ->
        (s + stats.Linearize.states, h + stats.Linearize.memo_hits)
      | Linearize.Not_linearizable _ | Linearize.Budget_exhausted _ ->
        Alcotest.fail "every history of the batch is linearizable")
    (0, 0)
    (List.map (Linearize.check spec) histories)

let herlihy_batch ~ot ~n ~count =
  let ot = find_ot ot and construction = find_construction "herlihy" in
  ( ot.Schedule_fuzz.spec_of ~n,
    List.init count (fun k ->
        fuzz_history ~construction ~ot ~plan:Fault_plan.none ~n ~ops:4 ~seed:(1_000_000 + k)) )

(* The deterministic checker gate: the first batch of the fuzz-snapshot-n10
   benchmark workload (herlihy, snapshot, n = 10, ops = 4, workload and
   sampler seeded 1,000,000 to 1,000,019).  The search is pinned node for
   node: 6,739 states and 14,065 memo hits (14,360 and 29,669 when
   completed ops were tried in index order, stutters or not).  Its
   allocation is gated at a tenth of the string-keyed checker's, which
   spent 64,053,380 minor words on this batch (4,460.5 per state). *)
let test_lin_snapshot_batch_gate () =
  let spec, histories = herlihy_batch ~ot:"snapshot" ~n:10 ~count:20 in
  let before = Gc.minor_words () in
  let states, memo_hits = batch_stats spec histories in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "states" 6_739 states;
  Alcotest.(check int) "memo hits" 14_065 memo_hits;
  let per_state = words /. float_of_int states in
  if per_state > 4460.5 /. 10. then
    Alcotest.failf "%.1f minor words per state, over a tenth of the reference's 4460.5" per_state

(* The same pin on a compare-and-swap batch (herlihy, n = 8, ops = 4,
   seeds 1,000,000 to 1,000,049): 1,619 states and 17 memo hits (3,904
   and 2,709 in the completed-first order). *)
let test_lin_cas_batch_gate () =
  let spec, histories = herlihy_batch ~ot:"cas" ~n:8 ~count:50 in
  let states, memo_hits = batch_stats spec histories in
  Alcotest.(check int) "states" 1_619 states;
  Alcotest.(check int) "memo hits" 17 memo_hits

(* A long history, as the hardware backend checks: 8 processes with 256
   fetch&inc operations each, each response 1 to 7 ticks after its
   invocation, so at most 8 operations overlap.  Every node of the search
   is on the witness path, and what a node allocates must not grow with
   the history: the gate is the snapshot gate's 446 words per state,
   counting words allocated straight on the major heap too. *)
let test_lin_long_history_allocation () =
  let spec = Counters.fetch_inc ~bits:62 in
  let n = 8 and per_pid = 256 in
  let st = Random.State.make [| 7 |] in
  let o = Atomic.create spec in
  let h =
    Array.to_list
      (Array.init (n * per_pid) (fun k ->
           let response = Atomic.apply o Value.Unit in
           e ~pid:(k mod n) ~op:Value.Unit ~resp:response ~inv:k
             ~res:(k + 1 + Random.State.int st (n - 1))))
  in
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = allocated () in
  let verdict = Linearize.check spec h in
  let words = allocated () -. before in
  match verdict with
  | Linearize.Linearizable { stats; _ } ->
    Alcotest.(check int) "states" (n * per_pid) stats.Linearize.states;
    let per_state = words /. float_of_int stats.Linearize.states in
    if per_state > 446. then Alcotest.failf "%.1f words allocated per state, over 446" per_state
  | Linearize.Not_linearizable _ | Linearize.Budget_exhausted _ ->
    Alcotest.fail "expected a witness"

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
    Alcotest.test_case "lin: invocation at a response is concurrent" `Quick
      test_lin_touching_intervals_concurrent;
    Alcotest.test_case "lin: duplicate responses rejected" `Quick
      test_lin_duplicate_response_rejected;
    Alcotest.test_case "lin: queue witness" `Quick test_lin_queue_witness;
    Alcotest.test_case "lin: real-time enforced" `Quick test_lin_queue_deq_before_enq_rejected;
    Alcotest.test_case "lin: empty history" `Quick test_lin_empty_history;
    Alcotest.test_case "entry validation" `Quick test_entry_validation;
    prop_atomic_histories_linearizable;
    prop_checker_matches_reference;
    prop_order_free_results_match_old_order;
    prop_witness_is_linearization;
    Alcotest.test_case "lin: multi-word taken sets = reference" `Quick
      test_lin_multiword_matches_reference;
    Alcotest.test_case "lin: snapshot batch states and allocation gate" `Quick
      test_lin_snapshot_batch_gate;
    Alcotest.test_case "lin: cas batch states gate" `Quick test_lin_cas_batch_gate;
    Alcotest.test_case "lin: long history allocation gate" `Quick
      test_lin_long_history_allocation;
  ]
