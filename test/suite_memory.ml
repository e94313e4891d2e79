(* Tests for the shared-memory semantics of Section 3: LL, SC, validate,
   swap, move over registers with (value, Pset) state. *)

open Lowerbound

let value = Alcotest.testable Value.pp Value.equal
let response = Alcotest.testable Op.pp_response Op.equal_response

let test_initial_default () =
  let m = Memory.create () in
  Alcotest.check value "unset register" Value.Unit (Memory.peek m 7);
  let m = Memory.create ~default:(Value.Int 0) () in
  Alcotest.check value "custom default" (Value.Int 0) (Memory.peek m 7)

let test_set_init () =
  let m = Memory.create () in
  Memory.set_init m 3 (Value.Int 9);
  Alcotest.check value "init value" (Value.Int 9) (Memory.peek m 3);
  Alcotest.(check int) "init does not count" 0 (Memory.total_ops m)

let test_ll_returns_and_links () =
  let m = Memory.create () in
  Memory.set_init m 0 (Value.Int 5);
  Alcotest.check response "LL returns value" (Op.Value (Value.Int 5))
    (Memory.apply m ~pid:2 (Op.Ll 0));
  Alcotest.(check bool) "linked" true (Ids.mem 2 (Memory.pset m 0));
  Alcotest.(check bool) "others not linked" false (Ids.mem 1 (Memory.pset m 0))

let test_sc_success () =
  let m = Memory.create () in
  Memory.set_init m 0 (Value.Int 5);
  ignore (Memory.apply m ~pid:1 (Op.Ll 0));
  Alcotest.check response "SC succeeds with old value" (Op.Flagged (true, Value.Int 5))
    (Memory.apply m ~pid:1 (Op.Sc (0, Value.Int 6)));
  Alcotest.check value "value updated" (Value.Int 6) (Memory.peek m 0);
  Alcotest.(check bool) "pset cleared" true (Ids.is_empty (Memory.pset m 0))

let test_sc_without_ll_fails () =
  let m = Memory.create () in
  Memory.set_init m 0 (Value.Int 5);
  Alcotest.check response "SC fails" (Op.Flagged (false, Value.Int 5))
    (Memory.apply m ~pid:1 (Op.Sc (0, Value.Int 6)));
  Alcotest.check value "value unchanged" (Value.Int 5) (Memory.peek m 0)

let test_sc_invalidated_by_other_sc () =
  let m = Memory.create () in
  Memory.set_init m 0 (Value.Int 5);
  ignore (Memory.apply m ~pid:1 (Op.Ll 0));
  ignore (Memory.apply m ~pid:2 (Op.Ll 0));
  ignore (Memory.apply m ~pid:1 (Op.Sc (0, Value.Int 6)));
  (* p2's link died with p1's successful SC; the failed SC returns the
     *current* value (the paper's strengthened response). *)
  Alcotest.check response "p2 SC fails with current value" (Op.Flagged (false, Value.Int 6))
    (Memory.apply m ~pid:2 (Op.Sc (0, Value.Int 7)));
  Alcotest.check value "p1's write stands" (Value.Int 6) (Memory.peek m 0)

let test_validate () =
  let m = Memory.create () in
  Memory.set_init m 0 (Value.Int 5);
  Alcotest.check response "validate without link" (Op.Flagged (false, Value.Int 5))
    (Memory.apply m ~pid:1 (Op.Validate 0));
  ignore (Memory.apply m ~pid:1 (Op.Ll 0));
  Alcotest.check response "validate with link" (Op.Flagged (true, Value.Int 5))
    (Memory.apply m ~pid:1 (Op.Validate 0));
  (* validate does not disturb the link: SC still succeeds. *)
  Alcotest.check response "SC after validate" (Op.Flagged (true, Value.Int 5))
    (Memory.apply m ~pid:1 (Op.Sc (0, Value.Int 6)))

let test_swap () =
  let m = Memory.create () in
  Memory.set_init m 0 (Value.Int 5);
  ignore (Memory.apply m ~pid:1 (Op.Ll 0));
  Alcotest.check response "swap returns old" (Op.Value (Value.Int 5))
    (Memory.apply m ~pid:2 (Op.Swap (0, Value.Int 9)));
  Alcotest.check value "swapped" (Value.Int 9) (Memory.peek m 0);
  (* Swap kills links: p1's SC must now fail. *)
  Alcotest.check response "SC after swap fails" (Op.Flagged (false, Value.Int 9))
    (Memory.apply m ~pid:1 (Op.Sc (0, Value.Int 6)))

let test_move () =
  let m = Memory.create () in
  Memory.set_init m 0 (Value.Int 5);
  Memory.set_init m 1 (Value.Int 7);
  ignore (Memory.apply m ~pid:3 (Op.Ll 1));
  ignore (Memory.apply m ~pid:3 (Op.Ll 0));
  Alcotest.check response "move acks" Op.Ack (Memory.apply m ~pid:2 (Op.Move (0, 1)));
  Alcotest.check value "dst got src value" (Value.Int 5) (Memory.peek m 1);
  Alcotest.check value "src unchanged" (Value.Int 5) (Memory.peek m 0);
  (* Move clears the destination's Pset but leaves the source's intact. *)
  Alcotest.(check bool) "dst pset cleared" true (Ids.is_empty (Memory.pset m 1));
  Alcotest.(check bool) "src pset kept" true (Ids.mem 3 (Memory.pset m 0))

let test_move_chain () =
  (* The introduction's example: moves R0 -> R1 -> R2 executed in order
     propagate R0's original value to R2. *)
  let m = Memory.create () in
  Memory.set_init m 0 (Value.Str "origin");
  Memory.set_init m 1 (Value.Str "b");
  Memory.set_init m 2 (Value.Str "c");
  ignore (Memory.apply m ~pid:0 (Op.Move (0, 1)));
  ignore (Memory.apply m ~pid:1 (Op.Move (1, 2)));
  Alcotest.check value "chained" (Value.Str "origin") (Memory.peek m 2)

let test_counting () =
  let m = Memory.create () in
  ignore (Memory.apply m ~pid:0 (Op.Ll 0));
  ignore (Memory.apply m ~pid:0 (Op.Sc (0, Value.Int 1)));
  ignore (Memory.apply m ~pid:1 (Op.Validate 0));
  Alcotest.(check int) "p0 ops" 2 (Memory.ops_of m ~pid:0);
  Alcotest.(check int) "p1 ops" 1 (Memory.ops_of m ~pid:1);
  Alcotest.(check int) "p2 ops" 0 (Memory.ops_of m ~pid:2);
  Alcotest.(check int) "total" 3 (Memory.total_ops m);
  Alcotest.(check int) "max" 2 (Memory.max_ops m)

(* The tap sees every [apply]'s pid, invocation and response, in order,
   and nothing for [set_init]. *)
let test_log () =
  let m = Memory.create () in
  let seen = ref [] in
  Memory.set_tap m (Some (fun ~pid inv resp ~spurious:_ -> seen := (pid, inv, resp) :: !seen));
  Memory.set_init m 4 (Value.Int 1);
  let r1 = Memory.apply m ~pid:0 (Op.Ll 4) in
  let r2 = Memory.apply m ~pid:1 (Op.Swap (4, Value.Int 2)) in
  match List.rev !seen with
  | [ (p1, i1, s1); (p2, i2, s2) ] ->
    Alcotest.(check int) "first pid" 0 p1;
    Alcotest.(check bool) "first is LL" true (Op.equal_invocation i1 (Op.Ll 4));
    Alcotest.(check bool) "first response" true (Op.equal_response s1 r1);
    Alcotest.(check int) "second pid" 1 p2;
    Alcotest.(check bool) "second is swap" true
      (Op.equal_invocation i2 (Op.Swap (4, Value.Int 2)));
    Alcotest.(check bool) "second response" true (Op.equal_response s2 r2)
  | seen -> Alcotest.failf "expected 2 accesses, got %d" (List.length seen)

let test_snapshot_touched () =
  let m = Memory.create () in
  Memory.set_init m 5 (Value.Int 1);
  ignore (Memory.apply m ~pid:0 (Op.Ll 2));
  Alcotest.(check (list int)) "touched sorted" [ 2; 5 ] (Memory.touched m);
  match Memory.snapshot m with
  | [ (2, (v2, p2)); (5, (v5, _)) ] ->
    Alcotest.check value "R2 default" Value.Unit v2;
    Alcotest.(check bool) "R2 pset" true (Ids.mem 0 p2);
    Alcotest.check value "R5 value" (Value.Int 1) v5
  | _ -> Alcotest.fail "unexpected snapshot shape"

let test_negative_register () =
  let negative = Invalid_argument "Memory: negative register index -1" in
  let m = Memory.create () in
  Alcotest.check_raises "negative index" negative (fun () ->
      ignore (Memory.apply m ~pid:0 (Op.Ll (-1))));
  Alcotest.check_raises "peek" negative (fun () -> ignore (Memory.peek m (-1)));
  Alcotest.check_raises "pset" negative (fun () -> ignore (Memory.pset m (-1)));
  let pm = Pure_memory.create ~inits:[] () in
  Alcotest.check_raises "pure: negative index" negative (fun () ->
      ignore (Pure_memory.apply pm ~pid:0 (Op.Ll (-1))));
  Alcotest.check_raises "pure: peek" negative (fun () -> ignore (Pure_memory.peek pm (-1)));
  Alcotest.check_raises "pure: pset" negative (fun () -> ignore (Pure_memory.pset pm (-1)))

let test_self_move () =
  (* Self-moves are excluded from the model (they would break Lemma 4.1);
     the dedicated exception carries the culprit and the register. *)
  let m = Memory.create () in
  Memory.set_init m 3 (Value.Int 9);
  Alcotest.check_raises "self-move rejected" (Memory.Self_move { pid = 4; reg = 3 }) (fun () ->
      ignore (Memory.apply m ~pid:4 (Op.Move (3, 3))));
  (* The rejected operation neither counts nor changes anything. *)
  Alcotest.(check int) "not counted" 0 (Memory.ops_of m ~pid:4);
  Alcotest.check value "unchanged" (Value.Int 9) (Memory.peek m 3);
  let pm = Pure_memory.create ~inits:[ (3, Value.Int 9) ] () in
  Alcotest.check_raises "pure: self-move rejected" (Memory.Self_move { pid = 4; reg = 3 })
    (fun () -> ignore (Pure_memory.apply pm ~pid:4 (Op.Move (3, 3))))

let test_negative_pid () =
  (* A negative pid is rejected before the fence or the write takes effect,
     in both stores and under every model. *)
  let negative = Invalid_argument "Memory: negative process id -1" in
  List.iter
    (fun model ->
      let name what = Memory_model.to_string model ^ ": " ^ what in
      let m = Memory.create ~model ~default:(Value.Int 0) () in
      List.iter
        (fun inv ->
          Alcotest.check_raises (name "raises") negative (fun () ->
              ignore (Memory.apply m ~pid:(-1) inv)))
        [ Op.Swap (0, Value.Int 7); Op.Write (0, Value.Int 7); Op.Fence ];
      Alcotest.check value (name "R0 unchanged") (Value.Int 0) (Memory.peek m 0);
      Alcotest.(check (list int)) (name "nothing touched") [] (Memory.touched m);
      Alcotest.(check int) (name "nothing counted") 0 (Memory.total_ops m);
      let pm = Pure_memory.create ~model ~default:(Value.Int 0) ~inits:[] () in
      List.iter
        (fun inv ->
          Alcotest.check_raises (name "pure: raises") negative (fun () ->
              ignore (Pure_memory.apply pm ~pid:(-1) inv)))
        [ Op.Swap (0, Value.Int 7); Op.Write (0, Value.Int 7); Op.Fence ])
    Memory_model.all

let test_largest_value_size () =
  let m = Memory.create () in
  ignore (Memory.apply m ~pid:0 (Op.Swap (0, Value.List [ Value.Int 1; Value.Int 2 ])));
  Alcotest.(check int) "size" 3 (Memory.largest_value_size m)

let test_growth () =
  (* The dense register array and the per-pid counter array both grow on
     demand; registers at or above the dense limit (2^20) spill into the
     sparse table with identical semantics. *)
  let m = Memory.create ~default:(Value.Int 0) () in
  let sparse_reg = 1 lsl 21 in
  List.iter
    (fun r ->
      ignore (Memory.apply m ~pid:(r mod 5000) (Op.Ll r));
      ignore (Memory.apply m ~pid:(r mod 5000) (Op.Sc (r, Value.Int r))))
    [ 0; 63; 64; 4095; 4096; 250_000; sparse_reg ];
  Alcotest.check value "dense high register" (Value.Int 250_000) (Memory.peek m 250_000);
  Alcotest.check value "sparse register" (Value.Int sparse_reg) (Memory.peek m sparse_reg);
  Alcotest.check response "sparse register validates" (Op.Flagged (false, Value.Int sparse_reg))
    (Memory.apply m ~pid:1 (Op.Validate sparse_reg));
  Alcotest.(check int) "high pid counted" 2 (Memory.ops_of m ~pid:(sparse_reg mod 5000));
  Alcotest.(check int) "untouched pid" 0 (Memory.ops_of m ~pid:4999);
  Alcotest.(check int) "total" 15 (Memory.total_ops m);
  Alcotest.(check (list int)) "touched spans both stores"
    [ 0; 63; 64; 4095; 4096; 250_000; sparse_reg ]
    (Memory.touched m)

(* Property: a process's SC succeeds iff no successful SC/swap/move-into hit
   the register since its last LL. *)
let prop_sc_semantics =
  let open QCheck in
  let gen_ops =
    Gen.(
      list_size (int_range 1 40)
        (oneof
           [
             map (fun p -> `Ll (p mod 3)) small_nat;
             map2 (fun p v -> `Sc (p mod 3, v)) small_nat small_nat;
             map (fun p -> `Validate (p mod 3)) small_nat;
             map2 (fun p v -> `Swap (p mod 3, v)) small_nat small_nat;
             map (fun p -> `Move (p mod 3)) small_nat;
           ]))
  in
  let arb = make ~print:(fun l -> Printf.sprintf "<%d ops>" (List.length l)) gen_ops in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"SC success matches link model" arb (fun ops ->
         let m = Memory.create ~default:(Value.Int 0) () in
         (* Model: set of pids whose link on R0 is valid. *)
         let model = ref Ids.empty in
         List.for_all
           (fun op ->
             match op with
             | `Ll p ->
               ignore (Memory.apply m ~pid:p (Op.Ll 0));
               model := Ids.add p !model;
               true
             | `Validate p ->
               let resp = Memory.apply m ~pid:p (Op.Validate 0) in
               Op.flag_of resp = Ids.mem p !model
             | `Sc (p, v) ->
               let resp = Memory.apply m ~pid:p (Op.Sc (0, Value.Int v)) in
               let expected = Ids.mem p !model in
               if expected then model := Ids.empty;
               Op.flag_of resp = expected
             | `Swap (p, v) ->
               ignore (Memory.apply m ~pid:p (Op.Swap (0, Value.Int v)));
               model := Ids.empty;
               true
             | `Move p ->
               ignore (Memory.apply m ~pid:p (Op.Move (1, 0)));
               model := Ids.empty;
               true)
           ops))

(* ---- Profile ---- *)

let test_profile () =
  let m = Memory.create ~default:(Value.Int 0) () in
  let accesses =
    List.map
      (fun (pid, inv) -> (pid, inv, Memory.apply m ~pid inv))
      [
        (0, Op.Ll 0);
        (1, Op.Ll 0);
        (0, Op.Sc (0, Value.Int 1));
        (1, Op.Sc (0, Value.Int 2));
        (0, Op.Swap (3, Value.Int 9));
        (0, Op.Move (3, 4));
        (1, Op.Validate 4);
      ]
  in
  let p = Profile.of_accesses accesses in
  Alcotest.(check int) "total" 7 p.Profile.total;
  Alcotest.(check int) "processes" 2 p.Profile.distinct_processes;
  Alcotest.(check (float 0.001)) "sc rate" 0.5 p.Profile.sc_success_rate;
  Alcotest.(check (option int)) "hottest" (Some 0) p.Profile.hottest;
  let r0 = List.find (fun (s : Profile.register_stats) -> s.Profile.reg = 0) p.Profile.registers in
  Alcotest.(check int) "R0 accesses" 4 r0.Profile.accesses;
  Alcotest.(check int) "R0 ll" 2 r0.Profile.ll;
  Alcotest.(check int) "R0 sc ok" 1 r0.Profile.sc_success;
  Alcotest.(check int) "R0 sc fail" 1 r0.Profile.sc_fail;
  let r4 = List.find (fun (s : Profile.register_stats) -> s.Profile.reg = 4) p.Profile.registers in
  Alcotest.(check int) "R4 moves in" 1 r4.Profile.moves_in;
  Alcotest.(check int) "R4 validates" 1 r4.Profile.validates;
  (* Kind totals. *)
  Alcotest.(check int) "reads" 3 (List.assoc Op.Read p.Profile.per_kind);
  Alcotest.(check int) "scs" 2 (List.assoc Op.Sc_kind p.Profile.per_kind)

let test_profile_empty () =
  let p = Profile.of_accesses [] in
  Alcotest.(check int) "empty total" 0 p.Profile.total;
  Alcotest.(check (option int)) "no hottest" None p.Profile.hottest;
  Alcotest.(check (float 0.001)) "rate defaults to 1" 1.0 p.Profile.sc_success_rate

(* ---- multi-object coexistence through one layout ---- *)

let test_layout_isolates_constructions () =
  (* Two independent objects (different constructions) in ONE memory: the
     layout hands out disjoint registers, so runs do not interfere. *)
  let layout = Layout.create () in
  let tree = Adt_tree.construction.Iface.create layout ~n:3 (Counters.fetch_inc ~bits:62) in
  let cas = Direct.compare_and_swap layout ~init:(Value.Int 0) in
  let memory = Memory.create () in
  Layout.install layout memory;
  let result_tree =
    Harness.run_handle ~memory ~handle:tree ~n:3 ~ops:(fun _ -> [ Value.Unit ]) ()
  in
  let result_cas =
    Harness.run_handle ~memory ~handle:cas ~n:3
      ~ops:(fun pid ->
        [ Misc_types.op_cas ~expected:(Value.Int 0) ~new_:(Value.pair (Value.Int pid) Value.unit) ])
      ()
  in
  let tree_responses =
    List.map (fun (s : Harness.op_stat) -> Value.to_int s.Harness.response)
      result_tree.Harness.stats
    |> List.sort Int.compare
  in
  Alcotest.(check (list int)) "counter clean" [ 0; 1; 2 ] tree_responses;
  let winners =
    List.filter
      (fun (s : Harness.op_stat) -> Value.to_bool (fst (Value.to_pair s.Harness.response)))
      result_cas.Harness.stats
  in
  Alcotest.(check int) "one CAS winner" 1 (List.length winners)

(* ---- store buffers: the TSO / PSO axis ---- *)

let test_write_sc_immediate () =
  (* Under SC a plain write applies instantly and kills links, like the
     paper's other write-kind operations. *)
  let m = Memory.create ~default:(Value.Int 0) () in
  ignore (Memory.apply m ~pid:1 (Op.Ll 0));
  Alcotest.check response "write acks" Op.Ack (Memory.apply m ~pid:0 (Op.Write (0, Value.Int 7)));
  Alcotest.check value "visible immediately" (Value.Int 7) (Memory.peek m 0);
  Alcotest.(check bool) "links killed" true (Ids.is_empty (Memory.pset m 0));
  Alcotest.(check (list (pair int int))) "nothing to flush" [] (Memory.flushable m)

let test_tso_write_buffers () =
  let m = Memory.create ~model:Memory_model.TSO ~default:(Value.Int 0) () in
  ignore (Memory.apply m ~pid:0 (Op.Write (0, Value.Int 1)));
  Alcotest.check value "shared memory unchanged" (Value.Int 0) (Memory.peek m 0);
  (* Own plain read sees the buffered value; another process's does not. *)
  Alcotest.check response "own read hits buffer" (Op.Flagged (false, Value.Int 1))
    (Memory.apply m ~pid:0 (Op.Validate 0));
  Alcotest.check response "other read misses buffer" (Op.Flagged (false, Value.Int 0))
    (Memory.apply m ~pid:1 (Op.Validate 0));
  Alcotest.(check (list (pair int int))) "one flush enabled" [ (0, 0) ] (Memory.flushable m);
  Memory.flush m ~pid:0 ~reg:0;
  Alcotest.check value "flushed" (Value.Int 1) (Memory.peek m 0);
  Alcotest.(check (list (pair int int))) "buffer empty" [] (Memory.flushable m)

let test_tso_fifo () =
  (* TSO: one FIFO per process — only the oldest entry is flushable, and
     flushing out of order is a programming error. *)
  let m = Memory.create ~model:Memory_model.TSO ~default:(Value.Int 0) () in
  ignore (Memory.apply m ~pid:0 (Op.Write (0, Value.Int 1)));
  ignore (Memory.apply m ~pid:0 (Op.Write (1, Value.Int 2)));
  Alcotest.(check (list (pair int int))) "head only" [ (0, 0) ] (Memory.flushable m);
  Alcotest.check_raises "non-head flush rejected"
    (Invalid_argument "Memory.flush: TSO head of p0's buffer is R0, not R1") (fun () ->
      Memory.flush m ~pid:0 ~reg:1);
  Memory.flush m ~pid:0 ~reg:0;
  Alcotest.(check (list (pair int int))) "next head" [ (0, 1) ] (Memory.flushable m)

let test_pso_per_register () =
  (* PSO: distinct registers flush independently — the flag can overtake the
     data, which is exactly what the MP litmus test observes. *)
  let m = Memory.create ~model:Memory_model.PSO ~default:(Value.Int 0) () in
  ignore (Memory.apply m ~pid:0 (Op.Write (0, Value.Int 1)));
  ignore (Memory.apply m ~pid:0 (Op.Write (1, Value.Int 2)));
  Alcotest.(check (list (pair int int)))
    "both registers flushable" [ (0, 0); (0, 1) ] (Memory.flushable m);
  Memory.flush m ~pid:0 ~reg:1;
  Alcotest.check value "flag landed first" (Value.Int 2) (Memory.peek m 1);
  Alcotest.check value "data still buffered" (Value.Int 0) (Memory.peek m 0);
  (* Same register stays FIFO: two writes to R0 flush oldest-first. *)
  ignore (Memory.apply m ~pid:0 (Op.Write (0, Value.Int 9)));
  Memory.flush m ~pid:0 ~reg:0;
  Alcotest.check value "oldest write of R0 first" (Value.Int 1) (Memory.peek m 0);
  Memory.flush m ~pid:0 ~reg:0;
  Alcotest.check value "then the newer" (Value.Int 9) (Memory.peek m 0)

let test_fences_drain () =
  (* Every synchronisation operation drains the issuing process's buffer
     before acting; Fence drains and does nothing else. *)
  List.iter
    (fun (name, inv) ->
      let m = Memory.create ~model:Memory_model.TSO ~default:(Value.Int 0) () in
      ignore (Memory.apply m ~pid:0 (Op.Write (2, Value.Int 5)));
      ignore (Memory.apply m ~pid:0 inv);
      Alcotest.check value (name ^ " drained the buffer") (Value.Int 5) (Memory.peek m 2);
      Alcotest.(check (list (pair int int))) (name ^ " left nothing buffered") []
        (Memory.flushable m))
    [
      ("ll", Op.Ll 0);
      ("sc", Op.Sc (0, Value.Int 1));
      ("swap", Op.Swap (0, Value.Int 1));
      ("move", Op.Move (0, 1));
      ("fence", Op.Fence);
    ];
  (* ...but only the issuing process's: p1's fence leaves p0's buffer. *)
  let m = Memory.create ~model:Memory_model.TSO ~default:(Value.Int 0) () in
  ignore (Memory.apply m ~pid:0 (Op.Write (2, Value.Int 5)));
  ignore (Memory.apply m ~pid:1 Op.Fence);
  Alcotest.(check (list (pair int int))) "p0 still buffered" [ (0, 2) ] (Memory.flushable m)

let test_flush_kills_links () =
  (* The write's link-kill happens when it lands, not when it is issued: a
     link taken between issue and flush dies at flush time. *)
  let m = Memory.create ~model:Memory_model.TSO ~default:(Value.Int 0) () in
  ignore (Memory.apply m ~pid:0 (Op.Write (0, Value.Int 1)));
  ignore (Memory.apply m ~pid:1 (Op.Ll 0));
  Alcotest.(check bool) "link survives the buffered write" true (Ids.mem 1 (Memory.pset m 0));
  Memory.flush m ~pid:0 ~reg:0;
  Alcotest.(check bool) "link dies at flush" true (Ids.is_empty (Memory.pset m 0));
  Alcotest.check response "p1's SC fails" (Op.Flagged (false, Value.Int 1))
    (Memory.apply m ~pid:1 (Op.Sc (0, Value.Int 9)))

let test_pure_memory_buffers_match () =
  (* The persistent model-checking memory implements the identical buffer
     semantics: drive the same relaxed script through both and compare. *)
  List.iter
    (fun model ->
      let m = Memory.create ~model ~default:(Value.Int 0) () in
      let pm = ref (Pure_memory.create ~model ~default:(Value.Int 0) ~inits:[] ()) in
      let script =
        [
          (0, Op.Write (0, Value.Int 1)); (0, Op.Write (1, Value.Int 2));
          (1, Op.Validate 0); (0, Op.Validate 0); (1, Op.Ll 1);
          (0, Op.Write (0, Value.Int 3)); (1, Op.Sc (1, Value.Int 9)); (0, Op.Fence);
          (1, Op.Swap (0, Value.Int 4));
        ]
      in
      List.iter
        (fun (pid, inv) ->
          let rm = Memory.apply m ~pid inv in
          let rp, pm' = Pure_memory.apply !pm ~pid inv in
          pm := pm';
          Alcotest.check response
            (Printf.sprintf "%s: same response" (Memory_model.to_string model)) rm rp)
        script;
      List.iter
        (fun r ->
          Alcotest.check value
            (Printf.sprintf "%s: same R%d" (Memory_model.to_string model) r)
            (Memory.peek m r) (Pure_memory.peek !pm r))
        [ 0; 1; 2 ];
      Alcotest.(check (list (pair int int)))
        (Memory_model.to_string model ^ ": same flushable set")
        (Memory.flushable m)
        (Pure_memory.flushable !pm))
    [ Memory_model.TSO; Memory_model.PSO ]

(* The two stores of the one semantics agree step by step under every
   model: same responses, same registers, same buffers and flush choices. *)
let prop_pure_matches_mutable =
  let open QCheck in
  (* A step is (kind, pid, register, value): kinds 0-6 are operations,
     7-8 perform one of the enabled flushes. *)
  let gen =
    Gen.(
      pair (oneofl Memory_model.all)
        (list_size (int_range 1 40)
           (quad (int_bound 8) (int_bound 2) (int_bound 2) (int_bound 9))))
  in
  let print (model, steps) =
    Printf.sprintf "%s, <%d steps>" (Memory_model.to_string model) (List.length steps)
  in
  let invocation kind r v =
    match kind with
    | 0 -> Op.Ll r
    | 1 -> Op.Sc (r, Value.Int v)
    | 2 -> Op.Validate r
    | 3 -> Op.Swap (r, Value.Int v)
    | 4 -> Op.Move (r, r + 1)
    | 5 -> Op.Write (r, Value.Int v)
    | _ -> Op.Fence
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"pure memory = mutable memory"
       (make ~print gen) (fun (model, steps) ->
         let m = Memory.create ~model ~default:(Value.Int 0) () in
         let pm = ref (Pure_memory.create ~model ~default:(Value.Int 0) ~inits:[] ()) in
         let same_state () =
           List.for_all
             (fun r ->
               Value.equal (Memory.peek m r) (Pure_memory.peek !pm r)
               && Ids.equal (Memory.pset m r) (Pure_memory.pset !pm r))
             [ 0; 1; 2; 3 ]
           && Memory.flushable m = Pure_memory.flushable !pm
           && Memory.buffers m = Pure_memory.buffers !pm
         in
         List.for_all
           (fun (kind, pid, r, v) ->
             let same_response =
               if kind >= 7 then (
                 match Memory.flushable m with
                 | [] -> true
                 | enabled ->
                   let pid, reg = List.nth enabled (v mod List.length enabled) in
                   Memory.flush m ~pid ~reg;
                   pm := Pure_memory.flush !pm ~pid ~reg;
                   true)
               else
                 let inv = invocation kind r v in
                 let response, pm' = Pure_memory.apply !pm ~pid inv in
                 pm := pm';
                 Op.equal_response (Memory.apply m ~pid inv) response
             in
             same_response && same_state ())
           steps))

let test_model_strings () =
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Memory_model.to_string m ^ " roundtrips") true
        (Memory_model.of_string (Memory_model.to_string m) = Ok m))
    Memory_model.all;
  Alcotest.(check bool) "unknown rejected" true
    (Result.is_error (Memory_model.of_string "weird"));
  Alcotest.(check bool) "lattice: SC <= TSO <= PSO" true
    (Memory_model.weaker_or_equal Memory_model.SC Memory_model.TSO
    && Memory_model.weaker_or_equal Memory_model.TSO Memory_model.PSO
    && not (Memory_model.weaker_or_equal Memory_model.PSO Memory_model.TSO))

(* A checkpoint puts back everything a run changes: register values and
   Psets (registers first touched later disappear again), store buffers
   and per-process counts — rewinding to it and then forward to a later
   one. *)
let test_checkpoint_restore () =
  let m = Memory.create ~model:Memory_model.TSO ~default:(Value.Int 0) () in
  let far = (1 lsl 20) + 5 in
  let observe () =
    ( Memory.snapshot m,
      Memory.buffers m,
      List.init 8 (fun pid -> Memory.ops_of m ~pid),
      Memory.total_ops m,
      Memory.largest_value_size m )
  in
  let apply pid inv = ignore (Memory.apply m ~pid inv) in
  apply 0 (Op.Ll 0);
  apply 1 (Op.Write (1, Value.Int 4));
  apply 2 (Op.Swap (far, Value.Int 9));
  let early = Memory.checkpoint m and seen_early = observe () in
  apply 0 (Op.Sc (0, Value.pair (Value.Int 1) (Value.Int 2)));
  Memory.flush m ~pid:1 ~reg:1;
  apply 1 (Op.Ll 7);
  apply 6 (Op.Swap (far + 1, Value.Int 3));
  apply 3 (Op.Write (2, Value.Int 5));
  let late = Memory.checkpoint m and seen_late = observe () in
  apply 4 (Op.Swap (9, Value.Int 1));
  Memory.restore m early;
  Alcotest.(check bool) "rewound to the early checkpoint" true (observe () = seen_early);
  Alcotest.(check (list int)) "later registers untouched again" [ 0; far ] (Memory.touched m);
  Memory.restore m late;
  Alcotest.(check bool) "forward to the late checkpoint" true (observe () = seen_late);
  Alcotest.(check bool) "its link survives" true (Ids.mem 1 (Memory.pset m 7))

let suite =
  [
    Alcotest.test_case "initial default" `Quick test_initial_default;
    Alcotest.test_case "set_init" `Quick test_set_init;
    Alcotest.test_case "LL returns and links" `Quick test_ll_returns_and_links;
    Alcotest.test_case "SC success" `Quick test_sc_success;
    Alcotest.test_case "SC without LL fails" `Quick test_sc_without_ll_fails;
    Alcotest.test_case "SC invalidated by other SC" `Quick test_sc_invalidated_by_other_sc;
    Alcotest.test_case "validate" `Quick test_validate;
    Alcotest.test_case "swap" `Quick test_swap;
    Alcotest.test_case "move" `Quick test_move;
    Alcotest.test_case "move chain" `Quick test_move_chain;
    Alcotest.test_case "op counting" `Quick test_counting;
    Alcotest.test_case "event log" `Quick test_log;
    Alcotest.test_case "snapshot/touched" `Quick test_snapshot_touched;
    Alcotest.test_case "checkpoint/restore" `Quick test_checkpoint_restore;
    Alcotest.test_case "negative register rejected" `Quick test_negative_register;
    Alcotest.test_case "self-move rejected" `Quick test_self_move;
    Alcotest.test_case "negative pid rejected" `Quick test_negative_pid;
    Alcotest.test_case "largest value size" `Quick test_largest_value_size;
    Alcotest.test_case "store growth and sparse spill" `Quick test_growth;
    prop_sc_semantics;
    Alcotest.test_case "access profile" `Quick test_profile;
    Alcotest.test_case "empty profile" `Quick test_profile_empty;
    Alcotest.test_case "layout isolates constructions" `Quick test_layout_isolates_constructions;
    Alcotest.test_case "write under SC is immediate" `Quick test_write_sc_immediate;
    Alcotest.test_case "tso write buffers" `Quick test_tso_write_buffers;
    Alcotest.test_case "tso buffer is fifo" `Quick test_tso_fifo;
    Alcotest.test_case "pso buffers per register" `Quick test_pso_per_register;
    Alcotest.test_case "fences drain" `Quick test_fences_drain;
    Alcotest.test_case "flush kills links" `Quick test_flush_kills_links;
    Alcotest.test_case "pure memory matches buffers" `Quick test_pure_memory_buffers_match;
    prop_pure_matches_mutable;
    Alcotest.test_case "memory model strings + lattice" `Quick test_model_strings;
  ]
