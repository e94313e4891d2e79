(* Tests for the exhaustive-interleaving model checker, and exhaustive
   verification of the small-system properties it makes checkable: wakeup
   correctness under EVERY schedule, LL/SC atomicity, CAS linearizability. *)

open Lowerbound
open Program.Syntax

(* ---- Pure_memory agrees with the mutable memory ---- *)

let prop_pure_matches_mutable =
  let open QCheck in
  let gen_ops =
    Gen.(
      list_size (int_range 1 30)
        (oneof
           [
             map2 (fun p r -> `Ll (p mod 3, r mod 3)) small_nat small_nat;
             map3 (fun p r v -> `Sc (p mod 3, r mod 3, v)) small_nat small_nat small_nat;
             map2 (fun p r -> `Validate (p mod 3, r mod 3)) small_nat small_nat;
             map3 (fun p r v -> `Swap (p mod 3, r mod 3, v)) small_nat small_nat small_nat;
             map2 (fun p r -> `Move (p mod 3, r mod 3)) small_nat small_nat;
           ]))
  in
  let arb = make ~print:(fun l -> Printf.sprintf "<%d ops>" (List.length l)) gen_ops in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"pure memory = mutable memory" arb (fun ops ->
         let mutable_mem = Memory.create ~default:(Value.Int 0) () in
         let pure = ref (Pure_memory.create ~default:(Value.Int 0) ~inits:[] ()) in
         List.for_all
           (fun op ->
             let inv =
               match op with
               | `Ll (_, r) -> Op.Ll r
               | `Sc (_, r, v) -> Op.Sc (r, Value.Int v)
               | `Validate (_, r) -> Op.Validate r
               | `Swap (_, r, v) -> Op.Swap (r, Value.Int v)
               | `Move (_, r) -> Op.Move (r, r + 1)
             in
             let pid =
               match op with
               | `Ll (p, _) | `Sc (p, _, _) | `Validate (p, _) | `Swap (p, _, _) | `Move (p, _)
                 -> p
             in
             let resp_mut = Memory.apply mutable_mem ~pid inv in
             let resp_pure, pure' = Pure_memory.apply !pure ~pid inv in
             pure := pure';
             Op.equal_response resp_mut resp_pure
             && List.for_all
                  (fun r ->
                    Value.equal (Memory.peek mutable_mem r) (Pure_memory.peek !pure r)
                    && Ids.equal (Memory.pset mutable_mem r) (Pure_memory.pset !pure r))
                  [ 0; 1; 2; 3 ])
           ops))

(* ---- basic explorer behaviour ---- *)

let test_run_counts () =
  (* Two processes, two ops each: C(4,2) = 6 interleavings. *)
  let two_ops _pid =
    let* _ = Program.ll 0 in
    let* _ = Program.ll 0 in
    Program.return 0
  in
  let count = Explore.iter ~n:2 ~program_of:two_ops ~f:(fun _ -> ()) () in
  Alcotest.(check int) "6 interleavings" 6 count;
  (* Three processes, one op each: 3! = 6. *)
  let one_op _pid =
    let* _ = Program.ll 0 in
    Program.return 0
  in
  let count = Explore.iter ~n:3 ~program_of:one_op ~f:(fun _ -> ()) () in
  Alcotest.(check int) "3! schedules" 6 count

let test_coin_branching () =
  (* One process, two tosses over {0,1}: 4 runs, results = sums. *)
  let program _pid =
    let* a = Program.toss_bounded 2 in
    let* b = Program.toss_bounded 2 in
    let* _ = Program.ll 0 in
    Program.return ((10 * a) + b)
  in
  let results = ref [] in
  let count =
    Explore.iter ~n:1 ~program_of:program ~coin_range:[ 0; 1 ]
      ~f:(fun run -> results := List.map snd run.Explore.results @ !results)
      ()
  in
  Alcotest.(check int) "4 coin combinations" 4 count;
  Alcotest.(check (list int)) "all outcomes" [ 0; 1; 10; 11 ] (List.sort compare !results)

let test_limit () =
  let chunky _pid =
    let rec loop k = if k = 0 then Program.return 0 else
      let* _ = Program.ll 0 in
      loop (k - 1)
    in
    loop 6
  in
  Alcotest.check_raises "limit enforced" (Explore.Limit_exceeded 10) (fun () ->
      ignore (Explore.iter ~n:3 ~program_of:chunky ~max_runs:10 ~f:(fun _ -> ()) ()))

let test_events_order () =
  let program pid =
    let* _ = Program.ll pid in
    Program.return pid
  in
  let saw_valid = ref true in
  ignore
    (Explore.iter ~n:2 ~program_of:program
       ~f:(fun run ->
         (* Each run: 2 steps and 2 returns, each return right after its
            step. *)
         match run.Explore.events with
         | [ Explore.Stepped (a, _, _); Explore.Returned (a', _); Explore.Stepped (b, _, _);
             Explore.Returned (b', _) ] ->
           if not (a = a' && b = b' && a <> b) then saw_valid := false
         | _ -> saw_valid := false)
       ());
  Alcotest.(check bool) "event shapes" true !saw_valid

(* ---- exhaustive LL/SC atomicity ---- *)

let test_exhaustive_llsc_one_winner () =
  (* n processes each LL then SC: in EVERY interleaving, the number of
     successful SCs equals the number of "rounds" where an LL-SC pair is
     uninterrupted... the invariant checked: at least one SC succeeds, and
     successful SC count <= n, and the final counter equals that count. *)
  let program _pid =
    let* v = Program.ll 0 in
    let* ok = Program.sc_flag 0 (Value.Int (Value.to_int v + 1)) in
    Program.return (if ok then 1 else 0)
  in
  let ok =
    Explore.for_all ~n:3 ~program_of:program ~inits:[ (0, Value.Int 0) ]
      ~f:(fun run ->
        let winners = List.length (List.filter (fun (_, v) -> v = 1) run.Explore.results) in
        winners >= 1 && winners <= 3)
      ()
  in
  Alcotest.(check bool) "1..n winners in every interleaving" true ok;
  (* And there exists a schedule where everyone wins (sequential), and one
     where exactly one wins (lockstep). *)
  let wins k run = List.length (List.filter (fun (_, v) -> v = 1) run.Explore.results) = k in
  Alcotest.(check bool) "some schedule: all win" true
    (Explore.exists ~n:3 ~program_of:program ~inits:[ (0, Value.Int 0) ] ~f:(wins 3) ());
  Alcotest.(check bool) "some schedule: one wins" true
    (Explore.exists ~n:3 ~program_of:program ~inits:[ (0, Value.Int 0) ] ~f:(wins 1) ())

(* ---- exhaustive wakeup verification ---- *)

let exhaustive_wakeup name entry ~n ~coin_range ~max_runs =
  let program_of, inits = entry.Corpus.make ~n in
  let ok =
    Explore.for_all ~n ~program_of ~inits ~coin_range ~max_runs
      ~f:(Explore.wakeup_ok ~n) ()
  in
  Alcotest.(check bool) (name ^ ": wakeup holds in every interleaving") true ok

let test_exhaustive_naive () =
  exhaustive_wakeup "naive n=2" Corpus.naive ~n:2 ~coin_range:[ 0 ] ~max_runs:200_000;
  exhaustive_wakeup "naive n=3" Corpus.naive ~n:3 ~coin_range:[ 0 ] ~max_runs:200_000

let test_exhaustive_post_collect () =
  exhaustive_wakeup "post-collect n=2" Corpus.post_collect ~n:2 ~coin_range:[ 0 ]
    ~max_runs:200_000;
  exhaustive_wakeup "post-collect n=3" Corpus.post_collect ~n:3 ~coin_range:[ 0 ]
    ~max_runs:200_000

let test_exhaustive_move_collect () =
  exhaustive_wakeup "move-collect n=2" Corpus.move_collect ~n:2 ~coin_range:[ 0 ]
    ~max_runs:200_000

let test_exhaustive_tree_collect () =
  (* 10 ops per process at n = 2: C(20, 10) = 184756 interleavings. *)
  exhaustive_wakeup "tree-collect n=2" Corpus.tree_collect ~n:2 ~coin_range:[ 0 ]
    ~max_runs:200_000

let test_exhaustive_two_counter () =
  (* Randomized: branch over both coin outcomes too. *)
  exhaustive_wakeup "two-counter n=2" Corpus.two_counter ~n:2 ~coin_range:[ 0; 1 ]
    ~max_runs:200_000

let test_exhaustive_cheater_found () =
  (* The blind cheater violates wakeup in SOME (indeed every) interleaving
     at n >= 2. *)
  let program_of, inits = Cheaters.blind ~n:2 in
  Alcotest.(check bool) "violation exists" true
    (Explore.exists ~n:2 ~program_of ~inits
       ~f:(fun run -> not (Explore.wakeup_ok ~n:2 run))
       ())

(* ---- reduced exploration agrees with full exploration ---- *)

(* The reduction contract: strictly fewer schedules, identical set of
   distinct (results, wakeup verdict) outcomes. *)
let outcome run ~n =
  (List.sort compare run.Explore.results, Explore.wakeup_ok ~n run)

let reduced_agrees ?(strict = true) name entry ~n ~coin_range =
  let program_of, inits = entry.Corpus.make ~n in
  let full = ref [] in
  let reduced = ref [] in
  let full_count =
    Explore.iter ~n ~program_of ~inits ~coin_range
      ~f:(fun run -> full := outcome run ~n :: !full)
      ()
  in
  let stats =
    Explore.iter_reduced ~n ~program_of ~inits ~coin_range
      ~f:(fun run -> reduced := outcome run ~n :: !reduced)
      ()
  in
  let distinct l = List.sort_uniq compare l in
  Alcotest.(check int)
    (name ^ ": stats.runs counts the callback") (List.length !reduced) stats.Explore.runs;
  Alcotest.(check bool)
    (name ^ ": same distinct outcomes") true
    (distinct !full = distinct !reduced);
  if strict then
    Alcotest.(check bool)
      (Printf.sprintf "%s: strictly fewer schedules (%d < %d)" name stats.Explore.runs
         full_count)
      true
      (stats.Explore.runs < full_count)

let test_reduced_corpus () =
  reduced_agrees "naive n=2" Corpus.naive ~n:2 ~coin_range:[ 0 ];
  reduced_agrees "naive n=3" Corpus.naive ~n:3 ~coin_range:[ 0 ];
  reduced_agrees "post-collect n=2" Corpus.post_collect ~n:2 ~coin_range:[ 0 ];
  reduced_agrees "post-collect n=3" Corpus.post_collect ~n:3 ~coin_range:[ 0 ];
  reduced_agrees "move-collect n=2" Corpus.move_collect ~n:2 ~coin_range:[ 0 ];
  reduced_agrees "tree-collect n=2" Corpus.tree_collect ~n:2 ~coin_range:[ 0 ];
  reduced_agrees "two-counter n=2" Corpus.two_counter ~n:2 ~coin_range:[ 0; 1 ]

let test_reduced_finds_cheater () =
  (* The pruned schedule set still contains a witness of every distinct
     verdict — the blind cheater's violation survives reduction. *)
  let program_of, inits = Cheaters.blind ~n:2 in
  Alcotest.(check bool) "violation survives reduction" false
    (Explore.for_all_reduced ~n:2 ~program_of ~inits
       ~f:(Explore.wakeup_ok ~n:2) ())

let test_reduced_wakeup_verdicts () =
  (* for_all_reduced gives the same verdict as for_all on the whole corpus
     at n=2. *)
  List.iter
    (fun (name, entry) ->
      let program_of, inits = entry.Corpus.make ~n:2 in
      let coin_range = [ 0; 1 ] in
      let expected =
        Explore.for_all ~n:2 ~program_of ~inits ~coin_range
          ~f:(Explore.wakeup_ok ~n:2) ()
      in
      let got =
        Explore.for_all_reduced ~n:2 ~program_of ~inits ~coin_range
          ~f:(Explore.wakeup_ok ~n:2) ()
      in
      Alcotest.(check bool) (name ^ ": reduced verdict = full verdict") expected got)
    [
      ("naive", Corpus.naive);
      ("post-collect", Corpus.post_collect);
      ("move-collect", Corpus.move_collect);
      ("two-counter", Corpus.two_counter);
    ]

(* ---- reduction under an active fault plan ---- *)

(* Program-level encoding of [Fault_plan.spurious_sc_at ~pid ~at]: the
   k-th SC of [pid] (1-based, for k in [at]) is replaced by a Validate on
   the same register whose response is forced to [Flagged (false,
   current)] — exactly the memory semantics of a spurious SC failure: no
   write, link (Pset) kept, failure flag returned.  Encoding the fault in
   the program lets the exhaustive explorer, which has no fault engine of
   its own, branch over every schedule of the {e faulted} execution. *)
let inject_spurious ~pid ~at program_of p =
  if p <> pid then program_of p
  else
    let rec go k prog =
      match prog with
      | Program.Return _ -> prog
      | Program.Toss cont -> Program.Toss (fun o -> go k (cont o))
      | Program.Op (Op.Sc (r, _), cont) when List.mem k at ->
        Program.Op
          ( Op.Validate r,
            fun resp -> go (k + 1) (cont (Op.Flagged (false, Op.value_of resp))) )
      | Program.Op ((Op.Sc _ as inv), cont) ->
        Program.Op (inv, fun resp -> go (k + 1) (cont resp))
      | Program.Op (inv, cont) -> Program.Op (inv, fun resp -> go k (cont resp))
    in
    go 1 (program_of p)

let reduced_agrees_on name ~n ~coin_range ~program_of ~inits =
  let full = ref [] and reduced = ref [] in
  let full_count =
    Explore.iter ~n ~program_of ~inits ~coin_range
      ~f:(fun run -> full := outcome run ~n :: !full)
      ()
  in
  let stats =
    Explore.iter_reduced ~n ~program_of ~inits ~coin_range
      ~f:(fun run -> reduced := outcome run ~n :: !reduced)
      ()
  in
  let distinct l = List.sort_uniq compare l in
  Alcotest.(check bool)
    (name ^ ": same distinct outcomes under faults") true
    (distinct !full = distinct !reduced);
  Alcotest.(check bool)
    (Printf.sprintf "%s: no more schedules than full (%d <= %d)" name stats.Explore.runs
       full_count)
    true
    (stats.Explore.runs <= full_count)

let test_reduced_under_fault_plan () =
  (* The spuriously failed SC changes the independence structure (an SC
     becomes a read-kind Validate), so this is precisely where a wrong
     sleep-set would diverge from full exploration.  tree-collect is the
     one corpus algorithm that both issues SCs and tolerates their
     failure (its merge loop ignores the flag); naive-collect and
     two-counter size their SC retry budget at exactly [n], a bound
     sound for genuine interference but overrun by one spurious
     failure. *)
  (let program_of, inits = Corpus.tree_collect.Corpus.make ~n:2 in
   let program_of = inject_spurious ~pid:0 ~at:[ 1; 2 ] program_of in
   reduced_agrees_on "tree-collect n=2 + spurious-sc@0:1,2" ~n:2 ~coin_range:[ 0 ]
     ~program_of ~inits);
  (* And on a raw LL/SC race, the fault's effect is total: with its only
     SC forced spurious, pid 0 can never win, under full and reduced
     exploration alike. *)
  let race _pid =
    let* v = Program.ll 0 in
    let* ok = Program.sc_flag 0 (Value.Int (Value.to_int v + 1)) in
    Program.return (if ok then 1 else 0)
  in
  let program_of = inject_spurious ~pid:0 ~at:[ 1 ] race in
  let inits = [ (0, Value.Int 0) ] in
  let zero_never_wins run = not (List.mem (0, 1) run.Explore.results) in
  Alcotest.(check bool) "full: pid 0 never wins" true
    (Explore.for_all ~n:2 ~program_of ~inits ~f:zero_never_wins ());
  Alcotest.(check bool) "reduced: pid 0 never wins" true
    (Explore.for_all_reduced ~n:2 ~program_of ~inits ~f:zero_never_wins ());
  reduced_agrees_on "ll/sc race + spurious-sc@0:1" ~n:2 ~coin_range:[ 0 ] ~program_of ~inits

(* ---- exhaustive CAS linearizability ---- *)

let test_exhaustive_cas () =
  (* Every interleaving of 3 concurrent CAS(0 -> tagged pid): exactly one
     succeeds, and the linearizability checker accepts the history built
     from the run's event order. *)
  let layout = Layout.create () in
  let handle = Direct.compare_and_swap layout ~init:(Value.Int 0) in
  let program_of pid =
    handle.Iface.apply ~pid ~seq:0
      (Misc_types.op_cas ~expected:(Value.Int 0) ~new_:(Value.pair (Value.Int pid) Value.unit))
  in
  let spec = Misc_types.compare_and_swap ~init:(Value.Int 0) in
  let ok =
    Explore.for_all ~n:3 ~program_of ~inits:(Layout.inits layout)
      ~f:(fun run ->
        let winners =
          List.filter (fun (_, v) -> Value.to_bool (fst (Value.to_pair v))) run.Explore.results
        in
        (* Build a sequential-looking history from return order: each op
           invoked at time 0-ish and responding in event order is too
           coarse; instead use per-process first-step and return positions
           from the event list. *)
        let position p =
          let rec go i first_step = function
            | [] -> (Option.value ~default:0 first_step, i)
            | Explore.Stepped (pid, _, _) :: rest when pid = p && first_step = None ->
              go (i + 1) (Some i) rest
            | Explore.Returned (pid, _) :: _ when pid = p -> (Option.value ~default:i first_step, i)
            | _ :: rest -> go (i + 1) first_step rest
          in
          go 0 None run.Explore.events
        in
        let history =
          List.map
            (fun (pid, response) ->
              let invoked, responded = position pid in
              History.completed_op ~pid ~seq:0
                ~op:
                  (Misc_types.op_cas ~expected:(Value.Int 0)
                     ~new_:(Value.pair (Value.Int pid) Value.unit))
                ~response ~invoked ~responded)
            run.Explore.results
        in
        List.length winners = 1 && Linearize.is_linearizable spec history)
      ()
  in
  Alcotest.(check bool) "every interleaving: one winner + linearizable" true ok

(* ---- dynamic partial-order reduction ---- *)

(* Soundness of the DPOR walk: on arbitrary small programs, both oracle
   modes (stateless and stateful) reproduce full exploration's set of
   distinct outcomes.  Programs mix every invocation kind plus a coin
   toss, so the dependency relation, the happens-before race filter, and
   the coin-sibling expansion are all exercised. *)
let prop_dpor_agrees =
  let open QCheck in
  let gen_step =
    Gen.(
      oneof
        [
          map (fun r -> `Ll (r mod 3)) small_nat;
          map2 (fun r v -> `Sc (r mod 3, v mod 5)) small_nat small_nat;
          map (fun r -> `Validate (r mod 3)) small_nat;
          map2 (fun r v -> `Swap (r mod 3, v mod 5)) small_nat small_nat;
          map (fun r -> `Move (r mod 3)) small_nat;
          return `Toss;
        ])
  in
  let gen_program = Gen.(pair (list_size (int_range 1 4) gen_step) (list_size (int_range 1 4) gen_step)) in
  let print (a, b) = Printf.sprintf "<%d,%d steps>" (List.length a) (List.length b) in
  let vint (v : Value.t) = Hashtbl.hash v land 0xffff in
  let program_of_steps steps =
    let open Program.Syntax in
    let rec go acc = function
      | [] -> Program.return acc
      | `Ll r :: rest ->
        let* v = Program.ll r in
        go ((31 * acc) + vint v) rest
      | `Sc (r, v) :: rest ->
        let* ok = Program.sc_flag r (Value.Int v) in
        go ((31 * acc) + Bool.to_int ok) rest
      | `Validate r :: rest ->
        let* ok, v = Program.validate r in
        go ((31 * acc) + Bool.to_int ok + vint v) rest
      | `Swap (r, v) :: rest ->
        let* old = Program.swap r (Value.Int v) in
        go ((31 * acc) + vint old) rest
      | `Move r :: rest ->
        let* () = Program.move ~src:r ~dst:((r + 1) mod 3) in
        go acc rest
      | `Toss :: rest ->
        let* c = Program.toss_bounded 2 in
        go ((31 * acc) + c) rest
    in
    go 0 steps
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"dpor outcomes = full outcomes" (make ~print gen_program)
       (fun (s0, s1) ->
         let program_of pid = program_of_steps (if pid = 0 then s0 else s1) in
         let coin_range = [ 0; 1 ] in
         let collect iter =
           let acc = ref [] in
           ignore (iter ~f:(fun run -> acc := outcome run ~n:2 :: !acc));
           List.sort_uniq compare !acc
         in
         let full = collect (fun ~f -> Explore.iter ~n:2 ~program_of ~coin_range ~f ()) in
         let dpor =
           collect (fun ~f ->
               Explore.iter_dpor ~n:2 ~program_of ~coin_range ~dedup:false ~f ())
         in
         let dedup =
           collect (fun ~f ->
               Explore.iter_dpor ~n:2 ~program_of ~coin_range ~dedup:true ~f ())
         in
         full = dpor && full = dedup))

(* The canonical-count property: with state dedup on, the surviving
   schedule set has one representative per covered class, and the DPOR
   walk lands on exactly [iter_reduced]'s counts — the two reductions
   agree not just on outcomes but on size.  Each row pins that count. *)
let test_dpor_corpus_agreement () =
  List.iter
    (fun (name, entry, n, coin_range, schedules) ->
      let program_of, inits = (entry : Corpus.entry).Corpus.make ~n in
      let reduced = ref [] in
      let stats =
        Explore.iter_reduced ~n ~program_of ~inits ~coin_range
          ~f:(fun run -> reduced := outcome run ~n :: !reduced)
          ()
      in
      let dpor = ref [] in
      let dstats =
        Explore.iter_dpor ~n ~program_of ~inits ~coin_range ~dedup:true
          ~f:(fun run -> dpor := outcome run ~n :: !dpor)
          ()
      in
      let distinct l = List.sort_uniq compare l in
      Alcotest.(check int) (name ^ ": reduced schedule count") schedules stats.Explore.runs;
      Alcotest.(check int)
        (name ^ ": dpor+dedup schedule count = reduced count")
        stats.Explore.runs dstats.Sched_tree.schedules;
      Alcotest.(check bool) (name ^ ": same distinct outcomes") true
        (distinct !reduced = distinct !dpor))
    [
      ("naive n=2", Corpus.naive, 2, [ 0 ], 4);
      ("naive n=3", Corpus.naive, 3, [ 0 ], 60);
      ("post-collect n=2", Corpus.post_collect, 2, [ 0 ], 5);
      ("post-collect n=3", Corpus.post_collect, 3, [ 0 ], 52);
      ("move-collect n=2", Corpus.move_collect, 2, [ 0 ], 6);
      ("tree-collect n=2", Corpus.tree_collect, 2, [ 0 ], 100);
      ("two-counter n=2", Corpus.two_counter, 2, [ 0; 1 ], 38);
      ("backoff-collect n=2", Corpus.backoff_collect, 2, [ 0; 1 ], 16);
    ]

(* The headline reduction: on tree-collect n=2, sleep-set POR explores
   100 schedules; the pre-emption-bounded DPOR walk explores strictly
   fewer, reports exactly what the bound elided, and still reproduces
   the identical outcome set (empirically — bounding is unsound in
   general, which is why [stats.elided] exists). *)
let test_dpor_bounded_tree_collect () =
  let program_of, inits = Corpus.tree_collect.Corpus.make ~n:2 in
  let reduced = ref [] in
  let stats =
    Explore.iter_reduced ~n:2 ~program_of ~inits ~coin_range:[ 0 ]
      ~f:(fun run -> reduced := outcome run ~n:2 :: !reduced)
      ()
  in
  let check_bounded ~preempt ~dedup =
    let dpor = ref [] in
    let bounds = { Sched_tree.no_bounds with preempt = Some preempt } in
    let dstats =
      Explore.iter_dpor ~n:2 ~program_of ~inits ~coin_range:[ 0 ] ~bounds ~dedup
        ~f:(fun run -> dpor := outcome run ~n:2 :: !dpor)
        ()
    in
    let distinct l = List.sort_uniq compare l in
    Alcotest.(check bool)
      (Printf.sprintf "preempt<=%d: strictly fewer schedules (%d < %d)" preempt
         dstats.Sched_tree.schedules stats.Explore.runs)
      true
      (dstats.Sched_tree.schedules < stats.Explore.runs);
    Alcotest.(check bool)
      (Printf.sprintf "preempt<=%d: truncation is reported" preempt)
      true
      (dstats.Sched_tree.elided > 0 && not (Sched_tree.exhaustive dstats));
    Alcotest.(check bool)
      (Printf.sprintf "preempt<=%d: identical outcome set" preempt)
      true
      (distinct !reduced = distinct !dpor)
  in
  check_bounded ~preempt:1 ~dedup:false;
  check_bounded ~preempt:2 ~dedup:true

let test_dpor_limit () =
  (* Satellite regression: the run cap surfaces as [Limit_exceeded], like
     [iter] and [iter_reduced] — not as a silent truncation. *)
  let program_of, inits = Corpus.naive.Corpus.make ~n:3 in
  Alcotest.check_raises "dpor limit enforced" (Explore.Limit_exceeded 10) (fun () ->
      ignore
        (Explore.iter_dpor ~n:3 ~program_of ~inits ~dedup:false ~max_runs:10
           ~f:(fun _ -> ())
           ()))

let test_dpor_finds_cheater () =
  (* Witness preservation: every distinct verdict survives the reduction,
     so the blind cheater's wakeup violation is still found. *)
  let program_of, inits = Cheaters.blind ~n:2 in
  List.iter
    (fun dedup ->
      Alcotest.(check bool)
        (Printf.sprintf "violation survives dpor (dedup=%b)" dedup)
        false
        (Explore.for_all_dpor ~n:2 ~program_of ~inits ~dedup
           ~f:(Explore.wakeup_ok ~n:2) ()))
    [ false; true ]

(* ---- weak memory models: store buffers in the explorer ---- *)

(* Random two-process programs over plain writes, fences and the fencing
   LL/SC repertoire — the alphabet where the models actually differ. *)
let gen_relaxed_program =
  let open QCheck in
  let gen_step =
    Gen.(
      oneof
        [
          map2 (fun r v -> `Write (r mod 2, v mod 3)) small_nat small_nat;
          return `Fence;
          map (fun r -> `Read (r mod 2)) small_nat;
          map2 (fun r v -> `Swap (r mod 2, v mod 3)) small_nat small_nat;
          map (fun r -> `Ll (r mod 2)) small_nat;
        ])
  in
  let gen = Gen.(pair (list_size (int_range 1 3) gen_step) (list_size (int_range 1 3) gen_step)) in
  make ~print:(fun (a, b) -> Printf.sprintf "<%d,%d relaxed steps>" (List.length a) (List.length b)) gen

let relaxed_program_of_steps steps =
  let open Program.Syntax in
  let vint (v : Value.t) = Hashtbl.hash v land 0xffff in
  let rec go acc = function
    | [] -> Program.return acc
    | `Write (r, v) :: rest ->
      let* () = Program.write r (Value.Int v) in
      go acc rest
    | `Fence :: rest ->
      let* () = Program.fence in
      go acc rest
    | `Read r :: rest ->
      let* v = Program.read r in
      go ((31 * acc) + vint v) rest
    | `Swap (r, v) :: rest ->
      let* old = Program.swap r (Value.Int v) in
      go ((31 * acc) + vint old) rest
    | `Ll r :: rest ->
      let* v = Program.ll r in
      go ((31 * acc) + vint v) rest
  in
  go 0 steps

let relaxed_outcomes ?model ?eager_flush program_of =
  let acc = ref [] in
  ignore
    (Explore.iter ~n:2 ~program_of ?model ?eager_flush
       ~f:(fun run -> acc := List.sort compare run.Explore.results :: !acc)
       ());
  List.sort_uniq compare !acc

(* Satellite: scheduling every flush immediately after its write collapses
   each relaxed model back to SC — the store buffer only matters when the
   scheduler can delay it. *)
let prop_eager_flush_is_sc =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"eager-flush relaxed outcomes = SC outcomes"
       gen_relaxed_program (fun (s0, s1) ->
         let program_of pid = relaxed_program_of_steps (if pid = 0 then s0 else s1) in
         let sc = relaxed_outcomes ~model:Memory_model.SC program_of in
         List.for_all
           (fun model -> relaxed_outcomes ~model ~eager_flush:true program_of = sc)
           [ Memory_model.TSO; Memory_model.PSO ]))

(* Satellite: the model lattice on arbitrary programs — weakening the model
   only ever adds outcomes, never removes one. *)
let prop_model_lattice =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"outcome lattice: SC <= TSO <= PSO"
       gen_relaxed_program (fun (s0, s1) ->
         let program_of pid = relaxed_program_of_steps (if pid = 0 then s0 else s1) in
         let subset a b = List.for_all (fun o -> List.mem o b) a in
         let of_model model = relaxed_outcomes ~model program_of in
         let sc = of_model Memory_model.SC
         and tso = of_model Memory_model.TSO
         and pso = of_model Memory_model.PSO in
         subset sc tso && subset tso pso))

(* Satellite: DPOR soundness extends to the flush alphabet — under TSO and
   PSO the reduced walk reproduces full exploration's outcome set, with and
   without state dedup. *)
let prop_dpor_agrees_relaxed =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"dpor outcomes = full outcomes (tso/pso)"
       gen_relaxed_program (fun (s0, s1) ->
         let program_of pid = relaxed_program_of_steps (if pid = 0 then s0 else s1) in
         List.for_all
           (fun model ->
             let full = relaxed_outcomes ~model program_of in
             List.for_all
               (fun dedup ->
                 let acc = ref [] in
                 ignore
                   (Explore.iter_dpor ~n:2 ~program_of ~model ~dedup
                      ~f:(fun run -> acc := List.sort compare run.Explore.results :: !acc)
                      ());
                 List.sort_uniq compare !acc = full)
               [ false; true ])
           [ Memory_model.TSO; Memory_model.PSO ]))

(* The SB shape, directly under the full explorer: the relaxed outcome
   r0 = r1 = 0 appears under TSO/PSO and never under SC — the same claim the
   litmus suite certifies through the DPOR path, checked here through the
   naive path so the two enumeration engines guard each other. *)
let sb_program_of pid =
  let* () = Program.write pid (Value.Int 1) in
  let* v = Program.read (1 - pid) in
  Program.return (Value.to_int v)

let test_full_iter_store_buffering () =
  let inits = [ (0, Value.Int 0); (1, Value.Int 0) ] in
  let admits model =
    Explore.exists ~n:2 ~program_of:sb_program_of ~inits ~model
      ~f:(fun run -> List.sort compare run.Explore.results = [ (0, 0); (1, 0) ])
      ()
  in
  Alcotest.(check bool) "SC forbids r0=r1=0" false (admits Memory_model.SC);
  Alcotest.(check bool) "TSO admits r0=r1=0" true (admits Memory_model.TSO);
  Alcotest.(check bool) "PSO admits r0=r1=0" true (admits Memory_model.PSO)

(* Pinned reduction row: on SB under TSO the flush alphabet inflates the
   full interleaving count to 74 schedules; DPOR covers the identical
   outcome set in 64.  The reduction is modest here by design — SB is all
   conflicts (every step touches a register the other process reads), and
   the mandatory flush-absorption siblings (Sched_tree.also) add branches
   plain DPOR would not — but a drop in either number is a reduction
   improvement worth noticing and a rise is a regression. *)
let test_dpor_relaxed_reduction_pinned () =
  let inits = [ (0, Value.Int 0); (1, Value.Int 0) ] in
  let full = ref [] in
  let full_count =
    Explore.iter ~n:2 ~program_of:sb_program_of ~inits ~model:Memory_model.TSO
      ~f:(fun run -> full := List.sort compare run.Explore.results :: !full)
      ()
  in
  let dpor = ref [] in
  let dstats =
    Explore.iter_dpor ~n:2 ~program_of:sb_program_of ~inits ~model:Memory_model.TSO
      ~dedup:false
      ~f:(fun run -> dpor := List.sort compare run.Explore.results :: !dpor)
      ()
  in
  Alcotest.(check int) "SB/TSO full interleavings" 74 full_count;
  Alcotest.(check int) "SB/TSO dpor schedules" 64 dstats.Sched_tree.schedules;
  Alcotest.(check bool) "same outcome set" true
    (List.sort_uniq compare !full = List.sort_uniq compare !dpor);
  Alcotest.(check bool) "dpor strictly reduces" true
    (dstats.Sched_tree.schedules < full_count)

(* Satellite regression: a buffered-but-unflushed write must keep two
   states distinct.  [canonical] alone equates "write in flight" with
   "write never issued" — [canonical_full] (the dedup key) does not. *)
let test_canonical_full_distinguishes_buffers () =
  let pm = Pure_memory.create ~model:Memory_model.TSO ~default:(Value.Int 0) ~inits:[] () in
  let resp, buffered = Pure_memory.apply pm ~pid:0 (Op.Write (0, Value.Int 1)) in
  Alcotest.(check bool) "write acked" true (resp = Op.Ack);
  Alcotest.(check bool) "canonical alone collides" true
    (Pure_memory.canonical buffered = Pure_memory.canonical pm);
  Alcotest.(check bool) "canonical_full separates" false
    (Pure_memory.canonical_full buffered = Pure_memory.canonical_full pm);
  let flushed = Pure_memory.flush buffered ~pid:0 ~reg:0 in
  Alcotest.(check bool) "flush changes canonical" false
    (Pure_memory.canonical flushed = Pure_memory.canonical pm);
  Alcotest.(check bool) "flushed state has empty buffers" true
    (Pure_memory.canonical_full flushed = (Pure_memory.canonical flushed, []))

let suite =
  [
    prop_pure_matches_mutable;
    Alcotest.test_case "interleaving counts" `Quick test_run_counts;
    Alcotest.test_case "coin branching" `Quick test_coin_branching;
    Alcotest.test_case "run limit" `Quick test_limit;
    Alcotest.test_case "event order" `Quick test_events_order;
    Alcotest.test_case "exhaustive LL/SC winners" `Quick test_exhaustive_llsc_one_winner;
    Alcotest.test_case "exhaustive wakeup: naive" `Slow test_exhaustive_naive;
    Alcotest.test_case "exhaustive wakeup: post-collect" `Slow test_exhaustive_post_collect;
    Alcotest.test_case "exhaustive wakeup: move-collect" `Slow test_exhaustive_move_collect;
    Alcotest.test_case "exhaustive wakeup: tree-collect" `Slow test_exhaustive_tree_collect;
    Alcotest.test_case "exhaustive wakeup: two-counter" `Slow test_exhaustive_two_counter;
    Alcotest.test_case "exhaustive cheater violation" `Quick test_exhaustive_cheater_found;
    Alcotest.test_case "reduced = full outcomes (corpus)" `Slow test_reduced_corpus;
    Alcotest.test_case "reduced finds cheater" `Quick test_reduced_finds_cheater;
    Alcotest.test_case "reduced verdicts (corpus n=2)" `Slow test_reduced_wakeup_verdicts;
    Alcotest.test_case "reduced = full under a fault plan" `Slow test_reduced_under_fault_plan;
    Alcotest.test_case "exhaustive CAS linearizability" `Slow test_exhaustive_cas;
    prop_dpor_agrees;
    Alcotest.test_case "dpor+dedup counts = reduced counts (corpus)" `Slow
      test_dpor_corpus_agreement;
    Alcotest.test_case "bounded dpor beats sleep-set POR (tree-collect)" `Slow
      test_dpor_bounded_tree_collect;
    Alcotest.test_case "dpor run limit" `Quick test_dpor_limit;
    Alcotest.test_case "dpor finds cheater" `Quick test_dpor_finds_cheater;
    prop_eager_flush_is_sc;
    prop_model_lattice;
    prop_dpor_agrees_relaxed;
    Alcotest.test_case "full iter: store buffering" `Quick test_full_iter_store_buffering;
    Alcotest.test_case "dpor reduction under tso (pinned)" `Quick
      test_dpor_relaxed_reduction_pinned;
    Alcotest.test_case "canonical_full keeps buffered states apart" `Quick
      test_canonical_full_distinguishes_buffers;
  ]
