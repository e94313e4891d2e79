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

(* ---- reduced (DPOR + dedup) exploration agrees with full exploration ---- *)

(* The reduction contract: strictly fewer schedules, identical set of
   distinct (results, wakeup verdict) outcomes. *)
let outcome run ~n =
  (List.sort compare run.Explore.results, Explore.wakeup_ok ~n run)

let distinct l = List.sort_uniq compare l

(* The distinct outcomes of the full walk, and how many runs it took. *)
let full_outcomes ~n ~program_of ~inits ~coin_range =
  let full = ref [] in
  let count =
    Explore.iter ~n ~program_of ~inits ~coin_range
      ~f:(fun run -> full := outcome run ~n :: !full)
      ()
  in
  (distinct !full, count)

(* The outcomes the reduced walk's callback saw, in order, and its stats. *)
let reduced_outcomes ~n ~program_of ~inits ~coin_range =
  let reduced = ref [] in
  let stats =
    Explore.iter_dpor ~n ~program_of ~inits ~coin_range
      ~f:(fun run -> reduced := outcome run ~n :: !reduced)
      ()
  in
  (!reduced, stats)

let reduced_agrees ?(strict = true) name entry ~n ~coin_range =
  let program_of, inits = entry.Corpus.make ~n in
  let full, full_count = full_outcomes ~n ~program_of ~inits ~coin_range in
  let reduced, stats = reduced_outcomes ~n ~program_of ~inits ~coin_range in
  Alcotest.(check int)
    (name ^ ": stats.schedules counts the callback") (List.length reduced)
    stats.Sched_tree.schedules;
  Alcotest.(check bool) (name ^ ": same distinct outcomes") true (full = distinct reduced);
  if strict then
    Alcotest.(check bool)
      (Printf.sprintf "%s: strictly fewer schedules (%d < %d)" name stats.Sched_tree.schedules
         full_count)
      true
      (stats.Sched_tree.schedules < full_count)

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
    (Explore.for_all_dpor ~n:2 ~program_of ~inits
       ~f:(Explore.wakeup_ok ~n:2) ())

let test_reduced_wakeup_verdicts () =
  (* for_all_dpor gives the same verdict as for_all on the whole corpus
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
        Explore.for_all_dpor ~n:2 ~program_of ~inits ~coin_range
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
  let full, full_count = full_outcomes ~n ~program_of ~inits ~coin_range in
  let reduced, stats = reduced_outcomes ~n ~program_of ~inits ~coin_range in
  Alcotest.(check bool)
    (name ^ ": same distinct outcomes under faults") true
    (full = distinct reduced);
  Alcotest.(check bool)
    (Printf.sprintf "%s: no more schedules than full (%d <= %d)" name
       stats.Sched_tree.schedules full_count)
    true
    (stats.Sched_tree.schedules <= full_count)

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
    (Explore.for_all_dpor ~n:2 ~program_of ~inits ~f:zero_never_wins ());
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
   schedule set has one representative per covered class.  Each row pins
   that count (the one [explore --reduced] prints) and checks the walk
   against full exploration's distinct outcomes. *)
let test_dpor_corpus_agreement () =
  List.iter
    (fun (name, entry, n, coin_range, schedules) ->
      let program_of, inits = (entry : Corpus.entry).Corpus.make ~n in
      let full, _ = full_outcomes ~n ~program_of ~inits ~coin_range in
      let dpor, stats = reduced_outcomes ~n ~program_of ~inits ~coin_range in
      Alcotest.(check int) (name ^ ": dpor+dedup schedule count") schedules
        stats.Sched_tree.schedules;
      Alcotest.(check bool) (name ^ ": same distinct outcomes as full") true
        (full = distinct dpor))
    [
      ("naive n=2", Corpus.naive, 2, [ 0 ], 4);
      ("naive n=3", Corpus.naive, 3, [ 0 ], 60);
      ("post-collect n=2", Corpus.post_collect, 2, [ 0 ], 5);
      ("post-collect n=3", Corpus.post_collect, 3, [ 0 ], 52);
      ("move-collect n=2", Corpus.move_collect, 2, [ 0 ], 6);
      ("tree-collect n=2", Corpus.tree_collect, 2, [ 0 ], 100);
      ("two-counter n=2", Corpus.two_counter, 2, [ 0; 1 ], 38);
      ("backoff-collect n=2", Corpus.backoff_collect, 2, [ 0; 1 ], 16);
    ];
  (* Full enumeration is out of reach at naive-collect n=4, so this row
     pins the counts alone. *)
  let program_of, inits = Corpus.naive.Corpus.make ~n:4 in
  let _, stats = reduced_outcomes ~n:4 ~program_of ~inits ~coin_range:[ 0 ] in
  Alcotest.(check (pair int int))
    "naive n=4: dpor+dedup schedules and deduped runs" (3120, 1985)
    (stats.Sched_tree.schedules, stats.Sched_tree.deduped)

(* The headline reduction: on tree-collect n=2, the unbounded sleep-set
   DPOR walk explores 100 schedules (pinned above); the pre-emption-
   bounded walk explores strictly fewer, reports exactly what the bound
   elided, and still reproduces full exploration's outcome set
   (empirically — bounding is unsound in general, which is why
   [stats.elided] exists). *)
let test_dpor_bounded_tree_collect () =
  let program_of, inits = Corpus.tree_collect.Corpus.make ~n:2 in
  let full, _ = full_outcomes ~n:2 ~program_of ~inits ~coin_range:[ 0 ] in
  let unbounded = 100 in
  let check_bounded ~preempt ~dedup =
    let dpor = ref [] in
    let bounds = { Sched_tree.no_bounds with preempt = Some preempt } in
    let dstats =
      Explore.iter_dpor ~n:2 ~program_of ~inits ~coin_range:[ 0 ] ~bounds ~dedup
        ~f:(fun run -> dpor := outcome run ~n:2 :: !dpor)
        ()
    in
    Alcotest.(check bool)
      (Printf.sprintf "preempt<=%d: strictly fewer schedules (%d < %d)" preempt
         dstats.Sched_tree.schedules unbounded)
      true
      (dstats.Sched_tree.schedules < unbounded);
    Alcotest.(check bool)
      (Printf.sprintf "preempt<=%d: truncation is reported" preempt)
      true
      (dstats.Sched_tree.elided > 0 && not (Sched_tree.exhaustive dstats));
    Alcotest.(check bool)
      (Printf.sprintf "preempt<=%d: identical outcome set" preempt)
      true
      (full = distinct !dpor)
  in
  check_bounded ~preempt:1 ~dedup:false;
  check_bounded ~preempt:2 ~dedup:true

let test_dpor_limit () =
  (* Satellite regression: the run cap surfaces as [Limit_exceeded], like
     [iter] — not as a silent truncation. *)
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
   the mandatory flush-absorption siblings (a step's [absorbed] ids) add
   branches plain DPOR would not — but a drop in either number is a reduction
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

(* ---- visit order of the DPOR walk ---- *)

(* The schedule counts above would not notice a walk that reaches the same
   schedules in a different order — and the order matters: [sleep0_of] is
   only sound under the deepest-first walk.  Each cell pins a digest of the
   ordered list of completed runs, one line per run, every event with its
   invocation and response. *)
let render_event = function
  | Explore.Stepped (pid, inv, resp) ->
    Format.asprintf "%d:%a=%a" pid Op.pp_invocation inv Op.pp_response resp
  | Explore.Flushed (pid, reg, v) -> Format.asprintf "%d:flush R%d=%a" pid reg Value.pp v
  | Explore.Returned (pid, r) -> Printf.sprintf "%d:ret %d" pid r

(* ---- re-arming a drained subtree ---- *)

(* A step machine for [Sched_tree.drive]: process [p] performs the
   footprints [procs.(p)] in order and nothing else, and the dedup key of
   a state is [key] of the program counters.  Returns the walk's stats,
   every run in launch order — its pid trail, with " cut" when the oracle
   aborted it — and the depth each run started at.  With [resume] the
   machine's snapshot is its state (program counters and trail), so each
   run resumes where its path leaves the previous run's; without it every
   run replays from the root and starts at depth 0. *)
let synthetic_walk ?bounds ?(resume = false) procs ~key =
  let n = Array.length procs in
  let log = ref [] and starts = ref [] in
  (* The run in progress: its trail so far and whether it completed. *)
  let current = ref None in
  let close () =
    Option.iter
      (fun (trail, completed) -> log := (if completed then trail else trail ^ " cut") :: !log)
      !current;
    current := None
  in
  let machine =
    {
      Sched_tree.reset =
        (fun () ->
          close ();
          (Array.make n 0, ""));
      poll =
        (fun ((pc, trail) as s) ->
          if !current = None then starts := String.length trail :: !starts;
          let enabled =
            List.filter (fun p -> pc.(p) < Array.length procs.(p)) (List.init n Fun.id)
          in
          current := Some (trail, enabled = []);
          (s, if enabled = [] then Sched_tree.Finished true else Sched_tree.Enabled enabled));
      exec =
        (fun (pc, trail) ~enabled:_ p ->
          let pc' = Array.copy pc in
          pc'.(p) <- pc.(p) + 1;
          {
            Sched_tree.fp = procs.(p).(pc.(p));
            branches = 1;
            absorbed = [];
            next = (fun _ -> (pc', trail ^ string_of_int p));
          });
      key = Some (fun (pc, _) -> key pc);
      snapshot = (if resume then Some (fun s () -> s) else None);
      judge = (fun _ _ -> ());
    }
  in
  let stats = Sched_tree.drive ?bounds machine ~f:(fun () -> true) () in
  close ();
  (stats, List.rev !log, List.rev !starts)

(* A todo can land in a subtree the walk has already drained: a run cut at
   a covered state subscribes to that state's summary, and when the
   summary grows later the cut run's prefix is raced again and re-armed
   ([virtual_backtracks] through the old run's node path).  No corpus cell
   does this.  Here a deliberately coarse key — the program counters
   weighted 9/3/1, mod 5 — makes dedup collide often.  Run 1 ("0011") is
   cut when it revisits its own first state.  Run 2 ("002") passes that
   state and adds process 2's step on R0 to its summary, which re-arms
   process 2 at depth 3 of run 1's path, against process 1's step on R0 —
   a node the walk drained before launching run 2.  Losing that todo
   drops runs 3 and 4, and with them the only completed schedule.  The key
   is not a sound abstraction; the pin is on the walk's mechanics. *)
let rearm_procs =
  let fp r = { Race.regs = [ r ]; blocking = false } in
  [| [| fp 2; fp 1 |]; [| fp 1; fp 0 |]; [| fp 0; fp 0 |] |]

let rearm_key pc = ((9 * pc.(0)) + (3 * pc.(1)) + pc.(2)) mod 5

let check_rearm_walk (stats : Sched_tree.stats) log =
  Alcotest.(check (list string))
    "runs in launch order"
    [ "0011 cut"; "002 cut"; "00122 cut"; "001212"; "01 cut" ]
    log;
  Alcotest.(check (list int))
    "schedules, sleep-blocked, deduped, elided, depth" [ 1; 0; 4; 0; 6 ]
    Sched_tree.
      [ stats.schedules; stats.sleep_blocked; stats.deduped; stats.elided; stats.max_depth ]

let test_rearm_drained_subtree () =
  let stats, log, _ = synthetic_walk rearm_procs ~key:rearm_key in
  check_rearm_walk stats log

(* The same walk with a resuming runner.  Each run starts where its path
   leaves the previous run's: run 3 ("00122") diverges on run 1's path, not
   run 2's ("002"), so it resumes run 2's state at depth 2, replays "1"
   and only then takes its divergence decision — a partial resume. *)
let test_rearm_drained_subtree_resumed () =
  let stats, log, starts = synthetic_walk ~resume:true rearm_procs ~key:rearm_key in
  check_rearm_walk stats log;
  Alcotest.(check (list int)) "resumed depths" [ 0; 2; 2; 4; 1 ] starts

(* schedules/sleep-blocked/deduped/elided/depth *)
let pp_walk_stats (s : Sched_tree.stats) =
  Printf.sprintf "%d/%d/%d/%d/%d" s.schedules s.sleep_blocked s.deduped s.elided s.max_depth

let visit_order iter =
  let buf = Buffer.create 4096 in
  let stats =
    iter ~f:(fun run ->
        List.iter
          (fun e ->
            Buffer.add_string buf (render_event e);
            Buffer.add_char buf ' ')
          run.Explore.events;
        Buffer.add_char buf '\n')
  in
  (stats, Digest.to_hex (Digest.string (Buffer.contents buf)))

(* A random program for [synthetic_walk]: two or three processes of three
   to six steps each, every step on one or two of registers 0-2, one step
   in ten blocking. *)
let synthetic_procs rng =
  let step () =
    let r = Random.State.int rng 3 in
    let regs =
      if Random.State.int rng 4 = 0 then List.sort_uniq compare [ r; Random.State.int rng 3 ]
      else [ r ]
    in
    { Race.regs; blocking = Random.State.int rng 10 = 0 }
  in
  Array.init (2 + Random.State.int rng 2) (fun _ ->
      Array.init (3 + Random.State.int rng 4) (fun _ -> step ()))

(* Resuming is invisible to the walk: over seeded synthetic programs, key
   moduli 3-7 and each kind of bound, the resuming runner launches the
   same runs in the same order with the same stats as the replaying one.
   And it really resumes: each run starts at the depth its path shares
   with the previous run's — its save there is the deepest one it can use,
   as the runner saves after every step. *)
let prop_resume_is_replay =
  let bounds =
    Sched_tree.
      [|
        no_bounds;
        { no_bounds with preempt = Some 1 };
        { no_bounds with fair = Some 1 };
        { no_bounds with length = Some 5 };
      |]
  in
  (* The common prefix of two runs' pid trails. *)
  let shared a b =
    let trail run = List.hd (String.split_on_char ' ' run) in
    let a = trail a and b = trail b in
    let rec go i =
      if i < String.length a && i < String.length b && a.[i] = b.[i] then go (i + 1) else i
    in
    go 0
  in
  let rec resumed_at = function
    | a :: (b :: _ as rest) -> shared a b :: resumed_at rest
    | _ -> []
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"dpor resume = replay (synthetic walks)"
       QCheck.(triple (int_bound 9_999) (int_range 3 7) (int_bound 3))
       (fun (seed, modulus, b) ->
         let procs = synthetic_procs (Random.State.make [| seed |]) in
         let key pc = Array.map (fun c -> c mod modulus) pc in
         let bounds = bounds.(b) in
         let stats, log, _ = synthetic_walk ~bounds procs ~key in
         let stats', log', starts = synthetic_walk ~bounds ~resume:true procs ~key in
         stats = stats' && log = log' && starts = 0 :: resumed_at log))

(* Each cell pins the walk's stats and a digest of the ordered list of
   completed runs, one line per run, every event with its invocation and
   response; a synthetic cell's digest covers its launch-order log, cut
   runs included.  The stateful cells (dedup on) exercise the summary
   pass: move-collect n=3 and two-counter n=3 through thousands of cuts,
   the litmus shapes through flush decisions, and the synthetic walks
   through deliberately colliding keys — each program counter taken mod 3
   to 7, so a process's fourth step can look like its first, and cuts and
   summary re-fires are frequent (as in [test_rearm_drained_subtree]).
   The digests predate the interned dedup keys and summary bitsets of
   [Explore.iter_dpor] and [Sched_tree.explore], which must reproduce
   them exactly.  Naive-collect n=4 (1,985 cuts over 3,120 schedules) and
   fetch&inc via adt-tree n=2 (9,344 cuts, histories up to 36 steps long)
   lean hardest on the summary pass and the hash-consed histories; their
   lines were derived at the parent of the change that made the summary
   pass start at the divergence. *)
let test_dpor_visit_order_pinned () =
  let corpus entry ~n ~coin_range ~f =
    let program_of, inits = entry.Corpus.make ~n in
    Explore.iter_dpor ~n ~program_of ~inits ~coin_range ~dedup:true ~f ()
  in
  let sb_tso ~f =
    let inits = [ (0, Value.Int 0); (1, Value.Int 0) ] in
    Explore.iter_dpor ~n:2 ~program_of:sb_program_of ~inits ~model:Memory_model.TSO
      ~dedup:false ~f ()
  in
  let litmus name model ~f =
    let t = Option.get (Litmus.find name) in
    Explore.iter_dpor ~n:t.Litmus.n ~program_of:t.Litmus.program_of ~inits:t.Litmus.inits
      ~model ~f ()
  in
  let cells =
    [
      ("post-collect n=3", corpus Corpus.post_collect ~n:3 ~coin_range:[ 0 ]);
      ("move-collect n=2", corpus Corpus.move_collect ~n:2 ~coin_range:[ 0 ]);
      ("two-counter n=2", corpus Corpus.two_counter ~n:2 ~coin_range:[ 0; 1 ]);
      ("SB under TSO", sb_tso);
      ("move-collect n=3", corpus Corpus.move_collect ~n:3 ~coin_range:[ 0 ]);
      ("two-counter n=3", corpus Corpus.two_counter ~n:3 ~coin_range:[ 0; 1 ]);
      ("SB under TSO, dedup", litmus "sb" Memory_model.TSO);
      ("SB under PSO, dedup", litmus "sb" Memory_model.PSO);
      ("IRIW under TSO, dedup", litmus "iriw" Memory_model.TSO);
      ("IRIW under PSO, dedup", litmus "iriw" Memory_model.PSO);
      ("naive-collect n=4", corpus Corpus.naive ~n:4 ~coin_range:[ 0 ]);
      ( "fetch&inc via adt-tree n=2",
        corpus (Option.get (Corpus.find "fetch&inc via adt-tree")) ~n:2 ~coin_range:[ 0 ] );
    ]
  in
  let got =
    List.map
      (fun (name, iter) ->
        let stats, digest = visit_order iter in
        Printf.sprintf "%s: %s %s" name (pp_walk_stats stats) digest)
      cells
    @ List.init 20 (fun seed ->
          let procs = synthetic_procs (Random.State.make [| seed |]) in
          let modulus = 3 + (seed mod 5) in
          let key pc = Array.map (fun c -> c mod modulus) pc in
          let stats, log, _ = synthetic_walk procs ~key in
          Printf.sprintf "synthetic seed %d: %s %s" seed (pp_walk_stats stats)
            (Digest.to_hex (Digest.string (String.concat "\n" log))))
  in
  Alcotest.(check (list string))
    "visit order"
    [
      "post-collect n=3: 52/0/634/0/15 96dd9ed2257cb19a5b59bc42d11cd37a";
      "move-collect n=2: 6/0/30/0/12 05145f2788151453b639e16bcc040dc0";
      "two-counter n=2: 38/0/86/0/12 4116cfdef1fd4f98a99158b3b87aaaee";
      "SB under TSO: 64/2/0/0/8 440ee1a74de904aa6ca8a1b6ed9a362a";
      "move-collect n=3: 66/0/6457/0/24 1a4a883adfa696343a18bea0e8e0239c";
      "two-counter n=3: 2424/0/17989/0/21 5517fb3923fe1380200ed40b75393c80";
      "SB under TSO, dedup: 8/2/16/0/8 90e489e585c09e1dc9e60f4ffef1fcdc";
      "SB under PSO, dedup: 8/2/16/0/8 90e489e585c09e1dc9e60f4ffef1fcdc";
      "IRIW under TSO, dedup: 40/0/161/0/12 6ebb9cd5f18404f6ecb00c4d40efe727";
      "IRIW under PSO, dedup: 40/0/161/0/12 6ebb9cd5f18404f6ecb00c4d40efe727";
      "naive-collect n=4: 3120/0/1985/0/24 7f32c3df9deab078a6c27ee29ec23125";
      "fetch&inc via adt-tree n=2: 1488/0/9344/0/36 b2090307136be0218678d1fddef4a3d9";
      "synthetic seed 0: 1/0/4/0/6 8d81ff3c192fd4b26c118ce1a5e6633d";
      "synthetic seed 1: 0/0/1/0/5 f5cccc57f426d434aae74ae283c5b33b";
      "synthetic seed 2: 0/0/142/0/12 ed79e45fd90801f9940a13ea99aaa659";
      "synthetic seed 3: 1/0/323/0/16 c9ccd1b0a123be4931a6f1866a549b1a";
      "synthetic seed 4: 2/0/20/0/9 a2c8c411dc8c67df16728ddea29c1524";
      "synthetic seed 5: 0/0/1/0/4 fea4534be1bc17a6e09a8f89ff00bd48";
      "synthetic seed 6: 0/0/8/0/7 5e7aaf80833749031694f3e41e1d6ddd";
      "synthetic seed 7: 0/0/1/0/6 8a9084a56c43c8346dd7c7f8493f8b7c";
      "synthetic seed 8: 1/0/28/0/12 d4cdeb4839f08904473d2a7292e8a122";
      "synthetic seed 9: 2/0/22/0/10 2c7cd0b1ea0f751f0da49245a3578a32";
      "synthetic seed 10: 0/0/1/0/4 fea4534be1bc17a6e09a8f89ff00bd48";
      "synthetic seed 11: 0/0/16/0/8 e790bd1cc52441fe7ee878625aa23cc3";
      "synthetic seed 12: 1/0/19/0/9 1d9a611a6365f714583222552f73dc0b";
      "synthetic seed 13: 2/0/2/0/10 b691f87d247531b7321f79a6ec33cc23";
      "synthetic seed 14: 2/0/14/0/8 92aa7e03af3b43f00b897f3ff56ed7af";
      "synthetic seed 15: 0/0/6/0/6 6df5af74bdd39e8f2f290ee7d2fa0ae7";
      "synthetic seed 16: 0/0/1/0/5 f5cccc57f426d434aae74ae283c5b33b";
      "synthetic seed 17: 3/1/144/0/12 2d78d21265e3854fc609425703e1a93c";
      "synthetic seed 18: 2/0/7/0/8 d90846e424298145ac211bd0ec4886f8";
      "synthetic seed 19: 3/0/205/0/12 0efe1c8c207f62630dfed3a3555d94a2";
    ]
    got

(* The digests above come from unbounded walks; a bound changes what
   [request] does with a race — under a pre-emption bound it adds BPOR's
   companion point, and a todo outside the bound is counted as elided
   instead of queued.  These cells pin the same synthetic walks under each
   kind of bound.  The digests were derived at the parent of the change
   that added them. *)
let test_dpor_visit_order_bounded_pinned () =
  let bounds =
    Sched_tree.
      [
        { no_bounds with preempt = Some 1 };
        { no_bounds with fair = Some 1 };
        { no_bounds with length = Some 5 };
      ]
  in
  let got =
    List.concat_map
      (fun bounds ->
        List.init 10 (fun seed ->
            let procs = synthetic_procs (Random.State.make [| seed |]) in
            let modulus = 3 + (seed mod 5) in
            let key pc = Array.map (fun c -> c mod modulus) pc in
            let stats, log, _ = synthetic_walk ~bounds procs ~key in
            Format.asprintf "synthetic seed %d, %a: %s %s" seed Sched_tree.pp_bounds bounds
              (pp_walk_stats stats)
              (Digest.to_hex (Digest.string (String.concat "\n" log)))))
      bounds
  in
  Alcotest.(check (list string))
    "visit order"
    [
      "synthetic seed 0, preempt<=1: 1/0/2/1/6 5078d4ebe433b749d12032b21849ea28";
      "synthetic seed 1, preempt<=1: 0/0/1/0/5 f5cccc57f426d434aae74ae283c5b33b";
      "synthetic seed 2, preempt<=1: 0/0/42/44/12 0082e46716ce9c065e02a3636256b872";
      "synthetic seed 3, preempt<=1: 1/0/21/41/16 449b84573a04107c11cd41ee1b3980ca";
      "synthetic seed 4, preempt<=1: 2/0/7/4/9 0362848741b0cc1ffebbd0b37532ae0e";
      "synthetic seed 5, preempt<=1: 0/0/1/0/4 fea4534be1bc17a6e09a8f89ff00bd48";
      "synthetic seed 6, preempt<=1: 0/0/4/2/7 aab9c1e01683c56412e8a65345df9a31";
      "synthetic seed 7, preempt<=1: 0/0/1/0/6 8a9084a56c43c8346dd7c7f8493f8b7c";
      "synthetic seed 8, preempt<=1: 1/0/6/13/12 1895572a070824dc38100a231f0051ba";
      "synthetic seed 9, preempt<=1: 2/0/8/6/10 2fbdc23c88c048ec00f271e5eb2b6eb2";
      "synthetic seed 0, fair<=1: 2/0/1/1/6 5afa45ef1a914096437267a39347b0d6";
      "synthetic seed 1, fair<=1: 1/0/2/9/10 8434b9290424ed04d46dac9cc7cbaf4e";
      "synthetic seed 2, fair<=1: 1/0/8/32/13 cc5d05665793bad3faa456aea11ef822";
      "synthetic seed 3, fair<=1: 2/0/18/38/16 eecd70949cb40629172f99d599e3ae27";
      "synthetic seed 4, fair<=1: 1/0/2/7/9 1241b2b94e7318e34a1f0f7fae5ddc57";
      "synthetic seed 5, fair<=1: 0/0/3/20/11 9a5eb55cfba5837f1ed0df4b3b77fd94";
      "synthetic seed 6, fair<=1: 1/0/3/6/8 2c3781f00c282cc8aec909ed28678c05";
      "synthetic seed 7, fair<=1: 1/0/11/26/14 5bf25c3930339ef401517d57a5ed2e1b";
      "synthetic seed 8, fair<=1: 1/0/2/13/12 a0660e214ab35923fe864ab029e5186d";
      "synthetic seed 9, fair<=1: 1/0/2/7/10 6c43e3702759708bc959ade9100d7cdd";
      "synthetic seed 0, length<=5: 0/0/4/1/5 1266f19d7bba107a64df674891dc7069";
      "synthetic seed 1, length<=5: 0/0/1/0/5 f5cccc57f426d434aae74ae283c5b33b";
      "synthetic seed 2, length<=5: 0/0/2/3/5 06681dc65552ac315b05e0f52a9e0733";
      "synthetic seed 3, length<=5: 0/0/0/4/5 ab34a367b11e1d52ca47afe374d772b8";
      "synthetic seed 4, length<=5: 0/0/0/1/5 f5cccc57f426d434aae74ae283c5b33b";
      "synthetic seed 5, length<=5: 0/0/1/0/4 fea4534be1bc17a6e09a8f89ff00bd48";
      "synthetic seed 6, length<=5: 0/0/4/2/5 9249b354d5b0be0862489e3b17ea0380";
      "synthetic seed 7, length<=5: 0/0/0/1/5 f5cccc57f426d434aae74ae283c5b33b";
      "synthetic seed 8, length<=5: 0/0/0/1/5 f5cccc57f426d434aae74ae283c5b33b";
      "synthetic seed 9, length<=5: 0/0/0/1/5 f5cccc57f426d434aae74ae283c5b33b";
    ]
    got

(* The rows above see few summary re-fires: a subscription fires again
   only when the state a run was cut at learns a step after the cut, and
   no corpus walk does that.  The first nine synthetic walks were picked
   because they do, 116 times in all, 19 of them pushing a todo (counted on an
   instrumented build), under no bound, preempt <= 1 and fair <= 1; a
   re-fire rebuilds the cut run's race analysis and root path from its
   trace, and these digests pin what it then requests.  They were derived
   at the parent of the change that stopped subscriptions keeping those.
   The last row is the only walk among seeds 0-9999, moduli 3-7 and these
   three bounds that a re-fire's race at trace position 0 changes: a
   re-fire that drops races at position 0 walks it differently, and no
   other row sees that.  Its line was derived at the parent of the change
   that keeps the race analysis across runs. *)
let test_dpor_visit_order_refired_pinned () =
  let cells =
    Sched_tree.
      [
        (9104, 4, no_bounds);
        (8487, 5, no_bounds);
        (4849, 6, no_bounds);
        (4001, 5, no_bounds);
        (8370, 5, no_bounds);
        (6320, 5, { no_bounds with preempt = Some 1 });
        (6991, 7, { no_bounds with preempt = Some 1 });
        (4277, 4, { no_bounds with fair = Some 1 });
        (8145, 4, { no_bounds with fair = Some 1 });
        (3024, 4, { no_bounds with fair = Some 1 });
      ]
  in
  let got =
    List.map
      (fun (seed, modulus, bounds) ->
        let procs = synthetic_procs (Random.State.make [| seed |]) in
        let key pc = Array.map (fun c -> c mod modulus) pc in
        let stats, log, _ = synthetic_walk ~bounds procs ~key in
        Format.asprintf "synthetic seed %d mod %d, %a: %s %s" seed modulus Sched_tree.pp_bounds
          bounds (pp_walk_stats stats)
          (Digest.to_hex (Digest.string (String.concat "\n" log))))
      cells
  in
  Alcotest.(check (list string))
    "visit order"
    [
      "synthetic seed 9104 mod 4, unbounded: 0/0/85/0/12 6814441aa9f2e6cc1f661a4c31160e73";
      "synthetic seed 8487 mod 5, unbounded: 0/2/235/0/15 3e1d3fa3cd3814a9e7858ce0aae9b300";
      "synthetic seed 4849 mod 6, unbounded: 1/3/285/0/15 21f7e054013ad72959d31d7e59b89dad";
      "synthetic seed 4001 mod 5, unbounded: 1/2/143/0/12 f00684ce9f4728b779060d8607a35906";
      "synthetic seed 8370 mod 5, unbounded: 0/4/161/0/12 a728eea0d01b44c97b0360da5bdb3a31";
      "synthetic seed 6320 mod 5, preempt<=1: 0/0/22/17/12 631c2315cf9bf7bd2d8a3b5ff82a5dbe";
      "synthetic seed 6991 mod 7, preempt<=1: 3/1/53/109/17 414bcafbb8793561637dbe2160a9da71";
      "synthetic seed 4277 mod 4, fair<=1: 1/1/6/39/15 0665249914c08a08819b35b5656480de";
      "synthetic seed 8145 mod 4, fair<=1: 0/0/14/69/14 c13ae644404568ba8001bc9ec2b1519b";
      "synthetic seed 3024 mod 4, fair<=1: 0/0/14/61/14 32f764d5aff7da81cc5aba3adad1e217";
    ]
    got

(* ---- the race analysis against the quadratic scan it replaced ---- *)

(* The race analysis that [Race]'s analyzer replaced, verbatim but for
   reading [(pid, fp)] pairs: happens-before from every dependent pair,
   and every dependent pair scanned for a bridging step. *)
let reference_hb trace =
  let len = Array.length trace in
  let pids = ref [] in
  let pix =
    Array.map
      (fun (pid, _) ->
        let rec find i = function
          | [] ->
            pids := !pids @ [ pid ];
            i
          | q :: rest -> if q = pid then i else find (i + 1) rest
        in
        find 0 !pids)
      trace
  in
  let m = max (List.length !pids) 1 in
  let vc = Array.make_matrix (max len 1) m 0 in
  let seq = Array.make (max len 1) 0 in
  let last_of = Array.make m (-1) in
  for j = 0 to len - 1 do
    let p = pix.(j) in
    let join i =
      for q = 0 to m - 1 do
        if vc.(i).(q) > vc.(j).(q) then vc.(j).(q) <- vc.(i).(q)
      done
    in
    if last_of.(p) >= 0 then join last_of.(p);
    for i = 0 to j - 1 do
      if Race.dependent (snd trace.(i)) (snd trace.(j)) then join i
    done;
    vc.(j).(p) <- vc.(j).(p) + 1;
    seq.(j) <- vc.(j).(p);
    last_of.(p) <- j
  done;
  fun i j -> i = j || (i < j && vc.(j).(pix.(i)) >= seq.(i))

let reference_races trace hb =
  let len = Array.length trace in
  let reversible i j =
    let bridged = ref false in
    let k = ref (i + 1) in
    while (not !bridged) && !k < j do
      if hb i !k && hb !k j then bridged := true;
      incr k
    done;
    not !bridged
  in
  let races = ref [] in
  for j = 1 to len - 1 do
    let p, fpj = trace.(j) in
    for i = j - 1 downto 0 do
      let q, fpi = trace.(i) in
      if q <> p && Race.dependent fpi fpj && reversible i j then races := (i, j) :: !races
    done
  done;
  List.rev !races

let reference_virtual_races trace hb q fq =
  let len = Array.length trace in
  let races = ref [] in
  for i = len - 1 downto 0 do
    let p, fp = trace.(i) in
    if p <> q && Race.dependent fp fq then begin
      let bridged = ref false in
      for k = i + 1 to len - 1 do
        if
          (not !bridged)
          && hb i k
          && (fst trace.(k) = q || Race.dependent (snd trace.(k)) fq)
        then bridged := true
      done;
      if not !bridged then races := i :: !races
    end
  done;
  List.rev !races

(* Random traces: 0-80 steps of 2-6 processes over registers 0-5, each
   step on one or two registers or on none (a fence), one in eight
   blocking. *)
let gen_race_fp =
  let open QCheck.Gen in
  map2
    (fun regs k -> { Race.regs; blocking = k = 0 })
    (frequency
       [
         (1, return []);
         (6, map (fun r -> [ r ]) (int_bound 5));
         (3, map2 (fun a b -> List.sort_uniq compare [ a; b ]) (int_bound 5) (int_bound 5));
       ])
    (int_bound 7)

let gen_race_trace =
  let open QCheck.Gen in
  int_range 2 6 >>= fun pids ->
  int_range 0 80 >>= fun len ->
  map
    (fun steps -> (pids, Array.of_list steps))
    (list_repeat len (pair (int_bound (pids - 1)) gen_race_fp))

let print_race_step (p, (fp : Race.fp)) =
  Printf.sprintf "%d:[%s]%s" p
    (String.concat "," (List.map string_of_int fp.regs))
    (if fp.blocking then "!" else "")

let print_race_trace (pids, trace) =
  Printf.sprintf "%d pids: %s" pids
    (String.concat " " (Array.to_list (Array.map print_race_step trace)))

(* The analysis of a whole trace by a fresh analyzer. *)
let fresh_analysis trace =
  let z = Race.analyzer () in
  Array.iter (fun (pid, fp) -> Race.extend z pid fp) trace;
  Race.analysis z

(* The linear analysis agrees with the quadratic one: the same
   happens-before on every pair, the same reversible races in the same
   order, and the same races against a virtual step of every process (one
   absent from the trace included) with a spread of footprints. *)
let prop_race_analysis =
  let virtual_fps =
    Race.(
      { regs = []; blocking = false }
      :: { regs = []; blocking = true }
      :: { regs = [ 1; 4 ]; blocking = false }
      :: { regs = [ 2 ]; blocking = true }
      :: List.init 6 (fun r -> { regs = [ r ]; blocking = false }))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"race analysis = quadratic race scan"
       (QCheck.make ~print:print_race_trace gen_race_trace)
       (fun (pids, trace) ->
         let len = Array.length trace in
         let hb = reference_hb trace in
         let a = fresh_analysis trace in
         let pairs = List.init len (fun i -> List.init len (fun j -> (i, j))) |> List.concat in
         List.for_all (fun (i, j) -> a.Race.hb i j = hb i j) pairs
         && a.Race.races = reference_races trace hb
         && List.for_all
              (fun q ->
                List.for_all
                  (fun fq ->
                    a.Race.virtual_races q fq = reference_virtual_races trace hb q fq)
                  virtual_fps)
              (List.init (pids + 1) Fun.id)))

(* The analyzer a walk keeps across runs agrees with a fresh one: over
   random sequences of "cut to depth k, extend by a random suffix" on one
   analyzer, after each step its races (in order), its happens-before on
   every pair and its races against drawn virtual steps (of every process,
   one absent from the trace included) equal those of a fresh analyzer's
   on the same trace.  Each step is (k, suffix, virtual steps), with k
   taken modulo one more than the trace's length. *)
let gen_kept_analyzer =
  let open QCheck.Gen in
  int_range 2 6 >>= fun pids ->
  let step = pair (int_bound (pids - 1)) gen_race_fp in
  map
    (fun steps -> (pids, steps))
    (list_size (int_range 1 8)
       (triple nat
          (list_size (int_range 0 30) step)
          (list_size (int_range 1 4) (pair (int_bound pids) gen_race_fp))))

let print_kept_analyzer (pids, steps) =
  let one (k, suffix, probes) =
    Printf.sprintf "cut %d, extend %s, probe %s" k
      (String.concat " " (List.map print_race_step suffix))
      (String.concat " " (List.map print_race_step probes))
  in
  Printf.sprintf "%d pids: %s" pids (String.concat "; " (List.map one steps))

let prop_kept_analyzer =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"kept race analysis = fresh analysis"
       (QCheck.make ~print:print_kept_analyzer gen_kept_analyzer)
       (fun (_, steps) ->
         let z = Race.analyzer () in
         let trace = ref [||] in
         List.for_all
           (fun (k, suffix, probes) ->
             let k = k mod (Array.length !trace + 1) in
             Race.cut z k;
             List.iter (fun (p, fp) -> Race.extend z p fp) suffix;
             trace := Array.append (Array.sub !trace 0 k) (Array.of_list suffix);
             let len = Array.length !trace in
             let kept = Race.analysis z and fresh = fresh_analysis !trace in
             kept.Race.races = fresh.Race.races
             && List.for_all
                  (fun i ->
                    List.for_all
                      (fun j -> kept.Race.hb i j = fresh.Race.hb i j)
                      (List.init len Fun.id))
                  (List.init len Fun.id)
             && List.for_all
                  (fun (q, fq) ->
                    kept.Race.virtual_races q fq = fresh.Race.virtual_races q fq)
                  probes)
           steps))

(* Executed program steps: [counted program_of] wraps every [Op]
   continuation with a counter, so the count is the number of steps the
   runner really performed, resumed prefixes excluded. *)
let counted program_of =
  let steps = ref 0 in
  let rec wrap = function
    | Program.Return _ as p -> p
    | Program.Op (inv, k) ->
      Program.Op
        ( inv,
          fun r ->
            incr steps;
            wrap (k r) )
    | Program.Toss k -> Program.Toss (fun o -> wrap (k o))
  in
  (steps, fun pid -> wrap (program_of pid))

(* A deterministic gate on the fork: how many program steps a whole
   [iter_dpor] walk executes.  The replay counts were derived at the
   parent of the change that made runs resume, with this same counter:
   every run replayed its prefix from the initial state.  On move-collect
   n=3 each of the 6,522 runs after the first resumes one step short of
   its divergence, so it executes its divergence step and its fresh steps
   and nothing else: 11,302 = the first run's 21 steps + 6,522 divergence
   steps + 4,759 fresh ones.  A run that replayed even one prefix step
   would raise the count. *)
let test_dpor_executed_steps () =
  let walk ~n ~program_of ~inits ?model () =
    let steps, program_of = counted program_of in
    let stats = Explore.iter_dpor ~n ~program_of ~inits ?model ~f:ignore () in
    (stats, !steps)
  in
  let move_collect () =
    let program_of, inits = Corpus.move_collect.Corpus.make ~n:3 in
    walk ~n:3 ~program_of ~inits ()
  in
  let iriw_pso () =
    let t = Option.get (Litmus.find "iriw") in
    walk ~n:t.Litmus.n ~program_of:t.Litmus.program_of ~inits:t.Litmus.inits
      ~model:Memory_model.PSO ()
  in
  List.iter
    (fun (name, cell, pinned_stats, replayed, pinned) ->
      let stats, steps = cell () in
      Alcotest.(check string) (name ^ " stats") pinned_stats (pp_walk_stats stats);
      Alcotest.(check int)
        (Printf.sprintf "%s executed steps (%d when every run replayed)" name replayed)
        pinned steps)
    [
      ("move-collect n=3", move_collect, "66/0/6457/0/24", 89_073, 11_302);
      ("IRIW under PSO", iriw_pso, "40/0/161/0/12", 917, 302);
    ]

(* ---- the stateful-DPOR state key ---- *)

(* A random [Explore.state_key] built from [seed].  The shape (which
   registers, buffers, histories, list lengths) comes from one stream;
   every leaf (a value, a Pset, an invocation, a response, a coin
   outcome, the summary's set) draws from a stream of its own, numbered
   in build order.  Leaf [redraw] draws from a different stream instead,
   so the result differs from the [redraw = -1] key in that leaf alone.
   Returns the key and its leaf count. *)
let random_state_key ~seed ~redraw =
  let shape = Random.State.make [| seed |] in
  let leaves = ref 0 in
  let leaf draw =
    let i = !leaves in
    incr leaves;
    draw (Random.State.make (if i = redraw then [| seed; i; 1 |] else [| seed; i |]))
  in
  let int rng k = Random.State.int rng k in
  let rec value rng depth =
    match int rng (if depth = 0 then 5 else 8) with
    | 0 -> Value.Int (int rng 1000 - 500)
    | 1 -> Value.Bits (Bitvec.of_int ~width:(1 + int rng 130) (int rng 1_000_000))
    | 2 -> Value.Bits (Bitvec.ones (1 + int rng 130))
    | 3 -> Value.Str (String.init (int rng 6) (fun _ -> Char.chr (97 + int rng 26)))
    | 4 -> if Random.State.bool rng then Value.Bool (Random.State.bool rng) else Value.Unit
    | 5 | 6 -> Value.Pair (value rng (depth - 1), value rng (depth - 1))
    | _ -> Value.List (List.init (int rng 4) (fun _ -> value rng (depth - 1)))
  in
  let pset rng =
    Ids.of_list (List.init (int rng 4) (fun _ -> if int rng 8 = 0 then 70_000 else int rng 8))
  in
  let invocation rng =
    let r = int rng 6 in
    match int rng 7 with
    | 0 -> Op.Ll r
    | 1 -> Op.Sc (r, value rng 2)
    | 2 -> Op.Validate r
    | 3 -> Op.Swap (r, value rng 2)
    | 4 -> Op.Move (r, int rng 6)
    | 5 -> Op.Write (r, value rng 2)
    | _ -> Op.Fence
  in
  let response rng =
    match int rng 3 with
    | 0 -> Op.Value (value rng 2)
    | 1 -> Op.Flagged (Random.State.bool rng, value rng 2)
    | _ -> Op.Ack
  in
  let some k f =
    List.filter_map Fun.id (List.init k (fun i -> if int shape 2 = 0 then Some (f i) else None))
  in
  let regs = some 6 (fun r -> (r, (leaf (fun rng -> value rng 3), leaf pset))) in
  let buffers =
    some 3 (fun pid ->
        (pid, List.init (1 + int shape 3) (fun _ -> (int shape 6, leaf (fun rng -> value rng 2)))))
  in
  let hists =
    some 3 (fun pid ->
        ( pid,
          List.init (1 + int shape 4) (fun _ ->
              ( leaf invocation,
                leaf response,
                List.init (int shape 3) (fun _ -> leaf (fun rng -> int rng 2)) )) ))
  in
  let summary =
    if int shape 2 = 0 then Explore.Before (leaf pset) else Explore.After (leaf pset)
  in
  (((regs, buffers), hists, summary), !leaves)

(* The dedup key's hash agrees with [=]: a deep copy (fresh allocation
   everywhere) hashes equal, and redrawing any one leaf changes the hash
   whenever it changes the key.  The second half is a quality claim a
   30-bit hash could fail by chance; every case this generator can draw
   (all 10,000 seeds, every leaf) was checked once and none collides. *)
let prop_state_key_hash =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"dpor state-key hash agrees with ="
       QCheck.(pair (int_bound 9_999) (int_bound 999))
       (fun (seed, pick) ->
         let key, leaves = random_state_key ~seed ~redraw:(-1) in
         let copy : Explore.state_key = Marshal.from_string (Marshal.to_string key []) 0 in
         let redraw = if leaves = 0 then -1 else pick mod leaves in
         let other, _ = random_state_key ~seed ~redraw in
         let h = Explore.hash_state_key in
         copy = key
         && h copy = h key
         && if other = key then h other = h key else h other <> h key))

(* The hash's spread on a real walk: move-collect at n=3 interns 3,426
   distinct states, which the generic [Hashtbl.hash] (ten meaningful
   words) maps to 40 values.  The full-structure hash must keep nearly
   all of them apart. *)
let test_state_key_hash_spread () =
  let program_of, inits = Corpus.move_collect.Corpus.make ~n:3 in
  let keys = Explore.dpor_state_keys ~n:3 ~program_of ~inits () in
  Alcotest.(check int) "distinct states" 3426 (List.length keys);
  let hashes = List.sort_uniq Int.compare (List.map Explore.hash_state_key keys) in
  let spread = List.length hashes in
  if spread < 3400 then Alcotest.failf "%d distinct hash values for 3426 states" spread

(* A state key as text: registers with value and Pset, buffered writes,
   histories (newest entry first) and the summary. *)
let render_state_key (((regs, buffers), hists, summary) : Explore.state_key) =
  let ids s = String.concat "," (List.map string_of_int (Ids.elements s)) in
  let b = Buffer.create 256 in
  let add fmt = Format.kasprintf (Buffer.add_string b) fmt in
  List.iter (fun (r, (v, ps)) -> add "R%d=%a{%s} " r Value.pp v (ids ps)) regs;
  List.iter
    (fun (pid, writes) ->
      add "B%d:" pid;
      List.iter (fun (r, v) -> add "R%d=%a;" r Value.pp v) writes;
      add " ")
    buffers;
  List.iter
    (fun (pid, entries) ->
      add "H%d:" pid;
      List.iter
        (fun (inv, resp, outcomes) ->
          add "%a=%a/%s;" Op.pp_invocation inv Op.pp_response resp
            (String.concat "," (List.map string_of_int outcomes)))
        entries;
      add " ")
    hists;
  (match summary with
  | Explore.Before s -> add "before{%s}" (ids s)
  | Explore.After s -> add "after{%s}" (ids s));
  Buffer.contents b

(* The states a dedup walk interns, in first-seen order: their count and
   a digest of their text, for move-collect n=3 and the litmus shapes
   with buffered writes in the key.  The walk interns hash-consed
   histories and hands out each full key rebuilt from them, so a change
   in what merges, or in the order states are first seen, moves a line.
   Derived at the parent of the change that hash-consed the histories. *)
let test_dpor_state_keys_pinned () =
  let line name keys =
    Printf.sprintf "%s: %d %s" name (List.length keys)
      (Digest.to_hex (Digest.string (String.concat "\n" (List.map render_state_key keys))))
  in
  let litmus name model =
    let t = Option.get (Litmus.find name) in
    Explore.dpor_state_keys ~n:t.Litmus.n ~program_of:t.Litmus.program_of ~inits:t.Litmus.inits
      ~model ()
  in
  let program_of, inits = Corpus.move_collect.Corpus.make ~n:3 in
  Alcotest.(check (list string))
    "interned states"
    [
      "move-collect n=3: 3426 93e7e6ef93f134f971b8a7173e6f9bc4";
      "SB under TSO: 35 46eb836a788ceed9c5f79519acd24347";
      "SB under PSO: 35 46eb836a788ceed9c5f79519acd24347";
      "IRIW under TSO: 213 13b3791643fdc89c36b38385f4cbddae";
      "IRIW under PSO: 213 13b3791643fdc89c36b38385f4cbddae";
    ]
    [
      line "move-collect n=3" (Explore.dpor_state_keys ~n:3 ~program_of ~inits ());
      line "SB under TSO" (litmus "sb" Memory_model.TSO);
      line "SB under PSO" (litmus "sb" Memory_model.PSO);
      line "IRIW under TSO" (litmus "iriw" Memory_model.TSO);
      line "IRIW under PSO" (litmus "iriw" Memory_model.PSO);
    ]

(* The allocation of one stateful walk, a deterministic stand-in for its
   time: minor words of a move-collect n=3 [iter_dpor] walk (dedup on).
   The parent of the change that started the summary pass at the
   divergence and hash-consed the histories allocated 19,020,041 words
   here, and that change 15,958,379; later changes brought it to
   15,292,190.  Keeping the race analysis, root path and resumed trace
   across runs brought it to 10,139,820 (OCaml 5.1.1).  The bound is
   1.1x the latter. *)
let dpor_walk_words = 10_139_820.

let test_dpor_walk_allocation () =
  let program_of, inits = Corpus.move_collect.Corpus.make ~n:3 in
  let walk () = ignore (Explore.iter_dpor ~n:3 ~program_of ~inits ~f:ignore ()) in
  walk ();
  let before = Gc.minor_words () in
  walk ();
  let words = Gc.minor_words () -. before in
  if words > 1.1 *. dpor_walk_words then
    Alcotest.failf "a move-collect n=3 walk allocated %.0f minor words (bound %.0f)" words
      (1.1 *. dpor_walk_words)

(* The live heap of one stateful walk, a deterministic stand-in for its
   peak RSS: words live after a full major collection at the 66th (last)
   completed schedule of a move-collect n=3 [iter_dpor] walk, less the
   same measure before the walk.  The parent of the change that stopped
   cut runs' subscriptions keeping their race analyses and root paths
   read 1,961,424 words; the change brought it to 977,855 (OCaml 5.1.1).
   The bound is 1.1x the latter. *)
let dpor_live_words = 977_855

let test_dpor_walk_live_words () =
  let program_of, inits = Corpus.move_collect.Corpus.make ~n:3 in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  let at_last = ref 0 and runs = ref 0 in
  ignore
    (Explore.iter_dpor ~n:3 ~program_of ~inits
       ~f:(fun _ ->
         incr runs;
         if !runs = 66 then at_last := live ())
       ());
  Alcotest.(check int) "completed schedules" 66 !runs;
  let words = !at_last - before in
  if float_of_int words > 1.1 *. float_of_int dpor_live_words then
    Alcotest.failf "a move-collect n=3 walk held %d live words (bound %.0f)" words
      (1.1 *. float_of_int dpor_live_words)

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
    Alcotest.test_case "dpor visit order (pinned)" `Quick test_dpor_visit_order_pinned;
    Alcotest.test_case "dpor visit order, bounded walks (pinned)" `Quick
      test_dpor_visit_order_bounded_pinned;
    Alcotest.test_case "dpor visit order, re-fired subscriptions (pinned)" `Quick
      test_dpor_visit_order_refired_pinned;
    Alcotest.test_case "re-armed drained subtree is explored" `Quick
      test_rearm_drained_subtree;
    Alcotest.test_case "re-armed drained subtree, resumed runs" `Quick
      test_rearm_drained_subtree_resumed;
    prop_resume_is_replay;
    prop_race_analysis;
    prop_kept_analyzer;
    Alcotest.test_case "dpor executed steps (pinned)" `Quick test_dpor_executed_steps;
    prop_state_key_hash;
    Alcotest.test_case "dpor state-key hash spread (move-collect n=3)" `Quick
      test_state_key_hash_spread;
    Alcotest.test_case "dpor state keys (pinned)" `Quick test_dpor_state_keys_pinned;
    Alcotest.test_case "dpor walk allocation (move-collect n=3)" `Quick
      test_dpor_walk_allocation;
    Alcotest.test_case "dpor walk live words (move-collect n=3)" `Quick
      test_dpor_walk_live_words;
  ]
