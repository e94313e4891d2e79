open Lowerbound

(* Each experiment's sweep decomposes into independent work items (an n, a
   seed, an (algorithm, n) pair ...).  [fan] maps the items through
   {!Pool.map} — sequential at [jobs = 1], domain-parallel above — and
   reassembles rows in item order, so the produced table is identical at
   every job count. *)
let fan ~jobs f items =
  let groups = Pool.map ~jobs f items in
  (List.concat_map fst groups, List.for_all snd groups)

(* ---- E1: secretive complete schedules (Lemma 4.1) ---- *)

let chain n = Move_spec.of_list (List.init n (fun i -> (i, (i, i + 1))))
let reverse_chain n = Move_spec.of_list (List.init n (fun i -> (i, (i + 1, i))))
let star_in n = Move_spec.of_list (List.init n (fun i -> (i, (i + 1, 0))))
let star_out n = Move_spec.of_list (List.init n (fun i -> (i, (0, i + 1))))
let cycle n = Move_spec.of_list (List.init n (fun i -> (i, (i, (i + 1) mod n))))

let random_spec ~seed n =
  let st = Random.State.make [| seed |] in
  let regs = max 2 (n / 3) in
  Move_spec.of_list
    (List.init n (fun i ->
         let src = Random.State.int st regs in
         let dst =
           let d = Random.State.int st regs in
           if d = src then (d + 1) mod (regs + 1) else d
         in
         (i, (src, dst))))

let e1 ?(jobs = 1) ?(ns = [ 16; 64; 256; 1024; 4096 ]) () =
  let topologies =
    [
      ("chain", chain);
      ("reverse-chain", reverse_chain);
      ("star-in", star_in);
      ("star-out", star_out);
      ("cycle", cycle);
      ("random", random_spec ~seed:42);
    ]
  in
  let rows, pass =
    fan ~jobs
      (fun n ->
        List.fold_left
          (fun (rows, pass) (name, make) ->
            let spec = make n in
            let sigma = Secretive.build spec in
            let complete = Source_movers.is_complete spec sigma in
            let max_movers = Source_movers.max_movers (Source_movers.eval spec sigma) in
            let row =
              [ name; Table.cell_int n; Table.cell_bool complete; Table.cell_int max_movers ]
            in
            (rows @ [ row ], pass && complete && max_movers <= 2))
          ([], true) topologies)
      ns
  in
  {
    Table.id = "E1";
    title = "Lemma 4.1: secretive complete schedules exist (max movers <= 2)";
    header = [ "topology"; "n"; "complete"; "max movers" ];
    rows;
    notes =
      [
        "paper: for all (S, f) a secretive complete schedule exists;";
        "measured: the Figure-1 construction yields movers chains of length <= 2 on every topology.";
      ];
    pass;
  }

(* ---- E2: movers determine the source (Lemma 4.2) ---- *)

let e2 ?(jobs = 1) ?(specs = 60) () =
  let per_seed seed =
    let st = Random.State.make [| seed * 7 |] in
    let n = 5 + Random.State.int st 60 in
    let spec = random_spec ~seed n in
    let sigma = Secretive.build spec in
    let full = Source_movers.eval spec sigma in
    List.fold_left
      (fun (checked, preserved) reg ->
        let movers = Source_movers.movers full reg in
        let keep p = List.mem p movers || Random.State.bool st in
        let sub = List.filter keep sigma in
        let restricted = Source_movers.eval spec sub in
        ( checked + 1,
          if Source_movers.source restricted reg = Source_movers.source full reg then
            preserved + 1
          else preserved ))
      (0, 0)
      (Move_spec.destinations spec)
  in
  let totals = Pool.map ~jobs per_seed (List.init specs (fun i -> i + 1)) in
  let checked = List.fold_left (fun acc (c, _) -> acc + c) 0 totals in
  let preserved = List.fold_left (fun acc (_, p) -> acc + p) 0 totals in
  {
    Table.id = "E2";
    title = "Lemma 4.2: scheduling just the movers preserves each register's source";
    header = [ "random specs"; "registers checked"; "source preserved" ];
    rows = [ [ Table.cell_int specs; Table.cell_int checked; Table.cell_int preserved ] ];
    notes =
      [ "paper: source(R, sigma|S') = source(R, sigma) whenever S' contains movers(R, sigma)." ];
    pass = checked = preserved && checked > 0;
  }

(* ---- shared corpus helpers ---- *)

let deterministic_corpus () = [ Corpus.naive; Corpus.log_wakeup ]

let full_corpus () =
  [ Corpus.naive; Corpus.post_collect; Corpus.move_collect; Corpus.tree_collect;
    Corpus.two_counter; Corpus.backoff_collect ]
  @ Corpus.reduction_entries ~construction:Adt_tree.construction

let run_all (entry : Corpus.entry) ~n ~seed =
  let program_of, inits = entry.Corpus.make ~n in
  let assignment = if entry.Corpus.randomized then Coin.uniform ~seed else Coin.constant 0 in
  (All_run.execute ~n ~program_of ~assignment ~inits ~max_rounds:20_000 (), program_of, inits, assignment)

(* ---- E3: |UP| <= 4^r (Lemma 5.1) ---- *)

let e3 ?(jobs = 1) ?(ns = [ 4; 16; 64; 256 ]) () =
  let items =
    List.concat_map
      (fun entry -> List.map (fun n -> (entry, n)) ns)
      (deterministic_corpus ())
  in
  let rows, pass =
    fan ~jobs
      (fun ((entry : Corpus.entry), n) ->
        let run, _, _, _ = run_all entry ~n ~seed:1 in
        let up = Upsets.compute ~n run.All_run.rounds in
        let holds = Upsets.lemma_5_1_holds up in
        (* Tightest round: largest |UP| relative to 4^r. *)
        let rounds = Upsets.rounds up in
        let max_ratio = ref 0.0 in
        for r = 1 to min rounds 15 do
          let ratio = float_of_int (Upsets.max_size up ~r) /. (4.0 ** float_of_int r) in
          if ratio > !max_ratio then max_ratio := ratio
        done;
        ( [
            [
              entry.Corpus.name;
              Table.cell_int n;
              Table.cell_int rounds;
              Table.cell_float !max_ratio;
              Table.cell_bool holds;
            ];
          ],
          holds ))
      items
  in
  {
    Table.id = "E3";
    title = "Lemma 5.1: |UP(X, r)| <= 4^r along (All, A)-runs";
    header = [ "algorithm"; "n"; "rounds"; "max |UP|/4^r"; "holds" ];
    rows;
    notes = [ "paper: the UP update rules grow knowledge at most fourfold per round." ];
    pass;
  }

(* ---- E4: indistinguishability (Lemma 5.2) ---- *)

let e4 ?(jobs = 1) ?(ns = [ 2; 4; 8 ]) ?(seeds = [ 1; 2; 3 ]) () =
  let items =
    List.concat_map (fun entry -> List.map (fun n -> (entry, n)) ns) (full_corpus ())
  in
  let rows, pass =
    fan ~jobs
      (fun ((entry : Corpus.entry), n) ->
        let checks = ref 0 and failures = ref 0 in
        List.iter
          (fun seed ->
            let run, program_of, inits, assignment = run_all entry ~n ~seed in
            let upsets = Upsets.compute ~n run.All_run.rounds in
            let subsets =
              Ids.range n
              :: List.init n (fun pid ->
                     let r = min (All_run.ops_of run ~pid) (All_run.num_rounds run) in
                     Upsets.of_process upsets ~r ~pid)
            in
            List.iter
              (fun s ->
                let s_run =
                  S_run.execute ~n ~program_of ~assignment ~inits ~s ~all_run:run ~upsets ()
                in
                incr checks;
                let f = Indistinguishability.check ~n ~all_run:run ~s_run ~upsets in
                failures := !failures + List.length f)
              subsets)
          seeds;
        ( [
            [ entry.Corpus.name; Table.cell_int n; Table.cell_int !checks; Table.cell_int !failures ];
          ],
          !failures = 0 ))
      items
  in
  {
    Table.id = "E4";
    title = "Lemma 5.2: (All, A)-run ~ (S, A)-run for every X with UP(X, r) within S";
    header = [ "algorithm"; "n"; "(S, A)-runs checked"; "violations" ];
    rows;
    notes =
      [ "each check executes a full (S, A)-run and compares every process history and register state." ];
    pass;
  }

(* ---- E5: the wakeup lower bound (Theorem 6.1) ---- *)

let e5 ?(jobs = 1) ?(ns = [ 4; 16; 64; 256 ]) () =
  let analyze ((entry : Corpus.entry), n) =
    let report =
      if entry.Corpus.randomized then Lowerbound.analyze_entry_seeded entry ~n ~seed:1 ~max_rounds:20_000
      else Lowerbound.analyze_entry entry ~n ~max_rounds:20_000
    in
    let caught = report.Lower_bound.violation <> None in
    let ok =
      report.Lower_bound.lemma_5_1
      && report.Lower_bound.indist_failures = []
      &&
      if entry.Corpus.correct then report.Lower_bound.bound_met && not caught
      else
        (* The bound can hold coincidentally at tiny n (1 >= log4 4); what
           must always happen is that the incorrect algorithm is caught. *)
        caught && report.Lower_bound.s_size < n
    in
    ( [
        [
          entry.Corpus.name;
          Table.cell_int n;
          Table.cell_int report.Lower_bound.winner_ops;
          Table.cell_int (Lower_bound.ceil_log4 n);
          Table.cell_int report.Lower_bound.s_size;
          Table.cell_bool report.Lower_bound.bound_met;
          (if entry.Corpus.correct then "-" else Table.cell_bool caught);
        ];
      ],
      ok )
  in
  let items =
    List.concat_map
      (fun n ->
        List.map
          (fun e -> (e, n))
          ([ Corpus.naive; Corpus.post_collect; Corpus.move_collect; Corpus.tree_collect;
             Corpus.two_counter; Corpus.log_wakeup ]
          @ List.filter
              (fun (e : Corpus.entry) -> not e.Corpus.randomized)
              (Corpus.cheaters ~n_hint:n)))
      ns
  in
  let rows, pass = fan ~jobs analyze items in
  {
    Table.id = "E5";
    title = "Theorem 6.1: adversary forces >= ceil(log4 n) ops on correct wakeup; cheaters caught";
    header = [ "algorithm"; "n"; "winner ops"; "ceil(log4 n)"; "|S|"; "bound met"; "caught" ];
    rows;
    notes =
      [
        "correct algorithms: winner ops >= ceil(log4 n) and S = all n processes;";
        "cheaters: |S| < n and the (S, A)-run is a concrete wakeup violation.";
      ];
    pass;
  }

(* ---- E6: per-object lower bounds (Theorem 6.2) ---- *)

let e6 ?(jobs = 1) ?(ns = [ 4; 16; 64 ]) () =
  let items =
    List.concat_map
      (fun construction ->
        List.concat_map
          (fun (red : Reductions.t) -> List.map (fun n -> (construction, red, n)) ns)
          Reductions.all)
      [ Adt_tree.construction; Herlihy.construction ]
  in
  let rows, pass =
    fan ~jobs
      (fun (construction, (red : Reductions.t), n) ->
        let program_of, inits = Reductions.program red ~construction ~n in
        let report = Lower_bound.analyze ~n ~program_of ~inits ~max_rounds:20_000 () in
        let upper = red.Reductions.uses * construction.Iface.worst_case ~n in
        let ok =
          report.Lower_bound.bound_met
          && report.Lower_bound.violation = None
          && report.Lower_bound.max_ops <= upper
        in
        ( [
            [
              red.Reductions.name;
              construction.Iface.name;
              Table.cell_int n;
              Table.cell_int report.Lower_bound.winner_ops;
              Table.cell_int (Lower_bound.ceil_log4 n);
              Table.cell_int report.Lower_bound.max_ops;
              Table.cell_int upper;
            ];
          ],
          ok ))
      items
  in
  {
    Table.id = "E6";
    title = "Theorem 6.2: object-type reductions, compiled through oblivious constructions";
    header =
      [ "object"; "construction"; "n"; "winner ops"; "ceil(log4 n)"; "max ops"; "upper bound" ];
    rows;
    notes =
      [
        "every implemented fetch&inc/and/or/complement/multiply, queue, stack, read+inc";
        "pays >= ceil(log4 n) under the adversary, and <= the construction's analytic bound.";
      ];
    pass;
  }

(* ---- E7: tightness, Theta(log n) vs Theta(n) ---- *)

let e7 ?(jobs = 1) ?(ns = [ 2; 4; 8; 16; 32; 64; 128; 256 ]) () =
  let sweep_one construction n =
    match
      Complexity.sweep ~construction
        ~spec_of:(fun _ -> Counters.fetch_inc ~bits:62)
        ~ops_of:(fun ~n:_ _ -> [ Value.Unit ])
        ~ns:[ n ] ()
    with
    | [ row ] -> row
    | _ -> assert false
  in
  let pairs =
    Pool.map ~jobs
      (fun n -> (sweep_one Adt_tree.construction n, sweep_one Herlihy.construction n))
      ns
  in
  let adt = List.map fst pairs and her = List.map snd pairs in
  let pass = ref true in
  let rows =
    List.map2
      (fun (a : Complexity.row) (h : Complexity.row) ->
        if a.Complexity.measured_worst > a.Complexity.predicted then pass := false;
        if h.Complexity.measured_worst > h.Complexity.predicted then pass := false;
        let log2n = Adt_tree.levels a.Complexity.n in
        [
          Table.cell_int a.Complexity.n;
          Table.cell_int a.Complexity.measured_worst;
          Table.cell_int a.Complexity.predicted;
          Table.cell_int h.Complexity.measured_worst;
          Table.cell_int h.Complexity.predicted;
          Table.cell_float
            (float_of_int a.Complexity.measured_worst /. float_of_int (max 1 log2n));
          (if a.Complexity.measured_worst < h.Complexity.measured_worst then "adt-tree"
           else "herlihy");
        ])
      adt her
  in
  (* Logarithmic shape: doubling n adds a constant to the tree's cost. *)
  let steps =
    let worsts = List.map (fun (r : Complexity.row) -> r.Complexity.measured_worst) adt in
    List.map2 (fun a b -> b - a) (List.filteri (fun i _ -> i < List.length worsts - 1) worsts)
      (List.tl worsts)
  in
  if not (List.for_all (fun s -> s = 8) steps) then pass := false;
  {
    Table.id = "E7";
    title = "Tightness: combining tree Theta(log n) vs Herlihy baseline Theta(n)";
    header =
      [ "n"; "tree worst"; "tree bound"; "herlihy worst"; "herlihy bound"; "tree/log2(n)"; "winner" ];
    rows;
    notes =
      [
        "paper: the (modified) ADT construction achieves O(log n) worst-case shared-access time;";
        "measured: tree cost is exactly 8*ceil(log2 n) + 9 (each doubling adds 8); the";
        "baseline grows linearly (2n + 6); crossover near n = 16.";
      ];
    pass = !pass;
  }

(* ---- E8: randomized / expected complexity (Lemma 3.1) ---- *)

let e8 ?(jobs = 1) ?(n = 64) ?(seeds = List.init 20 (fun i -> i + 1)) () =
  let rows, pass =
    fan ~jobs
      (fun (entry : Corpus.entry) ->
        let program_of, inits = entry.Corpus.make ~n in
        let e = Lower_bound.estimate ~n ~program_of ~inits ~seeds ~max_rounds:20_000 () in
        let ok =
          e.Lower_bound.termination_rate = 1.0
          && e.Lower_bound.mean_winner_ops >= e.Lower_bound.expected_bound
          && float_of_int e.Lower_bound.min_winner_ops >= Lower_bound.log4 n
        in
        ( [
            [
              entry.Corpus.name;
              Table.cell_int e.Lower_bound.samples;
              Table.cell_float e.Lower_bound.termination_rate;
              Table.cell_float e.Lower_bound.mean_winner_ops;
              Table.cell_int e.Lower_bound.min_winner_ops;
              Table.cell_float e.Lower_bound.expected_bound;
            ];
          ],
          ok ))
      [ Corpus.two_counter; Corpus.backoff_collect ]
  in
  {
    Table.id = "E8";
    title = Printf.sprintf "Lemma 3.1: expected shared-access complexity at n = %d" n;
    header =
      [ "algorithm"; "samples"; "termination rate c"; "mean winner ops"; "min"; "c * log4 n" ];
    rows;
    notes =
      [ "paper: expected worst-case complexity >= c * log4 n for algorithms terminating w.p. c." ];
    pass;
  }

(* ---- E9: constant-time non-oblivious CAS ---- *)

let e9 ?(jobs = 1) ?(ns = [ 2; 8; 32; 128; 512 ]) () =
  let rows, pass =
    fan ~jobs
      (fun n ->
        let layout = Layout.create () in
        let handle = Direct.compare_and_swap layout ~init:(Value.Int 0) in
        let memory = Memory.create () in
        Layout.install layout memory;
        let result =
          Harness.run_handle ~memory ~handle ~n
            ~ops:(fun pid ->
              [
                Misc_types.op_cas ~expected:(Value.Int 0)
                  ~new_:(Value.pair (Value.Int pid) Value.unit);
              ])
            ()
        in
        ( [ [ Table.cell_int n; Table.cell_int result.Harness.max_cost; "2" ] ],
          result.Harness.max_cost <= 2 ))
      ns
  in
  {
    Table.id = "E9";
    title = "Non-oblivious escape: compare&swap from LL/SC in O(1)";
    header = [ "n"; "measured worst"; "bound" ];
    rows;
    notes =
      [
        "paper: constant-time implementations exist but must exploit the type's semantics —";
        "they cannot come from an oblivious universal construction (which E5-E7 bound below by log).";
      ];
    pass;
  }

(* ---- E10: the sandwich ---- *)

let e10 ?(jobs = 1) ?(ns = [ 4; 16; 64; 256 ]) () =
  let rows, pass =
    fan ~jobs
      (fun n ->
        let report = Lowerbound.analyze_entry Corpus.log_wakeup ~n ~max_rounds:40_000 in
        let lower = Lower_bound.ceil_log4 n in
        let upper = Adt_tree.construction.Iface.worst_case ~n in
        let ok = lower <= report.Lower_bound.winner_ops && report.Lower_bound.max_ops <= upper in
        ( [
            [
              Table.cell_int n;
              Table.cell_int lower;
              Table.cell_int report.Lower_bound.winner_ops;
              Table.cell_int report.Lower_bound.max_ops;
              Table.cell_int upper;
            ];
          ],
          ok ))
      ns
  in
  {
    Table.id = "E10";
    title = "Sandwich: wakeup via tree-backed fetch&inc between ceil(log4 n) and 8 ceil(log2 n) + 9";
    header = [ "n"; "lower"; "winner ops"; "max ops"; "upper" ];
    rows;
    notes =
      [ "the lower bound (Theorem 6.1) and upper bound (oblivious tree) bracket the same run." ];
    pass;
  }

(* ---- E11: ablation — retry loop vs wait-free helping ---- *)

let e11 ?(jobs = 1) ?(ns = [ 2; 4; 8; 16; 32; 64 ]) () =
  let rows, pass =
    fan ~jobs
      (fun n ->
        let run construction =
          Harness.run ~construction ~spec:(Counters.fetch_inc ~bits:62) ~n
            ~ops:(fun _ -> [ Value.Unit ])
            ()
        in
        let retry = run Direct.fetch_inc and tree = run Adt_tree.construction in
        (* The retry loop's worst case grows linearly under round-robin
           contention; the tree's stays logarithmic. *)
        let ok = not (n >= 32 && retry.Harness.max_cost <= tree.Harness.max_cost) in
        ( [
            [
              Table.cell_int n;
              Table.cell_int retry.Harness.max_cost;
              Table.cell_int tree.Harness.max_cost;
            ];
          ],
          ok ))
      ns
  in
  {
    Table.id = "E11";
    title = "Ablation: lock-free LL/SC retry loop vs wait-free combining tree (fetch&inc)";
    header = [ "n"; "retry-loop worst"; "tree worst" ];
    rows;
    notes =
      [
        "the retry loop is O(1) solo but Theta(n) under contention and not wait-free;";
        "the oblivious tree pays 8 ceil(log2 n) + 9 always — the log n price of obliviousness.";
      ];
    pass;
  }

(* ---- E12: the RMW escape (Section 7) ---- *)

let e12 ?(jobs = 1) ?(ns = [ 2; 16; 256; 4096 ]) () =
  let rows, pass =
    fan ~jobs
      (fun n ->
        (* Wakeup in one RMW per process: schedule one operation each, in id
           order (the schedule is irrelevant — each process has one atomic
           step). *)
        let program_of, inits = Rmw.wakeup ~n ~reg:0 in
        let schedule = List.init n (fun i -> i) in
        let memory, results = Rmw.run_system ~n ~program_of ~inits ~schedule in
        let winners = List.filter (fun (_, v) -> v = 1) results in
        let ok = Rmw.Mem.max_ops memory = 1 && List.length winners = 1 in
        ( [
            [
              Table.cell_int n;
              Table.cell_int (Rmw.Mem.max_ops memory);
              Table.cell_int (Lower_bound.ceil_log4 n);
              Table.cell_int (List.length winners);
            ];
          ],
          ok ))
      ns
  in
  {
    Table.id = "E12";
    title = "Section 7: with RMW(R, f) and unbounded registers, wakeup costs 1 op";
    header = [ "n"; "max ops/process"; "LL/SC floor ceil(log4 n)"; "winners" ];
    rows;
    notes =
      [
        "paper (open problems): every object has a unit-time wait-free implementation from";
        "RMW(R, f) — the Omega(log n) bound is specific to the LL/SC/validate/move/swap";
        "repertoire; the right 'reasonable operations' restriction is the open problem.";
      ];
    pass;
  }

(* ---- E13: the price in register size ---- *)

let e13 ?(jobs = 1) ?(ns = [ 2; 8; 32; 128 ]) () =
  let measure construction n =
    let result =
      Harness.run ~construction ~spec:(Counters.fetch_inc ~bits:62) ~n
        ~ops:(fun _ -> [ Value.Unit ])
        ()
    in
    result.Harness.largest_register
  in
  (* Measurements per n are independent (parallel); the pass judgement
     compares consecutive ns (tree/herlihy registers must strictly grow), so
     it folds over the measured list sequentially afterwards. *)
  let measured =
    Pool.map ~jobs
      (fun n ->
        let tree = measure Adt_tree.construction n in
        let herlihy = measure Herlihy.construction n in
        let cas =
          let layout = Layout.create () in
          let handle = Direct.compare_and_swap layout ~init:(Value.Int 0) in
          let memory = Memory.create () in
          Layout.install layout memory;
          let result =
            Harness.run_handle ~memory ~handle ~n
              ~ops:(fun pid ->
                [
                  Misc_types.op_cas ~expected:(Value.Int 0)
                    ~new_:(Value.pair (Value.Int pid) Value.unit);
                ])
              ()
          in
          result.Harness.largest_register
        in
        (* The non-oblivious mask-tree wakeup: O(log n) time with n-bit
           registers. *)
        let mask_tree =
          let program_of, inits = Corpus.tree_collect.Corpus.make ~n in
          let run = All_run.execute ~n ~program_of ~inits ~max_rounds:2_000 () in
          run.All_run.largest_register
        in
        let consensus = measure Consensus_list.construction n in
        (n, tree, herlihy, cas, mask_tree, consensus))
      ns
  in
  let rows = ref [] and pass = ref true in
  let previous = ref (0, 0) in
  List.iter
    (fun (n, tree, herlihy, cas, mask_tree, consensus) ->
      (* Oblivious constructions must grow their registers with n (response
         maps); the semantic CAS stays constant; the mask tree needs only
         ~n bits (= ceil(n/63) words in our size proxy). *)
      let prev_tree, prev_her = !previous in
      let mask_words = max 1 ((n + 62) / 63) in
      if
        tree <= prev_tree || herlihy <= prev_her || cas > 4 || mask_tree > mask_words
        || consensus > 8
      then pass := false;
      previous := (tree, herlihy);
      rows :=
        [
          Table.cell_int n;
          Table.cell_int tree;
          Table.cell_int herlihy;
          Table.cell_int consensus;
          Table.cell_int mask_tree;
          Table.cell_int cas;
        ]
        :: !rows)
    measured;
  {
    Table.id = "E13";
    title = "Register-size accounting: what 'unbounded registers' buys the upper bound";
    header =
      [ "n"; "tree max reg"; "herlihy max reg"; "consensus-list"; "mask-tree wakeup"; "direct-cas" ];
    rows = List.rev !rows;
    notes =
      [
        "paper (Section 7): the O(log n) construction depends on unbounded registers (the root";
        "record holds the object state plus every response); any restriction on register size";
        "that still admits practical algorithms is the paper's open problem.  Measured (63-bit";
        "words): the two Theta-bounded oblivious constructions' largest register grows linearly";
        "with n; the consensus-list construction keeps registers constant-size but uses";
        "unboundedly MANY (the paper: 'restricting the number seems unnatural'); the";
        "semantics-exploiting mask-tree wakeup needs only n bits and the semantic CAS stays";
        "constant — obliviousness, not the problem itself, demands unbounded register resources.";
      ];
    pass = !pass;
  }

(* ---- E14: the consensus-based construction is Θ(n) ---- *)

let e14 ?(jobs = 1) ?(ns = [ 2; 4; 8; 16; 32; 64; 128 ]) () =
  let rows, pass =
    fan ~jobs
      (fun n ->
        (* Single-use fetch&inc, worst case over schedulers we drive. *)
        let worst =
          List.fold_left
            (fun acc scheduler ->
              let result =
                Harness.run ~construction:Consensus_list.construction
                  ~spec:(Counters.fetch_inc ~bits:62) ~n
                  ~ops:(fun _ -> [ Value.Unit ])
                  ~scheduler ()
              in
              max acc result.Harness.max_cost)
            0
            [ Scheduler.round_robin; Scheduler.random ~seed:1; Scheduler.random ~seed:2 ]
        in
        (* And the Theorem 6.1 floor on the same construction via the wakeup
           reduction. *)
        let program_of, inits =
          Reductions.program Reductions.fetch_inc ~construction:Consensus_list.construction ~n
        in
        let report = Lower_bound.analyze ~n ~program_of ~inits ~max_rounds:40_000 () in
        let bound = Consensus_list.construction.Iface.worst_case ~n in
        let ok =
          worst <= bound && report.Lower_bound.bound_met
          && report.Lower_bound.violation = None
        in
        ( [
            [
              Table.cell_int n;
              Table.cell_int worst;
              Table.cell_int bound;
              Table.cell_int report.Lower_bound.winner_ops;
              Table.cell_int (Lower_bound.ceil_log4 n);
            ];
          ],
          ok ))
      ns
  in
  {
    Table.id = "E14";
    title = "Consensus-based universal construction (Herlihy-style cells): Theta(n)";
    header = [ "n"; "measured worst"; "bound 8n+10"; "adversary winner ops"; "ceil(log4 n)" ];
    rows;
    notes =
      [
        "related work [17, 18, 25]: the first universal constructions thread operations through";
        "consensus cells; Jayanti-Tan-Toueg prove oblivious consensus-based constructions cost";
        "Omega(n).  Measured: ~4n + O(1) per operation (linear), and the Theorem 6.1 floor";
        "holds as for every oblivious construction.";
      ];
    pass;
  }

(* ---- registry ---- *)

let quick_registry ~jobs : (string * (unit -> Table.t)) list =
  [
    ("e1", fun () -> e1 ~jobs ~ns:[ 16; 64 ] ());
    ("e2", fun () -> e2 ~jobs ~specs:15 ());
    ("e3", fun () -> e3 ~jobs ~ns:[ 4; 16 ] ());
    ("e4", fun () -> e4 ~jobs ~ns:[ 2; 4 ] ~seeds:[ 1 ] ());
    ("e5", fun () -> e5 ~jobs ~ns:[ 4; 16; 64 ] ());
    ("e6", fun () -> e6 ~jobs ~ns:[ 4; 8 ] ());
    ("e7", fun () -> e7 ~jobs ~ns:[ 2; 4; 8; 16; 32 ] ());
    ("e8", fun () -> e8 ~jobs ~n:16 ~seeds:[ 1; 2; 3; 4; 5 ] ());
    ("e9", fun () -> e9 ~jobs ~ns:[ 2; 16; 64 ] ());
    ("e10", fun () -> e10 ~jobs ~ns:[ 4; 16; 64 ] ());
    ("e11", fun () -> e11 ~jobs ~ns:[ 2; 8; 32 ] ());
    ("e12", fun () -> e12 ~jobs ~ns:[ 2; 16; 256 ] ());
    ("e13", fun () -> e13 ~jobs ~ns:[ 2; 8; 32 ] ());
    ("e14", fun () -> e14 ~jobs ~ns:[ 2; 8; 32 ] ());
  ]

let registry ~jobs : (string * (unit -> Table.t)) list =
  [
    ("e1", fun () -> e1 ~jobs ());
    ("e2", fun () -> e2 ~jobs ());
    ("e3", fun () -> e3 ~jobs ());
    ("e4", fun () -> e4 ~jobs ());
    ("e5", fun () -> e5 ~jobs ());
    ("e6", fun () -> e6 ~jobs ());
    ("e7", fun () -> e7 ~jobs ());
    ("e8", fun () -> e8 ~jobs ());
    ("e9", fun () -> e9 ~jobs ());
    ("e10", fun () -> e10 ~jobs ());
    ("e11", fun () -> e11 ~jobs ());
    ("e12", fun () -> e12 ~jobs ());
    ("e13", fun () -> e13 ~jobs ());
    ("e14", fun () -> e14 ~jobs ());
  ]

let thunks ?(jobs = 1) ~quick () =
  if quick then quick_registry ~jobs else registry ~jobs

let all ?(jobs = 1) ~quick () = List.map (fun (_, f) -> f ()) (thunks ~jobs ~quick ())

let by_id ?(jobs = 1) ~quick id =
  List.assoc_opt (String.lowercase_ascii id) (thunks ~jobs ~quick ())

let ids = List.map fst (registry ~jobs:1)
