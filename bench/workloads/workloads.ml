(* The five workloads.

   Each workload is set up from the benchmark seed and then runs iterations
   of one fixed job through public library calls (the plain iteration,
   timed for [wall_s]).  Its traced iteration repeats the same job through
   a mirror: the same calls made from benchmark code with spans around each
   layer boundary, whose result must equal the plain iteration's.  Only
   the [Lowerbound] facade is used, and nothing that the planned
   consolidations remove ([Explore.iter_reduced], [Scheduler.random], the
   service stack), so those changes can be measured without touching the
   benchmark.  Why each workload is here is in README.md. *)

open Lowerbound

type traced = {
  checks : Pins.check list;  (** mirror equality and the paper's cost bound. *)
  counts : (string * float) list;  (** per-layer metrics that are not span times. *)
  mem_ops : int;  (** [Memory.apply] calls made by the iteration. *)
  mem_spans : string list;  (** the spans those calls ran inside. *)
}

type prepared = {
  plain : int -> Pins.check list;
  traced : Spans.t -> int -> traced;
  replay : unit -> Replay.segment list;
}

type t = { name : string; setup : seed:int -> prepared }

let max_states = 200_000
let max_rounds = 40_000
let fi = float_of_int
let ratio a b = if b = 0 then 0.0 else fi a /. fi b

let find_type name =
  match Schedule_fuzz.find_type name with
  | Some ot -> ot
  | None -> failwith ("unknown object type " ^ name)

let find_entry name =
  match Corpus.find name with Some e -> e | None -> failwith ("unknown corpus entry " ^ name)

(* The registers a construction's layout initialises, as each harness run
   installs them: the starting memory of the replay. *)
let construction_inits (construction : Iface.t) ot ~n =
  let layout = Layout.create () in
  ignore (construction.Iface.create layout ~n (ot.Schedule_fuzz.spec_of ~n));
  Layout.inits layout

(* ---- harness runs (certify and fuzz mirrors) ---- *)

type acc = {
  mutable runs : int;
  mutable steps : int;
  mutable shared : int;
  mutable max_cost : int;
  mutable max_depth : int;
  mutable states : int;
  mutable histories : int;
}

let new_acc () =
  { runs = 0; steps = 0; shared = 0; max_cost = 0; max_depth = 0; states = 0; histories = 0 }

(* Hooks that expose each runnable process's pending invocation, as
   [Exhaustive] taps them for dependency footprints. *)
let tap_pending () =
  let pending_of = ref (fun (_ : int) -> None) in
  let wrap (h : Harness.fault_hooks) =
    {
      h with
      Harness.filter =
        (fun ~step ~pending ~runnable ->
          pending_of := pending;
          h.Harness.filter ~step ~pending ~runnable);
    }
  in
  (pending_of, wrap)

type oracle_clock = { timed : 'a. (unit -> 'a) -> 'a }

(* One harness execution inside a [harness.execute] span.  [f] receives a
   clock for the scheduling oracle's calls; their summed time becomes one
   [sched_tree.oracle] child span. *)
let in_harness tr acc f =
  let oracle_ns = ref 0 in
  let timed g =
    let t0 = Spans.now_ns () in
    let r = g () in
    oracle_ns := !oracle_ns + (Spans.now_ns () - t0);
    r
  in
  let ((result : Harness.result), schedule) =
    Spans.with_span tr "harness.execute" (fun () ->
        let start_ns = Spans.now_ns () in
        let r = f { timed } in
        Spans.add_aggregate tr "sched_tree.oracle" ~start_ns ~total_ns:!oracle_ns;
        r)
  in
  let len = List.length schedule in
  acc.runs <- acc.runs + 1;
  acc.steps <- acc.steps + len;
  acc.max_depth <- max acc.max_depth len;
  acc.shared <- acc.shared + result.Harness.total_shared_ops;
  acc.max_cost <- max acc.max_cost result.Harness.max_cost;
  (result, schedule)

let assess tr acc ~construction ~ot ~n ~ops ~schedule result =
  let r =
    Spans.with_span tr "linearize.assess" (fun () ->
        Schedule_fuzz.assess ~construction ~ot ~plan:Fault_plan.none ~n ~ops ~max_states ~schedule
          result)
  in
  acc.states <- acc.states + r.Schedule_fuzz.states;
  acc.histories <- acc.histories + 1;
  r

let harness_counts acc =
  [
    ("harness.steps", fi acc.steps);
    ("harness.steps_per_run", ratio acc.steps acc.runs);
    ("harness.shared_ops", fi acc.shared);
    ("harness.max_op_cost", fi acc.max_cost);
    ("linearize.states", fi acc.states);
    ("linearize.states_per_history", ratio acc.states acc.histories);
  ]

let sched_counts (s : Sched_tree.stats) ~runs =
  [
    ("sched_tree.runs", fi runs);
    ("sched_tree.schedules", fi s.Sched_tree.schedules);
    ("sched_tree.useful_ratio", ratio s.Sched_tree.schedules runs);
    ("sched_tree.deduped", fi s.Sched_tree.deduped);
    ("sched_tree.elided", fi s.Sched_tree.elided);
    ("sched_tree.max_depth", fi s.Sched_tree.max_depth);
  ]

(* Runs an unbounded stateful walk made: completed, sleep-blocked, or cut
   at a visited state (no bound cuts anything). *)
let unbounded_runs (s : Sched_tree.stats) =
  s.Sched_tree.schedules + s.Sched_tree.sleep_blocked + s.Sched_tree.deduped

let add_stats (a : Sched_tree.stats) (b : Sched_tree.stats) =
  Sched_tree.
    {
      schedules = a.schedules + b.schedules;
      sleep_blocked = a.sleep_blocked + b.sleep_blocked;
      deduped = a.deduped + b.deduped;
      elided = a.elided + b.elided;
      max_depth = max a.max_depth b.max_depth;
    }

let no_stats =
  Sched_tree.{ schedules = 0; sleep_blocked = 0; deduped = 0; elided = 0; max_depth = 0 }

(* ---- certify-herlihy-n4 ---- *)

type mirrored_cert = { stats : Sched_tree.stats; degraded : int; cert_ok : bool }

(* [Exhaustive.certify_cell] on a fault-free SC cell, with its runner's
   oracle protocol: a decision's footprint is the chosen process's pending
   invocation, and it commits late, at the next scheduling point, once the
   harness counters show whether the step crossed an operation boundary.
   Fault-free means every step is pure; SC means there are no flush
   decisions. *)
let certify_mirror tr acc recorder ~construction ~ot ~n ~ops ~seed ~bounds =
  let plan = Fault_plan.none in
  let reg = Metrics.current () in
  let boundary () =
    Metrics.counter_value reg "harness.ops_completed"
    + Metrics.counter_value reg "harness.ops_failed"
    + Metrics.counter_value reg "harness.restarts"
  in
  let run sched =
    let pending_of, wrap_hooks = tap_pending () in
    let result, schedule =
      in_harness tr acc (fun { timed } ->
          let parked = ref None in
          let commit_parked () =
            match !parked with
            | None -> ()
            | Some (regs, before) ->
              parked := None;
              let blocking = boundary () <> before in
              timed (fun () ->
                  ignore (Sched_tree.commit sched ~fp:{ Sched_tree.regs; blocking } ~branches:1))
          in
          let scheduler ~step ~runnable =
            commit_parked ();
            match timed (fun () -> Sched_tree.choose sched ~step ~enabled:runnable) with
            | None -> None
            | Some pid ->
              let regs =
                match !pending_of pid with
                | Some inv ->
                  Replay.record recorder pid inv;
                  Sched_tree.footprint inv
                | None -> []
              in
              parked := Some (regs, boundary ());
              Some pid
          in
          let r =
            Schedule_fuzz.execute ~construction ~ot ~plan ~n ~ops ~seed ~wrap_hooks ~scheduler ()
          in
          commit_parked ();
          r)
    in
    if Sched_tree.interrupted sched then None
    else Some (assess tr acc ~construction ~ot ~n ~ops ~schedule result)
  in
  let degraded = ref 0 and failed = ref false in
  let stats =
    Spans.with_span tr "sched_tree.explore" (fun () ->
        Sched_tree.explore ~bounds ~run
          ~f:(fun (r : Schedule_fuzz.run) ->
            match r.Schedule_fuzz.verdict with
            | Schedule_fuzz.Pass -> true
            | Schedule_fuzz.Degraded _ ->
              incr degraded;
              true
            | Schedule_fuzz.Fail _ ->
              failed := true;
              false)
          ())
  in
  { stats; degraded = !degraded; cert_ok = not !failed }

let mirrors_cert (c : Exhaustive.cert) m =
  c.Exhaustive.xc_stats = m.stats
  && c.Exhaustive.xc_degraded = m.degraded
  && Exhaustive.cert_ok c = m.cert_ok

let certify_bounds = { Sched_tree.no_bounds with Sched_tree.preempt = Some 1 }

let certify =
  let setup ~seed =
    let construction = Herlihy.construction and ot = find_type "fetch-inc" in
    let n = 4 and ops = 1 in
    let recorder = Replay.recorder () in
    Replay.start recorder ~inits:(construction_inits construction ot ~n);
    let last = ref None in
    let plain _ =
      let c =
        Exhaustive.certify_cell ~construction ~ot ~plan_name:"none" ~plan:Fault_plan.none ~n ~ops
          ~seed ~bounds:certify_bounds ~max_states ()
      in
      last := Some c;
      Pins.certify c
    in
    let traced tr _ =
      let acc = new_acc () in
      let m =
        certify_mirror tr acc recorder ~construction ~ot ~n ~ops ~seed ~bounds:certify_bounds
      in
      {
        checks =
          [
            Pins.mirror "certify Sched_tree.stats and verdict"
              (match !last with Some c -> mirrors_cert c m | None -> false);
            Pins.op_cost ~bound:(construction.Iface.worst_case ~n) acc.max_cost;
          ];
        counts = sched_counts m.stats ~runs:acc.runs @ harness_counts acc;
        mem_ops = acc.shared;
        mem_spans = [ "harness.execute" ];
      }
    in
    { plain; traced; replay = (fun () -> Replay.segments recorder) }
  in
  { name = "certify-herlihy-n4"; setup }

(* ---- fuzz-snapshot-n10 ---- *)

let fuzz_schedules = 100

let fuzz =
  let setup ~seed =
    let construction = Herlihy.construction and ot = find_type "snapshot" in
    let n = 10 and ops = 4 and plan = Fault_plan.none in
    let recorder = Replay.recorder () in
    Replay.start recorder ~inits:(construction_inits construction ot ~n);
    (* Iteration [i] fuzzes its own batch of schedule seeds.  The checker's
       cost varies from schedule to schedule, so a run measures many
       batches: that keeps one run's median close to another's whatever
       the benchmark seed. *)
    let batch i = (seed * 1_000_000) + (i * fuzz_schedules) in
    let last = ref None in
    let plain i =
      let c =
        Schedule_fuzz.check_cell ~construction ~ot ~plan_name:"none" ~plan ~n ~ops
          ~schedules:fuzz_schedules ~seed:(batch i) ~max_states ()
      in
      last := Some c;
      Pins.fuzz ~schedules:fuzz_schedules c
    in
    (* [Schedule_fuzz.check_cell]: schedule [k] of the batch runs the
       workload seeded [batch i + k] under the sampler seeded alike. *)
    let traced tr i =
      let acc = new_acc () and passed = ref 0 in
      for k = 0 to fuzz_schedules - 1 do
        let seed = batch i + k in
        let choice = Schedule_fuzz.tree_scheduler (Sched_tree.sampler ~seed) in
        let pending_of, wrap_hooks = tap_pending () in
        let result, schedule =
          in_harness tr acc (fun { timed } ->
              let scheduler ~step ~runnable =
                let c = timed (fun () -> choice ~step ~runnable) in
                (match c with
                | Some pid -> Option.iter (Replay.record recorder pid) (!pending_of pid)
                | None -> ());
                c
              in
              Schedule_fuzz.execute ~construction ~ot ~plan ~n ~ops ~seed ~wrap_hooks ~scheduler ())
        in
        let r = assess tr acc ~construction ~ot ~n ~ops ~schedule result in
        if r.Schedule_fuzz.verdict = Schedule_fuzz.Pass then incr passed
      done;
      let same =
        match !last with Some c -> c.Schedule_fuzz.passed = !passed | None -> false
      in
      {
        checks =
          [
            Pins.mirror "fuzz pass count" same;
            Pins.op_cost ~bound:(construction.Iface.worst_case ~n) acc.max_cost;
          ];
        counts =
          sched_counts
            { no_stats with Sched_tree.schedules = acc.runs; max_depth = acc.max_depth }
            ~runs:acc.runs
          @ harness_counts acc;
        mem_ops = acc.shared;
        mem_spans = [ "harness.execute" ];
      }
    in
    { plain; traced; replay = (fun () -> Replay.segments recorder) }
  in
  { name = "fuzz-snapshot-n10"; setup }

(* ---- explore-move-collect-n3 ---- *)

(* Programs are immutable values, so every run of a walk can start from the
   ones set-up built. *)
let prebuilt ~n program_of =
  let programs = Array.init n program_of in
  fun pid -> programs.(pid)

let record_run recorder (run : int Explore.run) =
  List.iter
    (function
      | Explore.Stepped (pid, inv, _) -> Replay.record recorder pid inv
      | Explore.Flushed _ | Explore.Returned _ -> ())
    run.Explore.events

let explore =
  let setup ~seed:_ =
    let n = 3 in
    let program_of, inits = (find_entry "move-collect").Corpus.make ~n in
    let program_of = prebuilt ~n program_of in
    let recorder = Replay.recorder () in
    Replay.start recorder ~inits;
    let last = ref None in
    let plain _ =
      let violations = ref 0 in
      let stats =
        Explore.iter_dpor ~n ~program_of ~inits
          ~f:(fun run -> if not (Explore.wakeup_ok ~n run) then incr violations)
          ()
      in
      last := Some (stats, !violations);
      Pins.explore stats ~violations:!violations
    in
    let traced tr _ =
      let violations = ref 0 in
      let stats =
        Spans.with_span tr "explore.iter_dpor" (fun () ->
            Explore.iter_dpor ~n ~program_of ~inits
              ~f:(fun run ->
                record_run recorder run;
                Spans.with_span tr "explore.callback" (fun () ->
                    if not (Explore.wakeup_ok ~n run) then incr violations))
              ())
      in
      {
        checks = [ Pins.mirror "explore stats" (!last = Some (stats, !violations)) ];
        counts = sched_counts stats ~runs:(unbounded_runs stats);
        mem_ops = 0;
        mem_spans = [];
      }
    in
    { plain; traced; replay = (fun () -> Replay.segments recorder) }
  in
  { name = "explore-move-collect-n3"; setup }

(* ---- litmus-catalog ---- *)

(* One catalog pass is ~20 ms; an iteration makes enough passes to be timed
   as steadily as the other workloads. *)
let litmus_passes = 40

let litmus =
  let setup ~seed:_ =
    let tests =
      List.map
        (fun (t : Litmus.t) ->
          { t with Litmus.program_of = prebuilt ~n:t.Litmus.n t.Litmus.program_of })
        Litmus.catalog
    in
    let recorder = Replay.recorder () in
    let last = ref [] in
    (* [Litmus.check_all], over the tests as set up. *)
    let plain _ =
      List.concat
        (List.init litmus_passes (fun _ ->
             let vs = List.map Litmus.check tests in
             last := vs;
             Pins.litmus vs))
    in
    (* [Litmus.outcomes] for every test and model: the DPOR walk whose
       completed runs' result vectors form the outcome set. *)
    let traced tr _ =
      let stats = ref no_stats and outcomes = ref 0 and same = ref true in
      for _ = 1 to litmus_passes do
        List.iter
          (fun (t : Litmus.t) ->
            List.iter
              (fun model ->
                Replay.start recorder ~inits:t.Litmus.inits;
                let set = ref Litmus.Outcomes.empty in
                let s =
                  Spans.with_span tr
                    ("litmus." ^ String.lowercase_ascii (Memory_model.to_string model))
                    (fun () ->
                      Explore.iter_dpor ~n:t.Litmus.n ~program_of:t.Litmus.program_of
                        ~inits:t.Litmus.inits ~model
                        ~f:(fun run ->
                          record_run recorder run;
                          set := Litmus.Outcomes.add run.Explore.results !set)
                        ())
                in
                stats := add_stats !stats s;
                outcomes := !outcomes + Litmus.Outcomes.cardinal !set;
                let expected =
                  List.find_map
                    (fun v ->
                      if v.Litmus.test.Litmus.name <> t.Litmus.name then None
                      else List.find_opt (fun c -> c.Litmus.model = model) v.Litmus.cells)
                    !last
                in
                same :=
                  !same
                  &&
                  match expected with
                  | Some c ->
                    c.Litmus.outcome_count = Litmus.Outcomes.cardinal !set
                    && c.Litmus.admitted = Litmus.Outcomes.mem t.Litmus.relaxed_outcome !set
                  | None -> false)
              Memory_model.all)
          tests
      done;
      {
        checks = [ Pins.mirror "litmus outcome sets" !same ];
        counts =
          ("litmus.outcomes", fi !outcomes) :: sched_counts !stats ~runs:(unbounded_runs !stats);
        mem_ops = 0;
        mem_spans = [];
      }
    in
    { plain; traced; replay = (fun () -> Replay.segments recorder) }
  in
  { name = "litmus-catalog"; setup }

(* ---- analyze-lower-bound ---- *)

(* Everything [Lower_bound.analyze] reports, in comparable form. *)
type verdict = {
  winner : int option;
  winner_ops : int;
  max_ops : int;
  rounds : int;
  s_size : int;
  lemma_5_1 : bool;
  bound_met : bool;
  indist_failures : int;
  violation : bool;
}

let verdict_of_report (r : Lower_bound.report) =
  {
    winner = r.Lower_bound.winner;
    winner_ops = r.Lower_bound.winner_ops;
    max_ops = r.Lower_bound.max_ops;
    rounds = r.Lower_bound.rounds;
    s_size = r.Lower_bound.s_size;
    lemma_5_1 = r.Lower_bound.lemma_5_1;
    bound_met = r.Lower_bound.bound_met;
    indist_failures = List.length r.Lower_bound.indist_failures;
    violation = r.Lower_bound.violation <> None;
  }

(* The first process to return 1, by termination round then id. *)
let find_winner (all_run : int All_run.t) =
  List.fold_left
    (fun best (pid, result) ->
      if result <> 1 then best
      else
        let round = Option.value ~default:max_int (All_run.termination_round all_run ~pid) in
        match best with Some (_, r) when r <= round -> best | Some _ | None -> Some (pid, round))
    None all_run.All_run.results

(* [Lower_bound.analyze]'s steps under the deterministic toss assignment,
   one span each.  Returns the verdict and the rounds of the runs made. *)
let analyze_mirror tr ~n ~program_of ~inits =
  let assignment = Coin.constant 0 in
  let all_run =
    Spans.with_span tr "all_run.execute" (fun () ->
        All_run.execute ~n ~program_of ~assignment ~inits ~max_rounds ())
  in
  let upsets, lemma_5_1 =
    Spans.with_span tr "upsets.compute" (fun () ->
        let u = Upsets.compute ~n all_run.All_run.rounds in
        (u, Upsets.lemma_5_1_holds u))
  in
  let base =
    {
      winner = None;
      winner_ops = 0;
      max_ops = all_run.All_run.max_shared_ops;
      rounds = All_run.num_rounds all_run;
      s_size = 0;
      lemma_5_1;
      bound_met = false;
      indist_failures = 0;
      violation = false;
    }
  in
  match find_winner all_run with
  | None -> (base, [ all_run.All_run.rounds ])
  | Some (winner, _) ->
    let winner_ops = All_run.ops_of all_run ~pid:winner in
    let r = min winner_ops (All_run.num_rounds all_run) in
    let s = Upsets.of_process upsets ~r ~pid:winner in
    let s_run =
      Spans.with_span tr "s_run.execute" (fun () ->
          S_run.execute ~n ~program_of ~assignment ~inits ~s ~all_run ~upsets ())
    in
    let failures =
      Spans.with_span tr "indistinguishability.check" (fun () ->
          Indistinguishability.check ~n ~all_run ~s_run ~upsets)
    in
    let silent = Ids.diff (Ids.range n) (S_run.steppers s_run) in
    let returned_one = List.mem (winner, 1) s_run.S_run.results in
    ( {
        base with
        winner = Some winner;
        winner_ops;
        s_size = Ids.cardinal s;
        bound_met = winner_ops >= Lower_bound.ceil_log4 n;
        indist_failures = List.length failures;
        violation = returned_one && not (Ids.is_empty silent);
      },
      [ all_run.All_run.rounds; s_run.S_run.rounds ] )

let analyze =
  let setup ~seed:_ =
    let inputs =
      List.map
        (fun (a : Pins.analysis) ->
          let program_of, inits = (find_entry a.Pins.entry).Corpus.make ~n:a.Pins.n in
          (a, prebuilt ~n:a.Pins.n program_of, inits))
        Pins.analyses
    in
    let recorder = Replay.recorder () in
    let last = ref [] in
    let plain _ =
      let reports =
        List.map
          (fun ((a : Pins.analysis), program_of, inits) ->
            (a, Lower_bound.analyze ~n:a.Pins.n ~program_of ~inits ~max_rounds ()))
          inputs
      in
      last := List.map (fun (_, r) -> verdict_of_report r) reports;
      List.concat_map (fun (a, r) -> Pins.analyze a r) reports
    in
    (* Counts are summed over the analysed entries. *)
    let traced tr _ =
      let mem_ops = ref 0 in
      let verdicts =
        List.map
          (fun ((a : Pins.analysis), program_of, inits) ->
            let v, runs = analyze_mirror tr ~n:a.Pins.n ~program_of ~inits in
            List.iter
              (fun rounds ->
                Replay.start recorder ~inits;
                List.iter
                  (fun (rd : int Round.t) ->
                    List.iter
                      (fun (e : Round.event) ->
                        incr mem_ops;
                        Replay.record recorder e.Round.pid e.Round.invocation)
                      rd.Round.events)
                  rounds)
              runs;
            v)
          inputs
      in
      let sum f = fi (List.fold_left (fun a v -> a + f v) 0 verdicts) in
      {
        checks = [ Pins.mirror "analyze reports" (verdicts = !last) ];
        counts =
          [
            ("all_run.rounds", sum (fun v -> v.rounds));
            ("all_run.max_shared_ops", sum (fun v -> v.max_ops));
            ("upsets.s_size", sum (fun v -> v.s_size));
          ];
        mem_ops = !mem_ops;
        mem_spans = [ "all_run.execute"; "s_run.execute" ];
      }
    in
    { plain; traced; replay = (fun () -> Replay.segments recorder) }
  in
  { name = "analyze-lower-bound"; setup }

let all = [ certify; fuzz; explore; litmus; analyze ]
let find name = List.find_opt (fun w -> w.name = name) all
