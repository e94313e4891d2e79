open Lb_memory
open Lb_runtime
open Lb_universal
open Lb_faults
module Linearize = Lb_objects.Linearize

type object_type = {
  ot_name : string;
  spec_of : n:int -> Lb_objects.Spec.t;
  op_of : n:int -> seed:int -> pid:int -> idx:int -> Value.t;
  direct_ok : bool;
}

let h ~seed ~pid ~idx = Coin.hash ~seed ~pid ~idx

let object_types =
  [
    {
      ot_name = "fetch-inc";
      spec_of = (fun ~n:_ -> Lb_objects.Counters.fetch_inc ~bits:30);
      op_of = (fun ~n:_ ~seed:_ ~pid:_ ~idx:_ -> Value.Unit);
      direct_ok = true;
    };
    {
      ot_name = "fetch-add";
      spec_of = (fun ~n:_ -> Lb_objects.Counters.fetch_add ~bits:30);
      op_of = (fun ~n:_ ~seed ~pid ~idx -> Value.Int (1 + (h ~seed ~pid ~idx mod 9)));
      direct_ok = false;
    };
    {
      ot_name = "read-inc";
      spec_of = (fun ~n:_ -> Lb_objects.Counters.read_inc ~bits:30);
      op_of =
        (fun ~n:_ ~seed ~pid ~idx ->
          if h ~seed ~pid ~idx mod 2 = 0 then Lb_objects.Counters.op_inc
          else Lb_objects.Counters.op_read);
      direct_ok = false;
    };
    {
      ot_name = "fetch-or";
      spec_of = (fun ~n:_ -> Lb_objects.Bitwise.fetch_or ~bits:8);
      op_of = (fun ~n:_ ~seed ~pid ~idx -> Value.Int (1 lsl (h ~seed ~pid ~idx mod 8)));
      direct_ok = false;
    };
    {
      ot_name = "fetch-multiply";
      spec_of = (fun ~n:_ -> Lb_objects.Bitwise.fetch_multiply ~bits:16);
      op_of = (fun ~n:_ ~seed ~pid ~idx -> Value.Int (2 + (h ~seed ~pid ~idx mod 3)));
      direct_ok = false;
    };
    {
      ot_name = "queue";
      spec_of = (fun ~n:_ -> Lb_objects.Containers.queue);
      op_of =
        (fun ~n:_ ~seed ~pid ~idx ->
          if h ~seed ~pid ~idx mod 2 = 0 then
            Lb_objects.Containers.op_enq (Value.Int ((100 * pid) + idx))
          else Lb_objects.Containers.op_deq);
      direct_ok = false;
    };
    {
      ot_name = "stack";
      spec_of = (fun ~n:_ -> Lb_objects.Containers.stack);
      op_of =
        (fun ~n:_ ~seed ~pid ~idx ->
          if h ~seed ~pid ~idx mod 2 = 0 then
            Lb_objects.Containers.op_push (Value.Int ((100 * pid) + idx))
          else Lb_objects.Containers.op_pop);
      direct_ok = false;
    };
    {
      ot_name = "swap";
      spec_of = (fun ~n:_ -> Lb_objects.Misc_types.swap_object ~init:(Value.Int 0));
      op_of = (fun ~n:_ ~seed ~pid ~idx -> Value.Int (h ~seed ~pid ~idx mod 5));
      direct_ok = false;
    };
    {
      ot_name = "test-set";
      spec_of = (fun ~n:_ -> Lb_objects.Misc_types.test_and_set);
      op_of =
        (fun ~n:_ ~seed ~pid ~idx ->
          if h ~seed ~pid ~idx mod 3 = 0 then Lb_objects.Misc_types.op_reset
          else Lb_objects.Misc_types.op_test_set);
      direct_ok = false;
    };
    {
      ot_name = "cas";
      spec_of = (fun ~n:_ -> Lb_objects.Misc_types.compare_and_swap ~init:(Value.Int 0));
      op_of =
        (fun ~n:_ ~seed ~pid ~idx ->
          Lb_objects.Misc_types.op_cas
            ~expected:(Value.Int (h ~seed ~pid ~idx mod 3))
            ~new_:(Value.Int (h ~seed ~pid ~idx:(idx + 1000) mod 3)));
      direct_ok = false;
    };
    {
      ot_name = "snapshot";
      spec_of = (fun ~n -> Lb_objects.Misc_types.snapshot ~n);
      op_of =
        (fun ~n:_ ~seed ~pid ~idx ->
          if h ~seed ~pid ~idx mod 3 = 0 then Lb_objects.Misc_types.op_scan
          else Lb_objects.Misc_types.op_update ~segment:pid (Value.Int (h ~seed ~pid ~idx mod 7)));
      direct_ok = false;
    };
    {
      ot_name = "consensus";
      spec_of = (fun ~n:_ -> Lb_objects.Misc_types.consensus);
      op_of = (fun ~n:_ ~seed:_ ~pid ~idx:_ -> Lb_objects.Misc_types.op_propose (Value.Int pid));
      direct_ok = false;
    };
  ]

let find_type name = List.find_opt (fun ot -> ot.ot_name = name) object_types
let type_names = List.map (fun ot -> ot.ot_name) object_types

let supports ~(construction : Iface.t) ot =
  (not (String.equal construction.Iface.name "direct")) || ot.direct_ok

type failure =
  | Not_linearizable of { states : int; bad_prefix : int; completed : int }
  | Unexcused_give_up of { pid : int; seq : int; reason : string }
  | Starved of { pids : int list }
  | Bound_exceeded of { pid : int; seq : int; cost : int; bound : int }
  | Check_budget of { states : int }

type verdict = Pass | Degraded of string | Fail of failure

type run = { verdict : verdict; schedule : int list; checked_ops : int; states : int }

let same_class a b =
  match (a, b) with
  | Pass, Pass -> true
  | Degraded _, Degraded _ -> true
  | Fail (Not_linearizable _), Fail (Not_linearizable _) -> true
  | Fail (Unexcused_give_up _), Fail (Unexcused_give_up _) -> true
  | Fail (Starved _), Fail (Starved _) -> true
  | Fail (Bound_exceeded _), Fail (Bound_exceeded _) -> true
  | Fail (Check_budget _), Fail (Check_budget _) -> true
  | _ -> false

let pp_failure ppf = function
  | Not_linearizable { states; bad_prefix; completed } ->
    Format.fprintf ppf "not linearizable (first %d of %d responses, %d states)" bad_prefix
      completed states
  | Unexcused_give_up { pid; seq; reason } ->
    Format.fprintf ppf "p%d#%d gave up with no fault to excuse it: %s" pid seq reason
  | Starved { pids } ->
    Format.fprintf ppf "starved: {%s}"
      (String.concat ", " (List.map (Printf.sprintf "p%d") pids))
  | Bound_exceeded { pid; seq; cost; bound } ->
    Format.fprintf ppf "p%d#%d cost %d exceeds the analytic wait-free bound %d" pid seq cost
      bound
  | Check_budget { states } -> Format.fprintf ppf "checker budget exhausted (%d states)" states

let pp_verdict ppf = function
  | Pass -> Format.pp_print_string ppf "pass"
  | Degraded note -> Format.fprintf ppf "degraded (%s)" note
  | Fail f -> Format.fprintf ppf "FAIL: %a" pp_failure f

type instance = {
  handle : Iface.handle;
  memory : Memory.t;
  workload : int -> Value.t list;
  fuel : int;
}

let instance ~(construction : Iface.t) ~ot ~plan ~n ~ops ~seed ?(model = Memory_model.SC) () =
  let layout = Layout.create () in
  let handle = construction.Iface.create layout ~n (ot.spec_of ~n) in
  let memory = Memory.create ~model () in
  Layout.install layout memory;
  let bound = construction.Iface.worst_case ~n in
  {
    handle;
    memory;
    workload = (fun pid -> List.init ops (fun idx -> ot.op_of ~n ~seed ~pid ~idx));
    fuel = (64 * n * ops * (bound + 8)) + Fault_plan.horizon plan;
  }

(* Drive one execution: instantiate construction + fault engine on a fresh
   memory and run the seeded workload under [scheduler], recording every
   choice.  [wrap_hooks] lets a caller interpose on the fault hooks.  Fully
   deterministic in (construction, ot, plan, n, ops, seed, scheduler). *)
let execute ~construction ~ot ~plan ~n ~ops ~seed ?model ?(wrap_hooks = Fun.id) ~scheduler () =
  let i = instance ~construction ~ot ~plan ~n ~ops ~seed ?model () in
  let engine = Fault_engine.instantiate ~seed plan in
  Fault_engine.arm engine i.memory;
  let log = ref [] in
  let recording ~step ~runnable =
    match scheduler ~step ~runnable with
    | Some pid ->
      log := pid :: !log;
      Some pid
    | None -> None
  in
  let result =
    Harness.run_handle ~memory:i.memory ~handle:i.handle ~n ~ops:i.workload
      ~scheduler:recording ~fuel:i.fuel
      ~hooks:(wrap_hooks (Fault_engine.hooks engine))
      ()
  in
  (result, List.rev !log)

let cost_bound ~(construction : Iface.t) ~plan ~n =
  let bound = construction.Iface.worst_case ~n in
  let recovering = Fault_plan.crash_recovering plan in
  fun pid -> if List.mem pid recovering then 2 * bound else bound

(* Judge one executed run: completion accounting, the analytic cost bound,
   give-up excuses, then linearizability.  Shared verbatim by the fuzzer,
   the exhaustive checker and the [faults] command, so a run is judged
   identically however it was produced. *)
let assess ~(construction : Iface.t) ~ot ~plan ~n ~ops ~max_states ~schedule result =
  let spec = ot.spec_of ~n in
  let history = result.Harness.history in
  let checked_ops = List.length history in
  let stopped = Fault_plan.crash_stopped plan in
  let reg = Lb_observe.Metrics.current () in
  Lb_observe.Metrics.incr reg "conformance.runs";
  Lb_observe.Metrics.incr ~by:checked_ops reg "conformance.checked_ops";
  let finish verdict states =
    Lb_observe.Metrics.incr reg
      (match verdict with
      | Pass -> "conformance.pass"
      | Degraded _ -> "conformance.degraded"
      | Fail _ -> "conformance.fail");
    { verdict; schedule; checked_ops; states }
  in
  (* Survivors must account for every operation; crash-stopped pids are
     allowed to leave the rest of their queue unrun. *)
  let accounted pid =
    List.length
      (List.filter (fun (s : Harness.op_stat) -> s.Harness.pid = pid) result.Harness.stats)
    + List.length
        (List.filter (fun (f : Harness.op_failure) -> f.Harness.pid = pid) result.Harness.failures)
  in
  let starved =
    List.filter (fun pid -> (not (List.mem pid stopped)) && accounted pid < ops) (List.init n Fun.id)
  in
  if starved <> [] then finish (Fail (Starved { pids = starved })) 0
  else
    (* Conformance is linearizability *plus* the analytic worst-case cost:
       the paper's upper-bound claim is about shared-access time, so an
       operation that overshoots the construction's bound is a conformance
       failure (it kills helping-removal mutants that are
       linearizability-preserving).  Crash-stopped pids are exempt, a
       crash-recovering pid may spend twice the bound (its re-invocation
       starts over), and injected spurious SC failures excuse an overshoot
       as a degradation. *)
    let bound_of = cost_bound ~construction ~plan ~n in
    let over_bound =
      List.find_opt
        (fun (s : Harness.op_stat) ->
          s.Harness.cost > bound_of s.Harness.pid && not (List.mem s.Harness.pid stopped))
        result.Harness.stats
      |> Option.map (fun (s : Harness.op_stat) ->
             Bound_exceeded
               { pid = s.Harness.pid; seq = s.Harness.seq; cost = s.Harness.cost;
                 bound = bound_of s.Harness.pid })
    in
    let spurious = Fault_plan.has_spurious plan in
    match over_bound with
    | Some failure when not spurious -> finish (Fail failure) 0
    | _ ->
    let unexcused =
      if spurious then None
      else
        match result.Harness.failures with
        | [] -> None
        | f :: _ ->
          Some (Unexcused_give_up { pid = f.Harness.pid; seq = f.Harness.seq; reason = f.Harness.reason })
    in
    match unexcused with
    | Some failure -> finish (Fail failure) 0
    | None -> (
      match Linearize.check ~max_states spec history with
      | Linearize.Linearizable { stats; _ } ->
        let gave_up = List.length result.Harness.failures in
        if gave_up > 0 then
          finish
            (Degraded (Printf.sprintf "%d give-up(s) under injected spurious SC failures" gave_up))
            stats.Linearize.states
        else (
          match over_bound with
          | Some failure ->
            finish
              (Degraded
                 (Format.asprintf "%a under injected spurious SC failures" pp_failure failure))
              stats.Linearize.states
          | None when result.Harness.restarts > 0 ->
            finish
              (Degraded (Printf.sprintf "%d crash-recovery restart(s)" result.Harness.restarts))
              stats.Linearize.states
          | None -> finish Pass stats.Linearize.states)
      | Linearize.Not_linearizable { stats; completed; bad_prefix } ->
        finish
          (Fail (Not_linearizable { states = stats.Linearize.states; bad_prefix; completed }))
          stats.Linearize.states
      | Linearize.Budget_exhausted { budget; _ } ->
        finish (Fail (Check_budget { states = budget })) budget)

let run_once ~construction ~ot ~plan ~n ~ops ~seed ?model ~max_states ~scheduler () =
  let result, schedule =
    execute ~construction ~ot ~plan ~n ~ops ~seed ?model ~scheduler ()
  in
  assess ~construction ~ot ~plan ~n ~ops ~max_states ~schedule result

let tree_scheduler sched ~step ~runnable =
  Lb_check.Sched_tree.choose sched ~step ~enabled:runnable

(* Replay a recorded schedule: consume entries (skipping ones that are not
   runnable at that step), then finish the run round-robin so the verdict is
   always about a completed run.  Deterministic. *)
let replay_scheduler entries =
  let fixed = Scheduler.fixed entries in
  fun ~step ~runnable ->
    match fixed ~step ~runnable with
    | Some _ as pid -> pid
    | None -> Scheduler.round_robin ~step ~runnable

(* Eta-expanded: a partial application of [Scheduler.random], whose arity
   this module does not see, would allocate a closure at every step. *)
let sample_scheduler ~seed ~step ~runnable = Scheduler.random ~seed ~step ~runnable

let replay ~construction ~ot ~plan ~n ~ops ~seed ?model ~max_states schedule =
  run_once ~construction ~ot ~plan ~n ~ops ~seed ?model ~max_states
    ~scheduler:(replay_scheduler schedule) ()

type counterexample = {
  seed_used : int;
  original : int list;
  minimized : int list;
  minimized_verdict : verdict;
  locally_minimal : bool;
  deterministic : bool;  (** replaying [minimized] twice gives equal verdicts. *)
}

type cell = {
  construction : string;
  object_type : string;
  plan_name : string;
  model : Memory_model.t;
  n : int;
  ops : int;
  budget : int;  (** schedules requested. *)
  runs : int;  (** schedules executed (stops at the first failure). *)
  passed : int;
  degraded : int;
  counterexample : counterexample option;
}

let shrink_failure ~construction ~ot ~plan ~n ~ops ~seed ?model ~max_states (failed : run) =
  let verdict_of schedule =
    (replay ~construction ~ot ~plan ~n ~ops ~seed ?model ~max_states schedule).verdict
  in
  let test schedule = same_class (verdict_of schedule) failed.verdict in
  let minimized = Shrink.minimize ~test failed.schedule in
  let v1 = verdict_of minimized and v2 = verdict_of minimized in
  let reg = Lb_observe.Metrics.current () in
  Lb_observe.Metrics.incr ~by:(List.length failed.schedule - List.length minimized) reg
    "conformance.shrink.removed_steps";
  {
    seed_used = seed;
    original = failed.schedule;
    minimized;
    minimized_verdict = v1;
    locally_minimal = Shrink.is_one_minimal ~test minimized;
    deterministic = same_class v1 v2 && v1 = v2;
  }

let check_cell ~(construction : Iface.t) ~ot ~plan_name ~plan
    ?(model = Memory_model.SC) ~n ~ops ~schedules ~seed ~max_states () =
  let passed = ref 0 and degraded = ref 0 in
  let cell ~runs counterexample =
    {
      construction = construction.Iface.name;
      object_type = ot.ot_name;
      plan_name;
      model;
      n;
      ops;
      budget = schedules;
      runs;
      passed = !passed;
      degraded = !degraded;
      counterexample;
    }
  in
  let rec go i =
    if i >= schedules then cell ~runs:schedules None
    else
      let seed_i = seed + i in
      let r =
        run_once ~construction ~ot ~plan ~n ~ops ~seed:seed_i ~model ~max_states
          ~scheduler:(sample_scheduler ~seed:seed_i) ()
      in
      match r.verdict with
      | Pass ->
        incr passed;
        go (i + 1)
      | Degraded _ ->
        incr degraded;
        go (i + 1)
      (* An undecided history is no counterexample: there is nothing to
         shrink towards, and the cell stops inconclusive. *)
      | Fail (Check_budget _) -> cell ~runs:(i + 1) None
      | Fail _ ->
        let cx =
          shrink_failure ~construction ~ot ~plan ~n ~ops ~seed:seed_i ~model ~max_states r
        in
        cell ~runs:(i + 1) (Some cx)
  in
  go 0

let cell_inconclusive c = c.counterexample = None && c.passed + c.degraded < c.runs
let cell_ok c = c.counterexample = None && not (cell_inconclusive c)

let pp_cell ppf c =
  Format.fprintf ppf "%-15s | %-12s | %-13s | %4d/%d ok (%d degraded)%s%s" c.construction
    c.object_type c.plan_name c.passed c.runs c.degraded
    (if Memory_model.relaxed c.model then
       Printf.sprintf " [%s]" (Memory_model.to_string c.model)
     else "")
    (match c.counterexample with
    | None when cell_inconclusive c ->
      Printf.sprintf " | INCONCLUSIVE (checker budget exhausted on schedule %d)" c.runs
    | None -> ""
    | Some cx ->
      Format.asprintf " | COUNTEREXAMPLE seed=%d |sched| %d -> %d (%a)%s" cx.seed_used
        (List.length cx.original) (List.length cx.minimized) pp_verdict cx.minimized_verdict
        (if cx.locally_minimal then ", locally minimal" else ""))
