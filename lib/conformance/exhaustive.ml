open Lb_universal
open Lb_faults
module Race = Lb_check.Race
module Sched_tree = Lb_check.Sched_tree
module Metrics = Lb_observe.Metrics

(* Is schedule reduction sound for this plan?  Injectors are driven by the
   global step clock, so under a non-empty plan commuting two steps can
   move a step in or out of a fault window: every step must then be
   treated as dependent with everything (no reduction, but still an
   exhaustive walk of the bounded schedule space). *)
let pure plan = Fault_plan.injectors plan = []

type cert = {
  xc_construction : string;
  xc_object_type : string;
  xc_plan : string;
  xc_model : Lb_memory.Memory_model.t;
  xc_n : int;
  xc_ops : int;
  xc_bounds : Sched_tree.bounds;
  xc_stats : Sched_tree.stats;
  xc_degraded : int;
  xc_counterexample : Fuzz.counterexample option;
}

(* A walk whose bounds cut every run certifies nothing and refutes
   nothing. *)
let empty c = c.xc_stats.Sched_tree.schedules = 0
let cert_ok c = c.xc_counterexample = None && not (empty c)

exception Inconclusive of string

(* The cell's step machine over {!Harness.state}.  The construction is
   installed once, on one memory, and every run starts from that initial
   state: the memory is restored to its checkpoint, the handle to its
   snapshot, and a fresh fault engine is armed.  Each step's footprint is
   the registers of the executed invocation, or the flushed register, and
   it is [blocking] when the step crossed an operation boundary — a
   response published or a give-up — because commuting those changes
   history precedence and so possibly the verdict.

   A state is a {!Harness.state}; the memory, the handle and the schedule
   so far live beside it, so a state's snapshot is a memory checkpoint, a
   handle snapshot and the schedule, and a step allocates little beyond
   the harness's own state.  Under a pure plan a run therefore executes
   its divergence step and what follows, never the prefix again.  Under
   an impure plan every step blocks and there is no snapshot: the fault
   engine's state is not part of a state, so those runs replay from the
   root. *)
let machine ~construction ~ot ~plan ~model ~n ~ops ~seed ~max_states =
  let i = Fuzz.instance ~construction ~ot ~plan ~n ~ops ~seed ~model () in
  let memory = i.Fuzz.memory and handle = i.Fuzz.handle in
  let initial = Lb_memory.Memory.checkpoint memory and initial_handle = handle.Iface.snapshot () in
  let impure = not (pure plan) in
  (* The hooks of the run in progress: every run arms its own engine. *)
  let hooks = ref None in
  (* The schedule so far, newest first. *)
  let log = ref [] in
  {
    Sched_tree.reset =
      (fun () ->
        Lb_memory.Memory.restore memory initial;
        initial_handle ();
        let engine = Fault_engine.instantiate ~seed plan in
        Fault_engine.arm engine memory;
        hooks := Some (Fault_engine.hooks engine);
        log := [];
        Harness.start ~memory ~handle ~n ~ops:i.Fuzz.workload ~fuel:i.Fuzz.fuel ());
    poll = (fun st -> Harness.poll ?hooks:!hooks st);
    exec =
      (fun st ~enabled id ->
        let regs =
          (* A flush pseudo-pid (>= n, see {!Lb_universal.Harness}) writes
             exactly its encoded register. *)
          if id >= n then [ snd (Lb_memory.Semantics.flush_of_id ~n id) ]
          else match Harness.pending st id with Some inv -> Race.footprint inv | None -> []
        in
        let st' = Harness.step ?hooks:!hooks st ~choices:enabled id in
        log := id :: !log;
        {
          Sched_tree.fp = { Race.regs; blocking = impure || Harness.boundary st st' };
          branches = 1;
          absorbed = [];
          next = (fun _ -> st');
        });
    key = None;
    snapshot =
      (if impure then None
       else
         Some
           (fun st ->
             let checkpoint = Lb_memory.Memory.checkpoint memory
             and restore_handle = handle.Iface.snapshot ()
             and schedule = !log in
             fun () ->
               Lb_memory.Memory.restore memory checkpoint;
               restore_handle ();
               log := schedule;
               st));
    judge =
      (fun st completed ->
        Fuzz.assess ~construction ~ot ~plan ~n ~ops ~max_states ~schedule:(List.rev !log)
          (Harness.finish st ~completed));
  }

let default_bounds = { Sched_tree.no_bounds with Sched_tree.preempt = Some 2 }

let certify_cell ~(construction : Iface.t) ~ot ~plan_name ~plan
    ?(model = Lb_memory.Memory_model.SC) ~n ~ops ~seed ?(bounds = default_bounds)
    ?(max_schedules = 200_000) ~max_states () =
  let degraded = ref 0 in
  let failed = ref None in
  let stats =
    Sched_tree.drive ~bounds ~max_schedules
      (machine ~construction ~ot ~plan ~model ~n ~ops ~seed ~max_states)
      ~f:(fun (r : Fuzz.run) ->
        match r.Fuzz.verdict with
        | Fuzz.Pass -> true
        | Fuzz.Degraded _ ->
          incr degraded;
          true
        | Fuzz.Fail (Fuzz.Check_budget { states }) ->
          raise
            (Inconclusive
               (Printf.sprintf "%s | %s | %s: the checker exhausted its budget of %d states"
                  construction.Iface.name ot.Fuzz.ot_name plan_name states))
        | Fuzz.Fail _ ->
          failed := Some r;
          false)
      ()
  in
  let counterexample =
    Option.map
      (fun r -> Fuzz.shrink_failure ~construction ~ot ~plan ~n ~ops ~seed ~model ~max_states r)
      !failed
  in
  let reg = Metrics.current () in
  Metrics.incr reg "conformance.exhaustive.cells";
  Metrics.incr ~by:stats.Sched_tree.schedules reg "conformance.exhaustive.schedules";
  Metrics.incr ~by:stats.Sched_tree.elided reg "conformance.exhaustive.elided";
  if counterexample <> None then Metrics.incr reg "conformance.exhaustive.failed";
  {
    xc_construction = construction.Iface.name;
    xc_object_type = ot.Fuzz.ot_name;
    xc_plan = plan_name;
    xc_model = model;
    xc_n = n;
    xc_ops = ops;
    xc_bounds = bounds;
    xc_stats = stats;
    xc_degraded = !degraded;
    xc_counterexample = counterexample;
  }

let pp_cert ppf c =
  Format.fprintf ppf "%-15s | %-12s | %-13s | %a under %a%s%s%s" c.xc_construction
    c.xc_object_type c.xc_plan Sched_tree.pp_stats c.xc_stats Sched_tree.pp_bounds
    c.xc_bounds
    (if Lb_memory.Memory_model.relaxed c.xc_model then
       Printf.sprintf " [%s]" (Lb_memory.Memory_model.to_string c.xc_model)
     else "")
    (if c.xc_degraded > 0 then Printf.sprintf " (%d degraded)" c.xc_degraded else "")
    (match c.xc_counterexample with
    | None when empty c -> " | INCONCLUSIVE (no schedule completed within the bounds)"
    | None -> ""
    | Some cx ->
      Format.asprintf " | COUNTEREXAMPLE |sched| %d -> %d (%a)"
        (List.length cx.Fuzz.original) (List.length cx.Fuzz.minimized) Fuzz.pp_verdict
        cx.Fuzz.minimized_verdict)

(* ---- JSON (the --report file CI reads) ---- *)

let json_of_bounds (b : Sched_tree.bounds) =
  let opt = function None -> Lb_observe.Json.Null | Some k -> Lb_observe.Json.Int k in
  Lb_observe.Json.(
    Obj
      [
        ("preempt", opt b.Sched_tree.preempt);
        ("fair", opt b.Sched_tree.fair);
        ("length", opt b.Sched_tree.length);
      ])

let json_of_stats (s : Sched_tree.stats) =
  Lb_observe.Json.(
    Obj
      [
        ("schedules", Int s.Sched_tree.schedules);
        ("sleep_blocked", Int s.Sched_tree.sleep_blocked);
        ("deduped", Int s.Sched_tree.deduped);
        ("elided", Int s.Sched_tree.elided);
        ("max_depth", Int s.Sched_tree.max_depth);
        ("exhaustive", Bool (Sched_tree.exhaustive s));
      ])

let json_of_cert c =
  Lb_observe.Json.(
    Obj
      ([
         ("construction", Str c.xc_construction);
         ("object_type", Str c.xc_object_type);
         ("plan", Str c.xc_plan);
         ("model", Str (Lb_memory.Memory_model.to_string c.xc_model));
         ("n", Int c.xc_n);
         ("ops", Int c.xc_ops);
         ("bounds", json_of_bounds c.xc_bounds);
         ("stats", json_of_stats c.xc_stats);
         ("degraded", Int c.xc_degraded);
         ("ok", Bool (cert_ok c));
       ]
      @
      match c.xc_counterexample with
      | None -> []
      | Some cx ->
        [
          ( "counterexample",
            Obj
              [
                ("original_len", Int (List.length cx.Fuzz.original));
                ("minimized", Arr (List.map (fun p -> Int p) cx.Fuzz.minimized));
                ( "verdict",
                  Str (Format.asprintf "%a" Fuzz.pp_verdict cx.Fuzz.minimized_verdict) );
                ("locally_minimal", Bool cx.Fuzz.locally_minimal);
                ("deterministic", Bool cx.Fuzz.deterministic);
              ] );
        ]))
