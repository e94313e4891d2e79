open Lb_universal
open Lb_faults
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

let cert_ok c = c.xc_counterexample = None

(* One schedule under the DPOR oracle.  The oracle's [choose] needs each
   step's dependency footprint, which is only observable inside the run:
   the registers come from the chosen process's pending invocation (tapped
   from the fault-filter hook), and whether the step was an operation
   boundary — response published, give-up, or crash restart, all of which
   must stay ordered against everything because commuting them changes
   history precedence — only shows in the harness metrics after the step
   executed.  So each decision commits late, when the next scheduling
   point (or the end of the run) reveals the boundary counters' delta. *)
let run_schedule ~construction ~ot ~plan ~model ~n ~ops ~seed ~max_states sched =
  let reg = Metrics.current () in
  let boundary () =
    Metrics.counter_value reg "harness.ops_completed"
    + Metrics.counter_value reg "harness.ops_failed"
    + Metrics.counter_value reg "harness.restarts"
  in
  let impure = not (pure plan) in
  let pending_of = ref (fun (_ : int) -> None) in
  let wrap_hooks (h : Harness.fault_hooks) =
    {
      h with
      Harness.filter =
        (fun ~step ~pending ~runnable ->
          pending_of := pending;
          h.Harness.filter ~step ~pending ~runnable);
    }
  in
  let parked = ref None in
  let commit_parked () =
    match !parked with
    | None -> ()
    | Some (regs, before) ->
      parked := None;
      let blocking = impure || boundary () <> before in
      ignore (Sched_tree.commit sched ~fp:{ Sched_tree.regs; blocking } ~branches:1)
  in
  let scheduler ~step ~runnable =
    commit_parked ();
    match Sched_tree.choose sched ~step ~enabled:runnable with
    | None -> None
    | Some pid ->
      let regs =
        (* A flush pseudo-pid (>= n, see {!Lb_universal.Harness}) writes
           exactly its encoded register; process steps footprint their
           pending invocation. *)
        if pid >= n then [ snd (Lb_memory.Semantics.flush_of_id ~n pid) ]
        else
          match !pending_of pid with
          | Some inv -> Sched_tree.footprint inv
          | None -> []
      in
      parked := Some (regs, boundary ());
      Some pid
  in
  let result, schedule =
    Fuzz.execute ~construction ~ot ~plan ~n ~ops ~seed ~model ~wrap_hooks ~scheduler ()
  in
  commit_parked ();
  if Sched_tree.interrupted sched then None
  else Some (Fuzz.assess ~construction ~ot ~plan ~n ~ops ~max_states ~schedule result)

let default_bounds = { Sched_tree.no_bounds with Sched_tree.preempt = Some 2 }

let certify_cell ~(construction : Iface.t) ~ot ~plan_name ~plan
    ?(model = Lb_memory.Memory_model.SC) ~n ~ops ~seed ?(bounds = default_bounds)
    ?(max_schedules = 200_000) ~max_states () =
  let degraded = ref 0 in
  let failed = ref None in
  let stats =
    Sched_tree.explore ~bounds ~max_schedules
      ~run:(run_schedule ~construction ~ot ~plan ~model ~n ~ops ~seed ~max_states)
      ~f:(fun (r : Fuzz.run) ->
        match r.Fuzz.verdict with
        | Fuzz.Pass -> true
        | Fuzz.Degraded _ ->
          incr degraded;
          true
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

(* ---- mutation certification ---- *)

type mutant_cert = {
  xm_construction : string;
  xm_mutant : string;
  xm_fired : int;
  xm_cert : cert;
}

(* A mutant is certified killed when the bounded-exhaustive walk finds a
   failing schedule; one that never fired cannot be killed regardless. *)
let mutant_cert_killed m = m.xm_fired > 0 && not (cert_ok m.xm_cert)
let mutant_cert_ok m = m.xm_fired = 0 || mutant_cert_killed m

let certify_mutant ~(construction : Iface.t) ~mutant ?model ~n ~ops ~seed ?bounds
    ?max_schedules ~max_states () =
  let mutated, fired = Mutate.wrap mutant construction in
  let ot =
    match Fuzz.find_type "fetch-inc" with Some ot -> ot | None -> assert false
  in
  let cert =
    certify_cell ~construction:mutated ~ot ~plan_name:"none" ~plan:Fault_plan.none ?model
      ~n ~ops ~seed ?bounds ?max_schedules ~max_states ()
  in
  let reg = Metrics.current () in
  Metrics.incr reg
    (if fired () = 0 then "conformance.exhaustive.mutants_inapplicable"
     else if cert_ok cert then "conformance.exhaustive.mutants_survived"
     else "conformance.exhaustive.mutants_killed");
  {
    xm_construction = construction.Iface.name;
    xm_mutant = mutant.Mutate.name;
    xm_fired = fired ();
    xm_cert = { cert with xc_construction = construction.Iface.name };
  }

(* ---- matrices and reports ---- *)

type report = { certs : cert list; mutants : mutant_cert list }

let ok r = List.for_all cert_ok r.certs && List.for_all mutant_cert_ok r.mutants

let matrix ?jobs ?(constructions = Targets.all) ?(types = Fuzz.object_types)
    ?(plans = [ ("none", Fault_plan.none) ]) ?model ~n ~ops ~seed ?bounds ?max_schedules
    ~max_states () =
  let cells =
    List.concat_map
      (fun construction ->
        List.concat_map
          (fun ot ->
            if not (Fuzz.supports ~construction ot) then []
            else List.map (fun plan -> (construction, ot, plan)) plans)
          types)
      constructions
  in
  Lb_exec.Pool.map ?jobs
    (fun (construction, ot, (plan_name, plan)) ->
      certify_cell ~construction ~ot ~plan_name ~plan ?model ~n ~ops ~seed ?bounds
        ?max_schedules ~max_states ())
    cells

let mutant_matrix ?jobs ?(constructions = Targets.all) ?(mutants = Mutate.all) ?model ~n
    ~ops ~seed ?bounds ?max_schedules ~max_states () =
  let cells =
    List.concat_map
      (fun construction -> List.map (fun mutant -> (construction, mutant)) mutants)
      constructions
  in
  Lb_exec.Pool.map ?jobs
    (fun (construction, mutant) ->
      certify_mutant ~construction ~mutant ?model ~n ~ops ~seed ?bounds ?max_schedules
        ~max_states ())
    cells

let pp_cert ppf c =
  Format.fprintf ppf "%-15s | %-12s | %-13s | %a under %a%s%s%s" c.xc_construction
    c.xc_object_type c.xc_plan Sched_tree.pp_stats c.xc_stats Sched_tree.pp_bounds
    c.xc_bounds
    (if Lb_memory.Memory_model.relaxed c.xc_model then
       Printf.sprintf " [%s]" (Lb_memory.Memory_model.to_string c.xc_model)
     else "")
    (if c.xc_degraded > 0 then Printf.sprintf " (%d degraded)" c.xc_degraded else "")
    (match c.xc_counterexample with
    | None -> ""
    | Some cx ->
      Format.asprintf " | COUNTEREXAMPLE |sched| %d -> %d (%a)"
        (List.length cx.Fuzz.original) (List.length cx.Fuzz.minimized) Fuzz.pp_verdict
        cx.Fuzz.minimized_verdict)

let pp_mutant_cert ppf m =
  Format.fprintf ppf "%-15s | %-18s | fired %6d | %s" m.xm_construction m.xm_mutant
    m.xm_fired
    (if m.xm_fired = 0 then "not applicable (never fired)"
     else if mutant_cert_killed m then
       Format.asprintf "KILLED (%a)" Sched_tree.pp_stats m.xm_cert.xc_stats
     else Format.asprintf "SURVIVED (%a)" Sched_tree.pp_stats m.xm_cert.xc_stats)

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  if r.certs <> [] then begin
    Format.fprintf ppf "construction    | object type  | plan          | exploration@ ";
    Format.fprintf ppf "%s@ " (String.make 76 '-');
    List.iter (fun c -> Format.fprintf ppf "%a@ " pp_cert c) r.certs
  end;
  if r.mutants <> [] then begin
    Format.fprintf ppf "construction    | mutant             | fired       | outcome@ ";
    Format.fprintf ppf "%s@ " (String.make 76 '-');
    List.iter (fun m -> Format.fprintf ppf "%a@ " pp_mutant_cert m) r.mutants
  end;
  Format.fprintf ppf "verdict: %s@ " (if ok r then "CERTIFIED" else "NON-CONFORMANT");
  Format.fprintf ppf "@]"

(* ---- JSON (for CI artifacts and the service layer) ---- *)

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

let json_of_mutant_cert m =
  Lb_observe.Json.(
    Obj
      [
        ("construction", Str m.xm_construction);
        ("mutant", Str m.xm_mutant);
        ("fired", Int m.xm_fired);
        ("killed", Bool (mutant_cert_killed m));
        ("ok", Bool (mutant_cert_ok m));
        ("stats", json_of_stats m.xm_cert.xc_stats);
      ])

let json_of_report r =
  Lb_observe.Json.(
    Obj
      [
        ("cells", Arr (List.map json_of_cert r.certs));
        ("mutants", Arr (List.map json_of_mutant_cert r.mutants));
        ("ok", Bool (ok r));
      ])
