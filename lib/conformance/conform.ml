open Lb_universal
open Lb_faults

let constructions = Targets.all
let find_construction = Targets.find

type mutant_outcome =
  | Killed of { seed : int; failure : Fuzz.failure; minimized_len : int }
  | Survived of { runs : int }
  | Not_applicable

type mutant_cell = {
  mc_construction : string;
  mc_mutant : string;
  fired : int;
  outcome : mutant_outcome;
}

let mutant_killed c = match c.outcome with Killed _ | Not_applicable -> true | Survived _ -> false

(* Kill one mutant on one construction: fuzz the mutated construction on
   fetch&increment (the one type every target implements) under the
   fault-free plan until the checker rejects a history.  A mutant that never
   fired cannot be killed and is reported not-applicable. *)
let hunt_mutant ~construction ~mutant ?model ~n ~ops ~schedules ~seed ~max_states () =
  let mutated, fired = Mutate.wrap mutant construction in
  let ot =
    match Fuzz.find_type "fetch-inc" with Some ot -> ot | None -> assert false
  in
  let rec go i =
    if i >= schedules then
      if fired () = 0 then Not_applicable else Survived { runs = schedules }
    else
      let seed_i = seed + i in
      let r =
        Fuzz.run_once ~construction:mutated ~ot ~plan:Fault_plan.none ~n ~ops ~seed:seed_i
          ?model ~max_states ~scheduler:(Fuzz.sample_scheduler ~seed:seed_i) ()
      in
      match r.Fuzz.verdict with
      | Fuzz.Fail failure ->
        let cx =
          Fuzz.shrink_failure ~construction:mutated ~ot ~plan:Fault_plan.none ~n ~ops
            ~seed:seed_i ?model ~max_states r
        in
        Killed { seed = seed_i; failure; minimized_len = List.length cx.Fuzz.minimized }
      | Fuzz.Pass | Fuzz.Degraded _ -> go (i + 1)
  in
  let outcome = go 0 in
  let reg = Lb_observe.Metrics.current () in
  Lb_observe.Metrics.incr reg
    (match outcome with
    | Killed _ -> "conformance.mutants_killed"
    | Survived _ -> "conformance.mutants_survived"
    | Not_applicable -> "conformance.mutants_inapplicable");
  {
    mc_construction = construction.Iface.name;
    mc_mutant = mutant.Mutate.name;
    fired = fired ();
    outcome;
  }

(* Both matrices fan their cells across a domain pool.  Every cell is a
   pure function of its (construction, type/mutant, plan, seed) key —
   the fuzzer derives all randomness from the seed — and [Pool.map] is
   order-preserving, so reports are byte-identical at every job
   count. *)
let mutation_matrix ?jobs ?(constructions = constructions) ?(mutants = Mutate.all) ?model
    ~n ~ops ~schedules ~seed ~max_states () =
  let cells =
    List.concat_map
      (fun construction -> List.map (fun mutant -> (construction, mutant)) mutants)
      constructions
  in
  Lb_exec.Pool.map ?jobs
    (fun (construction, mutant) ->
      hunt_mutant ~construction ~mutant ?model ~n ~ops ~schedules ~seed ~max_states ())
    cells

let fuzz_matrix ?jobs ?(constructions = constructions) ?(types = Fuzz.object_types)
    ?(plans = [ ("none", Fault_plan.none) ]) ?model ~n ~ops ~schedules ~seed ~max_states () =
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
      Fuzz.check_cell ~construction ~ot ~plan_name ~plan ?model ~n ~ops ~schedules ~seed
        ~max_states ())
    cells

type report = { cells : Fuzz.cell list; mutants : mutant_cell list }

let ok r = List.for_all Fuzz.cell_ok r.cells && List.for_all mutant_killed r.mutants

let outcome_string = function
  | Killed { seed; minimized_len; _ } ->
    Printf.sprintf "KILLED (seed %d, minimal schedule %d steps)" seed minimized_len
  | Survived { runs } -> Printf.sprintf "SURVIVED %d schedules" runs
  | Not_applicable -> "not applicable (never fired)"

let pp_mutant_cell ppf c =
  Format.fprintf ppf "%-15s | %-18s | fired %6d | %s" c.mc_construction c.mc_mutant c.fired
    (outcome_string c.outcome)

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  if r.cells <> [] then begin
    Format.fprintf ppf "construction    | object type  | plan          | verdict@ ";
    Format.fprintf ppf "%s@ " (String.make 76 '-');
    List.iter (fun c -> Format.fprintf ppf "%a@ " Fuzz.pp_cell c) r.cells
  end;
  if r.mutants <> [] then begin
    Format.fprintf ppf "construction    | mutant             | fired       | outcome@ ";
    Format.fprintf ppf "%s@ " (String.make 76 '-');
    List.iter (fun c -> Format.fprintf ppf "%a@ " pp_mutant_cell c) r.mutants
  end;
  Format.fprintf ppf "verdict: %s@ " (if ok r then "CONFORMANT" else "NON-CONFORMANT");
  Format.fprintf ppf "@]"

(* ---- JSON (for the service layer) ---- *)

let json_of_counterexample (cx : Fuzz.counterexample) =
  Lb_observe.Json.(
    Obj
      [
        ("seed", Int cx.Fuzz.seed_used);
        ("original_len", Int (List.length cx.Fuzz.original));
        ("minimized", Arr (List.map (fun p -> Int p) cx.Fuzz.minimized));
        ("verdict", Str (Format.asprintf "%a" Fuzz.pp_verdict cx.Fuzz.minimized_verdict));
        ("locally_minimal", Bool cx.Fuzz.locally_minimal);
        ("deterministic", Bool cx.Fuzz.deterministic);
      ])

let json_of_cell (c : Fuzz.cell) =
  Lb_observe.Json.(
    Obj
      ([
         ("construction", Str c.Fuzz.construction);
         ("object_type", Str c.Fuzz.object_type);
         ("plan", Str c.Fuzz.plan_name);
         ("model", Str (Lb_memory.Memory_model.to_string c.Fuzz.model));
         ("n", Int c.Fuzz.n);
         ("ops", Int c.Fuzz.ops);
         ("runs", Int c.Fuzz.runs);
         ("passed", Int c.Fuzz.passed);
         ("degraded", Int c.Fuzz.degraded);
         ("ok", Bool (Fuzz.cell_ok c));
       ]
      @
      match c.Fuzz.counterexample with
      | None -> []
      | Some cx -> [ ("counterexample", json_of_counterexample cx) ]))

let json_of_mutant_cell c =
  Lb_observe.Json.(
    Obj
      [
        ("construction", Str c.mc_construction);
        ("mutant", Str c.mc_mutant);
        ("fired", Int c.fired);
        ("outcome", Str (outcome_string c.outcome));
        ("killed", Bool (mutant_killed c));
      ])

let json_of_report r =
  Lb_observe.Json.(
    Obj
      [
        ("cells", Arr (List.map json_of_cell r.cells));
        ("mutants", Arr (List.map json_of_mutant_cell r.mutants));
        ("ok", Bool (ok r));
      ])
