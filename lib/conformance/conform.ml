open Lb_universal
open Lb_faults
module Sched_tree = Lb_check.Sched_tree

type mode =
  | Sample of { schedules : int }
  | Walk of { bounds : Sched_tree.bounds; max_schedules : int }

type cell = Sampled of Fuzz.cell | Walked of Exhaustive.cert

let check_cell ~mode ~construction ~ot ~plan_name ~plan ?model ~n ~ops ~seed ~max_states () =
  match mode with
  | Sample { schedules } ->
    Sampled
      (Fuzz.check_cell ~construction ~ot ~plan_name ~plan ?model ~n ~ops ~schedules ~seed
         ~max_states ())
  | Walk { bounds; max_schedules } ->
    Walked
      (Exhaustive.certify_cell ~construction ~ot ~plan_name ~plan ?model ~n ~ops ~seed ~bounds
         ~max_schedules ~max_states ())

let counterexample = function
  | Sampled c -> c.Fuzz.counterexample
  | Walked c -> c.Exhaustive.xc_counterexample

let cell_ok = function Sampled c -> Fuzz.cell_ok c | Walked c -> Exhaustive.cert_ok c

(* Neither conformant nor refuted: the checker could not decide a sampled
   history, or the bounds cut every walked run. *)
let cell_inconclusive c = (not (cell_ok c)) && counterexample c = None

type mutant = {
  mc_construction : string;
  mc_mutant : string;
  seed : int;
  fired : int;
  cell : cell;
}

type outcome = Killed | Survived | Inconclusive | Not_applicable

(* A mutant that never fired ran as the construction itself, so it is not
   applicable; but a sampled hunt that stopped at a history the checker
   could not decide might have fired it on a later schedule.  A walked
   cell never stops short: an undecided history raises
   [Exhaustive.Inconclusive]. *)
let outcome m =
  match m.cell with
  | c when counterexample c <> None -> Killed
  | Sampled c when Fuzz.cell_inconclusive c -> Inconclusive
  | _ when m.fired = 0 -> Not_applicable
  | c when cell_ok c -> Survived
  | _ -> Inconclusive

let mutant_ok m =
  match outcome m with Killed | Not_applicable -> true | Survived | Inconclusive -> false

(* Kill one mutant on one construction: run the mutated construction's
   fetch&increment cell (the one type every target implements) under the
   fault-free plan.  The cell stops at, and shrinks, the first failing
   schedule. *)
let hunt_mutant ~mode ~construction ~mutant ?model ~n ~ops ~seed ~max_states () =
  let mutated, fired = Mutate.wrap mutant construction in
  let ot = Option.get (Fuzz.find_type "fetch-inc") in
  let cell =
    check_cell ~mode ~construction:mutated ~ot ~plan_name:"none" ~plan:Fault_plan.none ?model ~n
      ~ops ~seed ~max_states ()
  in
  let m =
    {
      mc_construction = construction.Iface.name;
      mc_mutant = mutant.Mutate.name;
      seed;
      fired = fired ();
      cell;
    }
  in
  Lb_observe.Metrics.incr (Lb_observe.Metrics.current ())
    (match outcome m with
    | Killed -> "conformance.mutants_killed"
    | Survived -> "conformance.mutants_survived"
    | Inconclusive -> "conformance.mutants_inconclusive"
    | Not_applicable -> "conformance.mutants_inapplicable");
  m

(* Both matrices fan their cells across a domain pool.  Every cell is a
   pure function of its (construction, type/mutant, plan, seed) key —
   the fuzzer derives all randomness from the seed and the walk is
   deterministic — and [Pool.map] is order-preserving, so reports are
   byte-identical at every job count. *)
let mutant_matrix ?jobs ?(constructions = Targets.all) ~mode ?model ~n ~ops ~seed ~max_states
    () =
  let cells =
    List.concat_map
      (fun construction -> List.map (fun mutant -> (construction, mutant)) Mutate.all)
      constructions
  in
  Lb_exec.Pool.map ?jobs
    (fun (construction, mutant) ->
      hunt_mutant ~mode ~construction ~mutant ?model ~n ~ops ~seed ~max_states ())
    cells

let matrix ?jobs ?(constructions = Targets.all) ?(types = Fuzz.object_types)
    ?(plans = [ ("none", Fault_plan.none) ]) ~mode ?model ~n ~ops ~seed ~max_states () =
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
      check_cell ~mode ~construction ~ot ~plan_name ~plan ?model ~n ~ops ~seed ~max_states ())
    cells

type report = { mode : mode; cells : cell list; mutants : mutant list }

let ok r = List.for_all cell_ok r.cells && List.for_all mutant_ok r.mutants

let inconclusive r =
  (not (ok r))
  && List.for_all (fun c -> cell_ok c || cell_inconclusive c) r.cells
  && List.for_all (fun m -> mutant_ok m || outcome m = Inconclusive) r.mutants

let outcome_string m =
  match (outcome m, m.cell) with
  | Not_applicable, _ -> "not applicable (never fired)"
  | outcome, Walked c ->
    Format.asprintf "%s (%a)"
      (match outcome with Killed -> "KILLED" | Inconclusive -> "INCONCLUSIVE" | _ -> "SURVIVED")
      Sched_tree.pp_stats c.Exhaustive.xc_stats
  | _, Sampled { Fuzz.counterexample = Some cx; _ } ->
    Printf.sprintf "KILLED (seed %d, minimal schedule %d steps)" cx.Fuzz.seed_used
      (List.length cx.Fuzz.minimized)
  | Inconclusive, Sampled c ->
    Printf.sprintf "INCONCLUSIVE (checker budget exhausted on seed %d)" (m.seed + c.Fuzz.runs - 1)
  | _, Sampled c -> Printf.sprintf "SURVIVED %d schedules" c.Fuzz.runs

let pp_cell ppf = function Sampled c -> Fuzz.pp_cell ppf c | Walked c -> Exhaustive.pp_cert ppf c

let pp_mutant ppf m =
  Format.fprintf ppf "%-15s | %-18s | fired %6d | %s" m.mc_construction m.mc_mutant m.fired
    (outcome_string m)

let pp_report ppf r =
  let walk = match r.mode with Walk _ -> true | Sample _ -> false in
  Format.fprintf ppf "@[<v>";
  if r.cells <> [] then begin
    Format.fprintf ppf "construction    | object type  | plan          | %s@ "
      (if walk then "exploration" else "verdict");
    Format.fprintf ppf "%s@ " (String.make 76 '-');
    List.iter (fun c -> Format.fprintf ppf "%a@ " pp_cell c) r.cells
  end;
  if r.mutants <> [] then begin
    Format.fprintf ppf "construction    | mutant             | fired       | outcome@ ";
    Format.fprintf ppf "%s@ " (String.make 76 '-');
    List.iter (fun m -> Format.fprintf ppf "%a@ " pp_mutant m) r.mutants
  end;
  Format.fprintf ppf "verdict: %s@ "
    (if ok r then if walk then "CERTIFIED" else "CONFORMANT"
     else if inconclusive r then "INCONCLUSIVE"
     else "NON-CONFORMANT");
  Format.fprintf ppf "@]"

(* ---- JSON (the --report file) ---- *)

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

let json_of_fuzz_cell (c : Fuzz.cell) =
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

let json_of_cell = function Sampled c -> json_of_fuzz_cell c | Walked c -> Exhaustive.json_of_cert c

let json_of_mutant m =
  Lb_observe.Json.(
    Obj
      ([
         ("construction", Str m.mc_construction);
         ("mutant", Str m.mc_mutant);
         ("fired", Int m.fired);
         ("outcome", Str (outcome_string m));
         ("killed", Bool (outcome m = Killed));
         ("ok", Bool (mutant_ok m));
       ]
      @
      match m.cell with
      | Sampled _ -> []
      | Walked c -> [ ("stats", Exhaustive.json_of_stats c.Exhaustive.xc_stats) ]))

let json_of_report r =
  Lb_observe.Json.(
    Obj
      [
        ("cells", Arr (List.map json_of_cell r.cells));
        ("mutants", Arr (List.map json_of_mutant r.mutants));
        ("ok", Bool (ok r));
      ])
