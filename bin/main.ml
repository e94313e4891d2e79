(* The `lowerbound` command-line tool.

   Subcommands:
     exp [IDS..]       run experiment tables (default: all)
     analyze NAME -n N run the Theorem 6.1 adversary analysis on one corpus
                       algorithm and print the full report
     corpus            list the wakeup algorithm corpus
     trace NAME -n N   print the round-by-round (All, A)-run of an algorithm
     sweep CONSTR      complexity sweep of a universal construction
     faults TARGET     certify wait-freedom under an injected fault plan
     serve             run the batching request server on a Unix socket
     request [SPECS..] send requests (or control ops) to a running server *)

open Lowerbound
open Cmdliner

let setup_logs style_renderer level =
  Fmt_tty.setup_std_outputs ?style_renderer ();
  Logs.set_level level;
  Logs.set_reporter (Logs_fmt.reporter ())

let logging =
  Term.(const setup_logs $ Fmt_cli.style_renderer () $ Logs_cli.level ())

(* --jobs/-j: 1 = sequential (the determinism baseline), 0 = auto
   (LOWERBOUND_JOBS or the machine's recommended domain count).  Tables and
   traces are identical at every value — see docs/PERFORMANCE.md. *)
let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"J"
        ~doc:
          "Domains to fan independent work across (1 = sequential, 0 = auto from \
           $(b,LOWERBOUND_JOBS) or the CPU count).  Results are identical at every value.")

let resolve_jobs jobs = if jobs = 0 then Pool.default_jobs () else jobs

(* ---- exp ---- *)

let exp_cmd =
  let ids_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (e1 .. e11).")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Reduced-size sweeps (fast).")
  in
  let run () ids quick jobs =
    let jobs = resolve_jobs jobs in
    let tables =
      match ids with
      | [] -> Lb_experiments.Experiments.all ~jobs ~quick ()
      | ids ->
        List.map
          (fun id ->
            match Lb_experiments.Experiments.by_id ~jobs id with
            | Some f -> f ()
            | None -> failwith (Printf.sprintf "unknown experiment %s" id))
          ids
    in
    List.iter (fun t -> Format.printf "%a@.@." Lb_experiments.Table.pp t) tables;
    if List.for_all (fun t -> t.Lb_experiments.Table.pass) tables then 0 else 1
  in
  let term = Term.(const run $ logging $ ids_arg $ quick $ jobs_arg) in
  Cmd.v
    (Cmd.info "exp" ~doc:"Run experiment tables (the paper's results as measurements).")
    term

(* ---- corpus ---- *)

let corpus_cmd =
  let run () =
    Format.printf "correct wakeup algorithms:@.";
    List.iter
      (fun (e : Corpus.entry) ->
        Format.printf "  %-35s randomized=%b%s@." e.Corpus.name e.Corpus.randomized
          (match e.Corpus.worst_case with
          | Some b -> Printf.sprintf "  worst case at n=64: %d" (b ~n:64)
          | None -> ""))
      (Corpus.correct_algorithms ());
    Format.printf "cheaters (failure injection):@.";
    List.iter
      (fun (e : Corpus.entry) -> Format.printf "  %-35s randomized=%b@." e.Corpus.name e.Corpus.randomized)
      (Corpus.cheaters ~n_hint:64);
    0
  in
  Cmd.v (Cmd.info "corpus" ~doc:"List the wakeup algorithm corpus.") Term.(const run $ logging)

(* ---- shared args ---- *)

let n_arg =
  Arg.(value & opt int 16 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Toss-assignment seed.")

let name_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"ALGORITHM" ~doc:"Corpus entry name (see `lowerbound corpus`).")

let find_entry name =
  match Corpus.find name with
  | Some e -> e
  | None -> (
    match List.find_opt (fun (e : Corpus.entry) -> e.Corpus.name = name) (Corpus.cheaters ~n_hint:64) with
    | Some e -> e
    | None -> failwith (Printf.sprintf "unknown algorithm %S (try `lowerbound corpus`)" name))

(* ---- analyze ---- *)

let analyze_cmd =
  let run () name n seed =
    let entry = find_entry name in
    let report =
      if entry.Corpus.randomized then Lowerbound.analyze_entry_seeded entry ~n ~seed ~max_rounds:40_000
      else Lowerbound.analyze_entry entry ~n ~max_rounds:40_000
    in
    Format.printf "%a@." Lower_bound.pp_report report;
    if report.Lower_bound.violation = None then 0 else 3
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Theorem 6.1 analysis: run the adversary, compute UP sets, build the (S, A)-run and \
          report the forced complexity (exit 3 when a wakeup violation is found — i.e. for \
          cheaters).")
    Term.(const run $ logging $ name_arg $ n_arg $ seed_arg)

(* ---- trace ---- *)

let trace_cmd =
  let rounds_arg =
    Arg.(value & opt int 10 & info [ "rounds" ] ~docv:"R" ~doc:"Max rounds to print.")
  in
  let args_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"ARG"
          ~doc:"A corpus algorithm name — or, with $(b,--diff), two trace files (JSONL).")
  in
  let record_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"FILE"
          ~doc:"Record the run's structured event trace to $(docv) as JSONL (one event per line).")
  in
  let events_flag =
    Arg.(
      value & flag
      & info [ "events" ]
          ~doc:"Print the structured event stream instead of the round-by-round view.")
  in
  let kinds_arg =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "kinds" ] ~docv:"KINDS"
          ~doc:"Comma-separated event kinds to keep (with --events or --diff): access, toss, \
                sched, round, crash, recovery, invoke, complete, give-up, end.")
  in
  let diff_flag =
    Arg.(
      value & flag
      & info [ "diff" ]
          ~doc:"Diff two recorded traces positionally; exit 1 when they differ, 0 when \
                identical.")
  in
  let check_kinds = function
    | None -> ()
    | Some ks ->
      List.iter
        (fun k ->
          if not (List.mem k Event.kinds) then
            failwith
              (Printf.sprintf "unknown event kind %S (one of: %s)" k
                 (String.concat ", " Event.kinds)))
        ks
  in
  let keep kinds (e : Event.stamped) =
    match kinds with None -> true | Some ks -> List.mem (Event.kind e.Event.event) ks
  in
  let run_diff kinds = function
    | [ left_path; right_path ] ->
      let load path =
        match Trace_file.load path with Ok events -> events | Error msg -> failwith msg
      in
      let entries = Trace_diff.compute ?kinds (load left_path) (load right_path) in
      if entries = [] then begin
        Format.printf "traces are identical (0 differences)@.";
        0
      end
      else begin
        Format.printf "%a@." Trace_diff.pp entries;
        Format.printf "(%d difference(s))@." (List.length entries);
        1
      end
    | args ->
      failwith (Printf.sprintf "--diff takes exactly two trace files, got %d" (List.length args))
  in
  let run_record name n seed max_print record events kinds =
    let entry = find_entry name in
    let program_of, inits = entry.Corpus.make ~n in
    let assignment = if entry.Corpus.randomized then Coin.uniform ~seed else Coin.constant 0 in
    let tracer = Tracer.ring () in
    let run =
      Tracer.with_tracer tracer (fun () ->
          All_run.execute ~n ~program_of ~assignment ~inits ~max_rounds:40_000 ())
    in
    let recorded = List.filter (keep kinds) (Tracer.events tracer) in
    (match record with
    | Some path ->
      Trace_file.save path recorded;
      Format.printf "(recorded %d events to %s" (List.length recorded) path;
      if Tracer.dropped tracer > 0 then
        Format.printf "; ring dropped the oldest %d" (Tracer.dropped tracer);
      Format.printf ")@."
    | None -> ());
    if events then List.iter (fun e -> Format.printf "%a@." Event.pp_stamped e) recorded
    else
      List.iteri
        (fun i round -> if i < max_print then Format.printf "%a@." Round.pp round)
        run.All_run.rounds;
    Format.printf "(%d rounds total; results: %s)@." (All_run.num_rounds run)
      (String.concat ", "
         (List.map (fun (p, v) -> Printf.sprintf "p%d=%d" p v) run.All_run.results));
    0
  in
  let run () args n seed max_print record events kinds diff =
    check_kinds kinds;
    if diff then run_diff kinds args
    else
      match args with
      | [ name ] -> run_record name n seed max_print record events kinds
      | _ -> failwith "trace takes exactly one algorithm name (or two files with --diff)"
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Print the round-by-round (All, A)-run of a corpus algorithm; record its structured \
          event trace ($(b,--record)), pretty-print and filter the events ($(b,--events), \
          $(b,--kinds)), or diff two recorded traces ($(b,--diff)).")
    Term.(
      const run $ logging $ args_arg $ n_arg $ seed_arg $ rounds_arg $ record_arg $ events_flag
      $ kinds_arg $ diff_flag)

(* ---- sweep ---- *)

let sweep_cmd =
  let constr_arg =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [ ("adt-tree", `Adt); ("herlihy", `Herlihy); ("consensus-list", `Consensus) ]))
          None
      & info [] ~docv:"CONSTRUCTION" ~doc:"adt-tree, herlihy or consensus-list.")
  in
  let ns_arg =
    Arg.(
      value
      & opt (list int) [ 2; 4; 8; 16; 32; 64; 128; 256 ]
      & info [ "ns" ] ~docv:"NS" ~doc:"Comma-separated process counts.")
  in
  let run () which ns =
    let construction =
      match which with
      | `Adt -> Adt_tree.construction
      | `Herlihy -> Herlihy.construction
      | `Consensus -> Consensus_list.construction
    in
    let rows =
      Complexity.sweep ~construction
        ~spec_of:(fun _ -> Counters.fetch_inc ~bits:62)
        ~ops_of:(fun ~n:_ _ -> [ Value.Unit ])
        ~ns ()
    in
    Format.printf "%a@."
      (Complexity.pp_table
         ~header:(Printf.sprintf "%s / fetch&inc, worst-case shared ops per operation"
                    construction.Iface.name))
      rows;
    0
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Measure a universal construction's shared-access cost over n.")
    Term.(const run $ logging $ constr_arg $ ns_arg)

(* ---- upsets ---- *)

let upsets_cmd =
  let rounds_arg =
    Arg.(value & opt int 12 & info [ "rounds" ] ~docv:"R" ~doc:"Max rounds to display.")
  in
  let run () name n seed max_print =
    let entry = find_entry name in
    let program_of, inits = entry.Corpus.make ~n in
    let assignment = if entry.Corpus.randomized then Coin.uniform ~seed else Coin.constant 0 in
    let run = All_run.execute ~n ~program_of ~assignment ~inits ~max_rounds:40_000 () in
    let upsets = Upsets.compute ~n run.All_run.rounds in
    Format.printf
      "UP-set growth for %s at n = %d (Lemma 5.1 bound: |UP(X, r)| <= 4^r):@.@.%5s | %12s | %9s | %s@."
      name n "round" "4^r (cap n)" "max |UP|" "per-process |UP(p, r)|";
    Format.printf "%s@." (String.make 72 '-');
    let rounds = min (Upsets.rounds upsets) max_print in
    for r = 0 to rounds do
      let pow = if r >= 16 then n else min n (1 lsl (2 * r)) in
      let sizes =
        List.init n (fun pid -> Ids.cardinal (Upsets.of_process upsets ~r ~pid))
      in
      Format.printf "%5d | %12d | %9d | %s@." r pow (Upsets.max_size upsets ~r)
        (String.concat " " (List.map string_of_int sizes))
    done;
    if Upsets.rounds upsets > rounds then
      Format.printf "... (%d more rounds)@." (Upsets.rounds upsets - rounds);
    Format.printf "@.lemma 5.1 holds over the whole run: %b@." (Upsets.lemma_5_1_holds upsets);
    0
  in
  Cmd.v
    (Cmd.info "upsets"
       ~doc:
         "Show the round-by-round growth of the UP knowledge sets along the (All, A)-run — \
          the mechanism that forces the log4 n bound.")
    Term.(const run $ logging $ name_arg $ n_arg $ seed_arg $ rounds_arg)

(* ---- profile ---- *)

let profile_cmd =
  let constr_arg =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [ ("adt-tree", `Adt); ("herlihy", `Herlihy); ("consensus-list", `Consensus) ]))
          None
      & info [] ~docv:"CONSTRUCTION" ~doc:"adt-tree, herlihy or consensus-list.")
  in
  let run () which n =
    let construction =
      match which with
      | `Adt -> Adt_tree.construction
      | `Herlihy -> Herlihy.construction
      | `Consensus -> Consensus_list.construction
    in
    let layout = Layout.create () in
    let handle = construction.Iface.create layout ~n (Counters.fetch_inc ~bits:62) in
    let memory = Memory.create ~log:true () in
    Layout.install layout memory;
    let result =
      Harness.run_handle ~memory ~handle ~n ~ops:(fun _ -> [ Value.Unit; Value.Unit ]) ()
    in
    Format.printf "%s, %d processes x 2 fetch&inc each (round-robin):@.%a@."
      construction.Iface.name n Profile.pp (Profile.of_memory memory);
    Format.printf "worst op cost: %d (analytic bound %d)@." result.Harness.max_cost
      (construction.Iface.worst_case ~n);
    0
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Contention profile (per-register access statistics) of a universal construction.")
    Term.(const run $ logging $ constr_arg $ n_arg)

(* ---- faults ---- *)

let faults_cmd =
  let target_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TARGET"
          ~doc:
            "What to certify: $(b,adt-tree), $(b,herlihy), $(b,consensus-list), $(b,direct) \
             (a fetch&increment construction), $(b,all) for every construction, or a wakeup \
             corpus entry name (see `lowerbound corpus`).")
  in
  let plan_arg =
    Arg.(
      value & opt string "crash-stop"
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Fault plan: a named plan, several joined with $(b,+) (e.g. \
             $(b,crash-stop+spurious-sc)), or $(b,all) to sweep every named plan.")
  in
  let ops_arg =
    Arg.(
      value & opt int 1
      & info [ "ops" ] ~docv:"K" ~doc:"Operations per process (construction targets only).")
  in
  let run () target n seed plan_name ops jobs =
    let jobs = resolve_jobs jobs in
    let plans =
      if plan_name = "all" then Fault_plan.named ~n |> List.map snd
      else
        match Fault_plan.of_name ~n plan_name with
        | Some p -> [ p ]
        | None ->
          failwith
            (Printf.sprintf "unknown plan %S (one of: %s; join with '+', or 'all')" plan_name
               (String.concat ", " Fault_plan.plan_names))
    in
    (* Certifications fan across domains; the reports print sequentially in
       plan-matrix order afterwards, so the output is job-count-invariant. *)
    let certify_construction t plan () =
      let r = Faults.run ~target:t ~plan ~n ~seed ~ops_per_process:ops () in
      ((fun () -> Format.printf "%a@." Faults.pp_report r), r.Faults.status)
    in
    let certify_wakeup (entry : Corpus.entry) plan () =
      let r =
        Faults.run_wakeup ~algorithm:entry.Corpus.name ~make:entry.Corpus.make ~plan ~n ~seed
          ~randomized:entry.Corpus.randomized ()
      in
      ((fun () -> Format.printf "%a@." Faults.pp_wakeup_report r), r.Faults.wstatus)
    in
    let matrix =
      match target with
      | "all" ->
        List.concat_map
          (fun t -> List.map (certify_construction t) plans)
          Fault_targets.all
      | _ -> (
        match Fault_targets.find target with
        | Some t -> List.map (certify_construction t) plans
        | None ->
          let entry = find_entry target in
          List.map (certify_wakeup entry) plans)
    in
    let reports = Pool.map ~jobs (fun certify -> certify ()) matrix in
    let statuses = List.map (fun (print, status) -> print (); status) reports in
    let count s = List.length (List.filter (( = ) s) statuses) in
    Format.printf "@.certified: %d  degraded: %d  violated: %d@." (count Faults.Certified)
      (count Faults.Degraded) (count Faults.Violated);
    if count Faults.Violated = 0 then 0 else 3
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Certify wait-freedom under adversity: run a construction (or wakeup algorithm) under \
          a fault plan — crashes, crash-recovery, spurious SC failures, delays, stalled \
          regions — and report a structured per-process verdict (exit 3 on a certification \
          violation).")
    Term.(const run $ logging $ target_arg $ n_arg $ seed_arg $ plan_arg $ ops_arg $ jobs_arg)

(* ---- conform ---- *)

let conform_cmd =
  let target_arg =
    Arg.(
      value & pos 0 string "all"
      & info [] ~docv:"TARGET"
          ~doc:
            "Construction to check: $(b,adt-tree), $(b,herlihy), $(b,consensus-list), \
             $(b,direct), or $(b,all).")
  in
  let cn_arg =
    Arg.(value & opt int 4 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")
  in
  let type_arg =
    Arg.(
      value & opt string "all"
      & info [ "type" ] ~docv:"TYPE"
          ~doc:"Object type to fuzz (e.g. $(b,fetch-inc), $(b,queue)), or $(b,all).")
  in
  let plan_arg =
    Arg.(
      value & opt string "none"
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Fault plan to fuzz under: a named plan, several joined with $(b,+), or $(b,all) \
             to sweep every named plan.")
  in
  let ops_arg =
    Arg.(value & opt int 4 & info [ "ops" ] ~docv:"K" ~doc:"Operations per process.")
  in
  let schedules_arg =
    Arg.(
      value & opt int 1000
      & info [ "schedules" ] ~docv:"S" ~doc:"Random schedules per (construction, type, plan) cell.")
  in
  let max_states_arg =
    Arg.(
      value & opt int 200_000
      & info [ "max-states" ] ~docv:"B" ~doc:"Linearizability checker state budget per history.")
  in
  let mutate_flag =
    Arg.(
      value & flag
      & info [ "mutate" ]
          ~doc:
            "Mutation-testing mode: inject each known construction bug (dropped SC validation, \
             stale LL, lost SC/swap writes) and require the checker to kill every applicable \
             mutant.")
  in
  let exhaustive_flag =
    Arg.(
      value & flag
      & info [ "exhaustive" ]
          ~doc:
            "Bounded-exhaustive mode: instead of sampling random schedules, walk every \
             in-bound interleaving of each cell with bounded DPOR (see docs/EXPLORATION.md).  \
             The report states how many schedules the bounds elided; with no bound flags, a \
             pre-emption bound of 2 applies.")
  in
  let preempt_bound_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "preempt-bound" ] ~docv:"K"
          ~doc:"Max pre-emptive context switches per schedule ($(b,--exhaustive)).")
  in
  let fair_bound_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fair-bound" ] ~docv:"D"
          ~doc:"Max step-count lead over the least-stepped enabled process ($(b,--exhaustive)).")
  in
  let len_bound_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "len-bound" ] ~docv:"L"
          ~doc:"Max scheduling decisions per schedule ($(b,--exhaustive)).")
  in
  let max_schedules_arg =
    Arg.(
      value & opt int 200_000
      & info [ "max-schedules" ] ~docv:"M"
          ~doc:"Abort an $(b,--exhaustive) walk past this many runs (safety valve, an error).")
  in
  let report_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE" ~doc:"Also write the report to $(docv) as JSON.")
  in
  let model_arg =
    Arg.(
      value & opt string "sc"
      & info [ "model" ] ~docv:"MODEL"
          ~doc:
            "Memory model to run every cell under: $(b,sc) (default), $(b,tso) or $(b,pso).               The constructions use only the fencing LL/SC repertoire, so conformance must              survive relaxation unchanged — see docs/MEMORY_MODELS.md.")
  in
  let run () target n seed typ plan_name ops schedules max_states mutate exhaustive preempt
      fair len max_schedules report_file model_name jobs =
    let jobs = resolve_jobs jobs in
    let model =
      match Memory_model.of_string model_name with
      | Ok m -> m
      | Error msg -> failwith msg
    in
    let constructions =
      if target = "all" then Conformance.constructions
      else
        match Conformance.find_construction target with
        | Some c -> [ c ]
        | None ->
          failwith
            (Printf.sprintf "unknown construction %S (adt-tree, herlihy, consensus-list, direct, all)"
               target)
    in
    let types () =
      if typ = "all" then Schedule_fuzz.object_types
      else
        match Schedule_fuzz.find_type typ with
        | Some t -> [ t ]
        | None ->
          failwith
            (Printf.sprintf "unknown object type %S (one of: %s, or all)" typ
               (String.concat ", " Schedule_fuzz.type_names))
    in
    let plans () =
      if plan_name = "all" then Fault_plan.named ~n
      else
        match Fault_plan.of_name ~n plan_name with
        | Some p -> [ (plan_name, p) ]
        | None ->
          failwith
            (Printf.sprintf "unknown plan %S (one of: %s; join with '+', or 'all')" plan_name
               (String.concat ", " Fault_plan.plan_names))
    in
    let write_json path json =
      let oc = open_out path in
      output_string oc (Json.to_string ~pretty:true json);
      output_string oc "\n";
      close_out oc;
      Format.printf "report written to %s@." path
    in
    if exhaustive then begin
      let bounds =
        if preempt = None && fair = None && len = None then Exhaustive.default_bounds
        else { Sched_tree.preempt; fair; length = len }
      in
      let report =
        if mutate then
          {
            Exhaustive.certs = [];
            mutants =
              Exhaustive.mutant_matrix ~jobs ~constructions ~model ~n ~ops ~seed ~bounds
                ~max_schedules ~max_states ();
          }
        else
          {
            Exhaustive.certs =
              Exhaustive.matrix ~jobs ~constructions ~types:(types ()) ~plans:(plans ())
                ~model ~n ~ops ~seed ~bounds ~max_schedules ~max_states ();
            mutants = [];
          }
      in
      Format.printf "%a@." Exhaustive.pp_report report;
      Option.iter (fun path -> write_json path (Exhaustive.json_of_report report)) report_file;
      if Exhaustive.ok report then 0 else 3
    end
    else begin
      let report =
        if mutate then
          {
            Conformance.cells = [];
            mutants =
              Conformance.mutation_matrix ~jobs ~constructions ~model ~n ~ops ~schedules
                ~seed ~max_states ();
          }
        else
          {
            Conformance.cells =
              Conformance.fuzz_matrix ~jobs ~constructions ~types:(types ()) ~plans:(plans ())
                ~model ~n ~ops ~schedules ~seed ~max_states ();
            mutants = [];
          }
      in
      Format.printf "%a@." Conformance.pp_report report;
      Option.iter (fun path -> write_json path (Conformance.json_of_report report)) report_file;
      if Conformance.ok report then 0 else 3
    end
  in
  Cmd.v
    (Cmd.info "conform"
       ~doc:
         "Conformance-check the universal constructions: fuzz seeded random schedules (and \
          fault plans) through each construction and object type, check every history for \
          linearizability, shrink any counterexample to a locally-minimal schedule (exit 3 on \
          violation).  With $(b,--mutate), verify the checker catches seeded bugs.  With \
          $(b,--exhaustive), replace sampling by a bounded-exhaustive DPOR walk of the \
          schedule space.")
    Term.(
      const run $ logging $ target_arg $ cn_arg $ seed_arg $ type_arg $ plan_arg $ ops_arg
      $ schedules_arg $ max_states_arg $ mutate_flag $ exhaustive_flag $ preempt_bound_arg
      $ fair_bound_arg $ len_bound_arg $ max_schedules_arg $ report_arg $ model_arg
      $ jobs_arg)

(* ---- hw ---- *)

let hw_cmd =
  let construction_arg =
    Arg.(
      value & opt string "all"
      & info [ "construction" ] ~docv:"CONSTR"
          ~doc:
            "Construction to run on hardware: $(b,adt-tree), $(b,herlihy), $(b,direct), or \
             $(b,all).")
  in
  let hn_arg =
    Arg.(
      value & opt int 4
      & info [ "n" ] ~docv:"N"
          ~doc:"Domains (= processes).  Beyond the core count they timeshare.")
  in
  let ops_arg =
    Arg.(value & opt int 64 & info [ "ops" ] ~docv:"K" ~doc:"Operations per process.")
  in
  let check_flag =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Certify the recorded history with the Wing–Gong linearizability checker (exit 3 \
             on a violation or a blown state budget).")
  in
  let bench_flag =
    Arg.(
      value & flag
      & info [ "bench" ]
          ~doc:
            "Sweep n over {1,2,4,8} ∪ {available domains} and append \
             $(b,hardware/<construction>/<n>) rows to BENCH_hardware.json.")
  in
  let max_states_arg =
    Arg.(
      value & opt int 500_000
      & info [ "max-states" ] ~docv:"B" ~doc:"Linearizability checker state budget.")
  in
  let wakeup_arg =
    Arg.(
      value & opt (some string) None
      & info [ "wakeup" ] ~docv:"ALGORITHM"
          ~doc:"Run a wakeup-corpus algorithm on hardware instead of a construction.")
  in
  let constructions_of name =
    let hw_targets =
      List.filter (fun (c : Iface.t) -> c.Iface.name <> "consensus-list") Fault_targets.all
    in
    if name = "all" then hw_targets
    else
      match Fault_targets.find name with
      | Some c -> [ c ]
      | None ->
        failwith (Printf.sprintf "unknown construction %S (adt-tree, herlihy, direct, all)" name)
  in
  let run_wakeup name n seed =
    match Corpus.find name with
    | None -> failwith (Printf.sprintf "unknown wakeup algorithm %S (see `lowerbound corpus`)" name)
    | Some entry ->
      let w = Hw_harness.run_wakeup ~make:entry.Corpus.make ~n ~seed () in
      Format.printf "%s on hardware, n=%d: results %s  (%.3f ms, %d shared ops, max/pid %d)@."
        entry.Corpus.name n
        (String.concat " "
           (List.map (fun (p, r) -> Printf.sprintf "p%d:%d" p r) w.Hw_harness.results))
        (w.Hw_harness.welapsed_s *. 1e3) w.Hw_harness.wtotal_shared_ops
        w.Hw_harness.wmax_shared_ops;
      if w.Hw_harness.issues = [] then begin
        Format.printf "wakeup conditions OK (bits decided; someone returned 1)@.";
        0
      end
      else begin
        List.iter (fun i -> Format.printf "ISSUE: %s@." i) w.Hw_harness.issues;
        3
      end
  in
  let run () construction n ops seed check bench max_states wakeup =
    match wakeup with
    | Some name -> run_wakeup name n seed
    | None ->
      let constructions = constructions_of construction in
      if bench then begin
        let rows =
          Hw_bench.sweep ~ops_per_process:ops ~seed ~check ~constructions
            ~ns:(Hw_bench.default_ns ()) ()
        in
        Format.printf "row                      | ns/op       | ops/s      | max cost | lin@.";
        Format.printf "%s@." (String.make 72 '-');
        List.iter
          (fun (r : Hw_bench.row) ->
            Format.printf "%-24s | %11.1f | %10.0f | %8d | %s@." (Hw_bench.row_name r)
              r.Hw_bench.ns_per_op r.Hw_bench.ops_per_s r.Hw_bench.max_cost
              (match r.Hw_bench.linearizable with
              | Some true -> "yes"
              | Some false -> "NO"
              | None -> "-"))
          rows;
        let path = Hw_bench.append rows in
        Format.printf "appended %d rows to %s@." (List.length rows) path;
        if List.exists (fun (r : Hw_bench.row) -> r.Hw_bench.linearizable = Some false) rows
        then 3
        else 0
      end
      else begin
        let spec = Hw_bench.spec in
        let verdicts =
          List.map
            (fun (c : Iface.t) ->
              let result =
                Hw_harness.run ~construction:c ~spec ~n
                  ~ops:(fun _ -> List.init ops (fun _ -> Value.Unit))
                  ~seed ()
              in
              let completed = List.length result.Hw_harness.stats in
              Format.printf
                "%-15s n=%d: %d/%d ops completed, %d gave up — %.3f ms, %.0f ops/s, cost \
                 max %d mean %.1f@."
                c.Iface.name n completed ((n * ops) ) (List.length result.Hw_harness.failures)
                (result.Hw_harness.elapsed_s *. 1e3)
                (if result.Hw_harness.elapsed_s > 0.0 then
                   float_of_int completed /. result.Hw_harness.elapsed_s
                 else 0.0)
                result.Hw_harness.max_cost result.Hw_harness.mean_cost;
              if not check then true
              else begin
                match Hw_harness.check ~max_states ~spec result with
                | Linearize.Linearizable { stats; _ } ->
                  Format.printf "  history linearizable (%d states explored)@."
                    stats.Linearize.states;
                  true
                | Linearize.Not_linearizable { bad_prefix; _ } ->
                  Format.printf "  history NOT linearizable (bad prefix %d)@." bad_prefix;
                  false
                | Linearize.Budget_exhausted { budget; _ } ->
                  Format.printf "  checker budget exhausted (%d states)@." budget;
                  false
              end)
            constructions
        in
        if List.for_all Fun.id verdicts then 0 else 3
      end
  in
  Cmd.v
    (Cmd.info "hw"
       ~doc:
         "Run the universal constructions (or a wakeup algorithm) as native multicore code: \
          one OCaml domain per process against Atomic LL/SC registers (Blelloch–Wei tagged \
          indirection).  $(b,--check) certifies the recorded history with the simulator-side \
          linearizability checker; $(b,--bench) records wall-clock latency/throughput curves \
          into BENCH_hardware.json.")
    Term.(
      const run $ logging $ construction_arg $ hn_arg $ ops_arg $ seed_arg $ check_flag
      $ bench_flag $ max_states_arg $ wakeup_arg)

(* ---- explore ---- *)

let explore_cmd =
  let max_runs_arg =
    Arg.(
      value & opt int 500_000
      & info [ "max-runs" ] ~docv:"K" ~doc:"Abort if more interleavings than this.")
  in
  let reduced_flag =
    Arg.(
      value & flag
      & info [ "reduced" ]
          ~doc:
            "Use sleep-set + state-dedup reduction: explores a schedule subset covering every \
             distinct (results, wakeup verdict) outcome, and reports how many subtrees were \
             pruned.  Sound for the wakeup check; orders of magnitude fewer schedules.")
  in
  let run () name n max_runs reduced =
    let entry = find_entry name in
    let program_of, inits = entry.Corpus.make ~n in
    let coin_range = if entry.Corpus.randomized then [ 0; 1 ] else [ 0 ] in
    let violations = ref 0 in
    let capped = ref false in
    let check run = if not (Explore.wakeup_ok ~n run) then incr violations in
    (try
       if reduced then begin
         let stats =
           Explore.iter_reduced ~n ~program_of ~inits ~coin_range ~max_runs ~f:check ()
         in
         Format.printf
           "%s at n = %d (reduced): %d schedules explored (%d sleep-set prunes, %d revisited \
            states cut), %d wakeup violations -> %s@."
           name n stats.Explore.runs stats.Explore.sleep_pruned stats.Explore.dedup_pruned
           !violations
           (if !violations = 0 then "VERIFIED" else "VIOLATED")
       end
       else begin
         let count =
           Explore.iter ~n ~program_of ~inits ~coin_range ~max_runs ~f:check ()
         in
         Format.printf "%s at n = %d: %d interleavings, %d wakeup violations -> %s@." name n
           count !violations
           (if !violations = 0 then "VERIFIED" else "VIOLATED")
       end
     with Explore.Limit_exceeded k ->
       capped := true;
       Format.printf "state space exceeds %d runs; reduce n or raise --max-runs@." k);
    if !violations > 0 then 3 else if !capped then 4 else 0
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Exhaustively verify a wakeup algorithm over every interleaving (and coin outcome) at \
          a small n; $(b,--reduced) prunes commuting and revisited schedules first.  Exits 3 \
          if violations are found, and 4 if the walk hit $(b,--max-runs) before finishing \
          with none found (nothing was verified).")
    Term.(const run $ logging $ name_arg $ n_arg $ max_runs_arg $ reduced_flag)

(* ---- litmus ---- *)

let litmus_cmd =
  let test_arg =
    Arg.(
      value & pos 0 string "all"
      & info [] ~docv:"TEST"
          ~doc:
            "Litmus test to run ($(b,SB), $(b,SB+fence), $(b,SB+rmw), $(b,MP), \
             $(b,MP+fence), $(b,MP+rmw), $(b,LB), $(b,IRIW)) or $(b,all).")
  in
  let max_runs_arg =
    Arg.(
      value & opt int 200_000
      & info [ "max-runs" ] ~docv:"K"
          ~doc:"Abort a per-model DPOR walk past this many runs (an error).")
  in
  let report_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE" ~doc:"Also write the report to $(docv) as JSON.")
  in
  let json_of_outcome o =
    Json.Arr (List.map (fun (_, v) -> Json.Int v) o)
  in
  let json_of_cell (c : Litmus.cell) =
    Json.(
      Obj
        [
          ("model", Str (Memory_model.to_string c.Litmus.model));
          ("outcomes", Int c.Litmus.outcome_count);
          ("admitted", Bool c.Litmus.admitted);
          ("expected", Bool c.Litmus.expected);
          ("sc_equal", Bool c.Litmus.sc_equal);
          ("ok", Bool (Litmus.cell_ok c));
        ])
  in
  let json_of_verdict (v : Litmus.verdict) =
    Json.(
      Obj
        [
          ("name", Str v.Litmus.test.Litmus.name);
          ("description", Str v.Litmus.test.Litmus.description);
          ("relaxed_outcome", json_of_outcome v.Litmus.test.Litmus.relaxed_outcome);
          ("cells", Arr (List.map json_of_cell v.Litmus.cells));
          ("lattice_ok", Bool v.Litmus.lattice_ok);
          ("ok", Bool v.Litmus.ok);
        ])
  in
  let run () test max_runs report_file =
    let whole_catalog = test = "all" in
    let tests =
      if whole_catalog then Litmus.catalog
      else
        match Litmus.find test with
        | Some t -> [ t ]
        | None ->
          failwith
            (Printf.sprintf "unknown litmus test %S (one of: %s, or all)" test
               (String.concat ", " (List.map (fun t -> t.Litmus.name) Litmus.catalog)))
    in
    let verdicts = List.map (Litmus.check ~max_runs) tests in
    List.iter (fun v -> Format.printf "%a@.@." Litmus.pp_verdict v) verdicts;
    (* Pairwise separation is a property of the catalog, not of one test. *)
    let distinguishes = whole_catalog && Litmus.distinguishes_all_models verdicts in
    let ok = Litmus.all_ok verdicts && ((not whole_catalog) || distinguishes) in
    if whole_catalog then
      Format.printf "models pairwise distinguished: %b@." distinguishes;
    Format.printf "litmus: %d test%s x %d models -> %s@." (List.length verdicts)
      (if List.length verdicts = 1 then "" else "s")
      (List.length Memory_model.all)
      (if ok then "PASS" else "MISMATCH");
    Option.iter
      (fun path ->
        let json =
          Json.(
            Obj
              [
                ("tests", Arr (List.map json_of_verdict verdicts));
                ("distinguishes_all_models", Bool distinguishes);
                ("ok", Bool ok);
              ])
        in
        let oc = open_out path in
        output_string oc (Json.to_string ~pretty:true json);
        output_string oc "\n";
        close_out oc;
        Format.printf "report written to %s@." path)
      report_file;
    if ok then 0 else 3
  in
  Cmd.v
    (Cmd.info "litmus"
       ~doc:
         "Run the memory-model litmus suite: enumerate each test's exact outcome set under \
          SC, TSO and PSO by exhaustive DPOR (flushes in the decision alphabet) and compare \
          against the expected admissibility of its relaxed outcome — SB must separate SC \
          from TSO/PSO, MP must separate TSO from PSO, fenced variants must restore SC \
          (exit 3 on any mismatch).")
    Term.(const run $ logging $ test_arg $ max_runs_arg $ report_arg)

(* ---- serve / request: the experiment service layer (lib/service) ---- *)

let socket_arg =
  Arg.(
    value
    & opt string "lowerbound.sock"
    & info [ "socket"; "s" ] ~docv:"PATH" ~doc:"Unix-domain socket path of the server.")

let serve_cmd =
  let cache_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"FILE"
          ~doc:
            "Append-only JSONL result-cache journal: reloaded at startup (corrupt lines \
             skipped), appended on every store — identical requests are then served without \
             recomputation across server restarts.")
  in
  let capacity_arg =
    Arg.(
      value & opt int 256
      & info [ "capacity" ] ~docv:"K" ~doc:"In-memory LRU capacity (entries).")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-request computation deadline (enforced via SIGALRM when the executor is \
             sequential, i.e. $(b,--jobs 1); advisory at higher job counts).")
  in
  let max_requests_arg =
    Arg.(
      value & opt int 0
      & info [ "max-requests" ] ~docv:"K"
          ~doc:"Stop after answering $(docv) requests (0 = serve until shutdown).")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Stream the structured event trace of every computation the server performs to \
             $(docv) as JSONL.")
  in
  let fsync_flag =
    Arg.(
      value & flag
      & info [ "fsync" ]
          ~doc:
            "fsync the cache journal at every batch boundary, making acknowledged results \
             machine-crash durable (default: flush to the OS only).")
  in
  let run () socket cache capacity timeout max_requests trace jobs fsync =
    let jobs = resolve_jobs jobs in
    let c = Lb_service.Cache.create ~capacity ?path:cache ~fsync () in
    if Lb_service.Cache.loaded c > 0 || Lb_service.Cache.corrupt c > 0 then
      Format.printf "(cache: reloaded %d entries, skipped %d corrupt lines)@."
        (Lb_service.Cache.loaded c) (Lb_service.Cache.corrupt c);
    let executor =
      Lb_service.Executor.create ~jobs ?timeout_s:timeout ~cache:c
        ~compute:Lb_service.Catalog.compute ()
    in
    let max_requests = if max_requests > 0 then Some max_requests else None in
    let serve () =
      Lb_service.Server.serve ~socket ~executor ?max_requests
        ~log:(fun line -> Format.printf "%s@." line)
        ()
    in
    let stats =
      match trace with
      | None -> serve ()
      | Some path ->
        let oc = open_out path in
        let tracer = Tracer.on_channel oc in
        let stats = Tracer.with_tracer tracer serve in
        Tracer.flush tracer;
        close_out oc;
        stats
    in
    Format.printf "served %d request(s) in %d batch(es) over %d connection(s)@."
      stats.Lb_service.Server.served stats.Lb_service.Server.batches
      stats.Lb_service.Server.clients;
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the experiment service: a batching line-JSON request server on a Unix-domain \
          socket ($(b,--socket)) with a content-keyed result cache — concurrently queued \
          requests coalesce into one batch, identical in-flight requests compute once, and \
          cached requests never recompute.  $(b,--fsync) makes the cache journal \
          machine-crash durable (docs/ROBUSTNESS.md).")
    Term.(
      const run $ logging $ socket_arg $ cache_arg $ capacity_arg $ timeout_arg
      $ max_requests_arg $ trace_arg $ jobs_arg $ fsync_flag)

let request_cmd =
  let specs_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"SPEC"
          ~doc:
            "Experiment ids to request (e1 .. e14), each served from the cache when \
             possible.")
  in
  let quick_flag =
    Arg.(value & flag & info [ "quick" ] ~doc:"Request the reduced-size sweeps.")
  in
  let certify_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "certify" ] ~docv:"TARGET"
          ~doc:"Also request one certification run of $(docv) (see `lowerbound faults`).")
  in
  let plan_arg =
    Arg.(
      value & opt string "crash-stop"
      & info [ "plan" ] ~docv:"PLAN" ~doc:"Fault plan for $(b,--certify).")
  in
  let ops_arg =
    Arg.(
      value & opt int 1
      & info [ "ops" ] ~docv:"K" ~doc:"Operations per process for $(b,--certify).")
  in
  let conform_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "conform" ] ~docv:"TARGET"
          ~doc:"Also request one conformance fuzz cell of $(docv) (see `lowerbound conform`).")
  in
  let otype_arg =
    Arg.(
      value & opt string "fetch-inc"
      & info [ "otype" ] ~docv:"TYPE" ~doc:"Object type for $(b,--conform).")
  in
  let schedules_arg =
    Arg.(
      value & opt int 200
      & info [ "schedules" ] ~docv:"S" ~doc:"Random schedules for $(b,--conform).")
  in
  let metrics_flag =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Fetch the server's metrics registry snapshot (the service.* family included).")
  in
  let ping_flag = Arg.(value & flag & info [ "ping" ] ~doc:"Round-trip a ping.") in
  let shutdown_flag =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Ask the server to shut down gracefully.")
  in
  let timeout_arg =
    Arg.(
      value & opt float 600.0
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Client-side response deadline.")
  in
  let raw_flag =
    Arg.(
      value & flag
      & info [ "raw" ] ~doc:"Print raw response JSON lines instead of the summary rendering.")
  in
  let run () socket specs quick certify conform otype schedules plan ops n seed metrics
      ping shutdown timeout raw jobs =
    let requests =
      List.map
        (fun id -> Lb_service.Request.with_jobs (Lb_service.Request.experiment ~quick id) jobs)
        specs
      @ (match certify with
        | None -> []
        | Some target ->
          [
            Lb_service.Request.with_jobs
              (Lb_service.Request.certify ~n ~ops ~seed ~target ~plan ())
              jobs;
          ])
      @
      match conform with
      | None -> []
      | Some target ->
        [
          Lb_service.Request.with_jobs
            (Lb_service.Request.conform ~otype ~plan:"none" ~n:4 ~ops:4 ~schedules ~seed
               ~target ())
            jobs;
        ]
    in
    let control =
      (if ping then [ Json.Obj [ ("op", Json.Str "ping") ] ] else [])
      @ (if metrics then [ Json.Obj [ ("op", Json.Str "metrics") ] ] else [])
      @ if shutdown then [ Json.Obj [ ("op", Json.Str "shutdown") ] ] else []
    in
    let lines = List.map Lb_service.Request.to_json requests @ control in
    if lines = [] then begin
      Format.printf "nothing to send (give experiment ids, --certify, --metrics, --ping or \
                     --shutdown)@.";
      2
    end
    else
      match Lb_service.Client.call ~socket ~timeout_s:timeout lines with
      | Error e ->
        Format.printf "request failed: %s@." (Lb_service.Client.error_message e);
        1
      | Ok responses ->
        let ok = ref true in
        List.iter
          (fun response ->
            if raw then Format.printf "%s@." (Json.to_string response)
            else begin
              let str name =
                Option.value ~default:"?"
                  (Option.bind (Json.member name response) Json.to_str_opt)
              in
              let flag name =
                Option.value ~default:false
                  (Option.bind (Json.member name response) Json.to_bool_opt)
              in
              match str "status" with
              | "ok" when Json.member "op" response <> None -> (
                match Json.member "data" response with
                | Some data -> Format.printf "%s@." (Json.to_string ~pretty:true data)
                | None -> Format.printf "ok: %s@." (str "op"))
              | "ok" ->
                let served =
                  if flag "cached" then "cache hit"
                  else if flag "deduped" then "deduped in-flight"
                  else "computed"
                in
                let elapsed =
                  Option.value ~default:0.0
                    (Option.bind (Json.member "elapsed_s" response) Json.to_float_opt)
                in
                Format.printf "ok (%s, %.3fs, key %s)@." served elapsed (str "key");
                (match Json.member "data" response with
                | Some data ->
                  Format.printf "%s@." (Json.to_string ~pretty:true data);
                  (match Option.bind (Json.member "pass" data) Json.to_bool_opt with
                  | Some false -> ok := false
                  | _ -> ())
                | None -> ())
              | "timeout" ->
                ok := false;
                Format.printf "TIMEOUT (key %s)@." (str "key")
              | _ ->
                ok := false;
                Format.printf "ERROR: %s@." (str "error")
            end)
          responses;
        if !ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Send a batch of requests to a running `lowerbound serve` over its Unix-domain \
          socket ($(b,--socket)) and print the responses (exit 1 on any error, timeout or \
          failing table).")
    Term.(
      const run $ logging $ socket_arg $ specs_arg $ quick_flag $ certify_arg $ conform_arg
      $ otype_arg $ schedules_arg $ plan_arg $ ops_arg $ n_arg $ seed_arg $ metrics_flag
      $ ping_flag $ shutdown_flag $ timeout_arg $ raw_flag $ jobs_arg)

let main_cmd =
  let doc =
    "Executable reproduction of Jayanti's PODC 1998 \\(Omega\\)(log n) lower bound for \
     randomized implementations of shared objects from LL/SC/validate/move/swap."
  in
  Cmd.group
    (Cmd.info "lowerbound" ~version:"1.0.0" ~doc)
    [
      exp_cmd; corpus_cmd; analyze_cmd; trace_cmd; sweep_cmd; explore_cmd; litmus_cmd;
      profile_cmd; upsets_cmd; faults_cmd; conform_cmd; hw_cmd; serve_cmd; request_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
