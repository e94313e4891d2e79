(* The `lowerbound` command-line tool.

   Subcommands:
     exp [IDS..]       run experiment tables (default: all)
     analyze NAME -n N run the Theorem 6.1 adversary analysis on one corpus
                       algorithm and print the full report
     corpus            list the wakeup algorithm corpus
     trace NAME -n N   print the round-by-round (All, A)-run of an algorithm
     sweep CONSTR      complexity sweep of a universal construction
     upsets NAME -n N  show the round-by-round growth of the UP sets
     profile CONSTR    per-register contention profile of a construction
     faults TARGET     certify wait-freedom under an injected fault plan
     conform [TARGET]  check the constructions' histories for linearizability
     explore NAME -n N verify a wakeup algorithm over every interleaving
     litmus [TEST]     run the memory-model litmus suite
     hw                run the constructions on real OCaml domains *)

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

(* Process and operation counts: 0 or less is a usage error (exit 124), not
   an empty run that reports a verdict or an exception deep in a layer. *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some k when k >= 1 -> Ok k
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

(* Bounds where 0 means something ([--preempt-bound 0]: no pre-emption at
   all): only a negative value is a usage error. *)
let nonneg_int =
  let parse s =
    match int_of_string_opt s with
    | Some k when k >= 0 -> Ok k
    | _ -> Error (`Msg (Printf.sprintf "expected a non-negative integer, got %S" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let unknown ?(more = "") ~what names s =
  Printf.sprintf "unknown %s %S (one of: %s%s)" what s (String.concat ", " names) more

(* A name checked when the command line is parsed: one that [valid]
   rejects is a usage error (exit 124) listing the valid [names], not a
   [Failure] out of the run. *)
let known_name ?more ~what ~names valid =
  let parse s = if valid s then Ok s else Error (`Msg (unknown ?more ~what (names ()) s)) in
  Arg.conv ~docv:"NAME" (parse, Format.pp_print_string)

(* A fault plan: a named plan, several joined with '+', or all. *)
let plan_name =
  known_name ~what:"plan" ~more:"; join with '+', or all"
    ~names:(fun () -> Fault_plan.plan_names)
    (fun s ->
      s = "all"
      || List.for_all (fun p -> List.mem p Fault_plan.plan_names) (String.split_on_char '+' s))

(* ---- exp ---- *)

let exp_cmd =
  let experiment_id =
    let ids = Lb_experiments.Experiments.ids in
    let parse s =
      let id = String.lowercase_ascii s in
      if List.mem id ids then Ok id
      else
        Error
          (`Msg (Printf.sprintf "unknown experiment %S (one of: %s)" s (String.concat ", " ids)))
    in
    Arg.conv ~docv:"ID" (parse, Format.pp_print_string)
  in
  let ids_arg =
    Arg.(
      value & pos_all experiment_id [] & info [] ~docv:"ID" ~doc:"Experiment ids (e1 .. e14).")
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
          (fun id -> Option.get (Lb_experiments.Experiments.by_id ~jobs ~quick id) ())
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

(* Write a [--report] file: the JSON, pretty-printed, then a newline. *)
let write_report path json =
  let oc = open_out path in
  output_string oc (Json.to_string ~pretty:true json);
  output_string oc "\n";
  close_out oc;
  Format.printf "report written to %s@." path

(* ---- shared args ---- *)

let n_arg =
  Arg.(value & opt pos_int 16 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Toss-assignment seed.")

let corpus_entries () = Corpus.correct_algorithms () @ Corpus.cheaters ~n_hint:64

let find_entry_opt name =
  List.find_opt (fun (e : Corpus.entry) -> e.Corpus.name = name) (corpus_entries ())

let find_entry name =
  match find_entry_opt name with
  | Some e -> e
  | None -> failwith (Printf.sprintf "unknown algorithm %S (try `lowerbound corpus`)" name)

let algorithm_names () = List.map (fun (e : Corpus.entry) -> e.Corpus.name) (corpus_entries ())

let name_arg =
  Arg.(
    required
    & pos 0
        (some
           (known_name ~what:"algorithm" ~names:algorithm_names (fun s ->
                find_entry_opt s <> None)))
        None
    & info [] ~docv:"ALGORITHM" ~doc:"Corpus entry name (see `lowerbound corpus`).")

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
    Arg.(value & opt nonneg_int 10 & info [ "rounds" ] ~docv:"R" ~doc:"Max rounds to print.")
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
      & opt
          (some
             (list
                (known_name ~what:"event kind"
                   ~names:(fun () -> Event.kinds)
                   (fun k -> List.mem k Event.kinds))))
          None
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
  let keep kinds (e : Event.stamped) =
    match kinds with None -> true | Some ks -> List.mem (Event.kind e.Event.event) ks
  in
  let run_diff kinds left_path right_path =
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
  (* The positional arguments are files or a name depending on --diff, so
     they are checked here; a bad one is still a usage error (exit 124). *)
  let run () args n seed max_print record events kinds diff =
    match (diff, args) with
    | true, [ left_path; right_path ] -> `Ok (run_diff kinds left_path right_path)
    | true, _ ->
      `Error
        (true, Printf.sprintf "--diff takes exactly two trace files, got %d" (List.length args))
    | false, [ name ] when find_entry_opt name <> None ->
      `Ok (run_record name n seed max_print record events kinds)
    | false, [ name ] -> `Error (true, unknown ~what:"algorithm" (algorithm_names ()) name)
    | false, _ ->
      `Error (true, "trace takes exactly one algorithm name (or two files with --diff)")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Print the round-by-round (All, A)-run of a corpus algorithm; record its structured \
          event trace ($(b,--record)), pretty-print and filter the events ($(b,--events), \
          $(b,--kinds)), or diff two recorded traces ($(b,--diff)).")
    Term.(
      ret
        (const run $ logging $ args_arg $ n_arg $ seed_arg $ rounds_arg $ record_arg
       $ events_flag $ kinds_arg $ diff_flag))

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
      & opt (list pos_int) [ 2; 4; 8; 16; 32; 64; 128; 256 ]
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
    Arg.(value & opt nonneg_int 12 & info [ "rounds" ] ~docv:"R" ~doc:"Max rounds to display.")
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
    let memory = Memory.create () in
    Layout.install layout memory;
    (* No tracer is installed, so the run leaves this tap in place. *)
    let accesses = ref [] in
    Memory.set_tap memory
      (Some (fun ~pid inv resp ~spurious:_ -> accesses := (pid, inv, resp) :: !accesses));
    let result =
      Harness.run_handle ~memory ~handle ~n ~ops:(fun _ -> [ Value.Unit; Value.Unit ]) ()
    in
    Format.printf "%s, %d processes x 2 fetch&inc each (round-robin):@.%a@."
      construction.Iface.name n Profile.pp (Profile.of_accesses (List.rev !accesses));
    Format.printf "worst op cost: %d (analytic bound %d)@." result.Harness.max_cost
      (construction.Iface.worst_case ~n);
    0
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Contention profile (per-register access statistics) of a universal construction.")
    Term.(const run $ logging $ constr_arg $ n_arg)

(* ---- faults ---- *)

(* The linearizability checker's state budget per history: the default of
   [conform --max-states], and the budget [faults] judges with. *)
let default_max_states = 200_000

let faults_cmd =
  let target =
    known_name ~what:"target"
      ~names:(fun () ->
        List.map (fun (c : Iface.t) -> c.Iface.name) Fault_targets.all
        @ ("all" :: algorithm_names ()))
      (fun s -> s = "all" || Fault_targets.find s <> None || find_entry_opt s <> None)
  in
  let target_arg =
    Arg.(
      required
      & pos 0 (some target) None
      & info [] ~docv:"TARGET"
          ~doc:
            "What to certify: $(b,adt-tree), $(b,herlihy), $(b,consensus-list), $(b,direct) \
             (a fetch&increment construction), $(b,all) for every construction, or a wakeup \
             corpus entry name (see `lowerbound corpus`).")
  in
  let plan_arg =
    Arg.(
      value & opt plan_name "crash-stop"
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Fault plan: a named plan, several joined with $(b,+) (e.g. \
             $(b,crash-stop+spurious-sc)), or $(b,all) to sweep every named plan.")
  in
  let ops_arg =
    Arg.(
      value & opt pos_int 1
      & info [ "ops" ] ~docv:"K" ~doc:"Operations per process (construction targets only).")
  in
  let run () target n seed plan_name ops jobs =
    let jobs = resolve_jobs jobs in
    let plans =
      if plan_name = "all" then Fault_plan.named ~n |> List.map snd
      else [ Option.get (Fault_plan.of_name ~n plan_name) ]
    in
    (* Certifications fan across domains; the reports print sequentially in
       plan-matrix order afterwards, so the output is job-count-invariant.
       A cell's status is [None] when the checker could not decide its
       history: nothing certified, nothing refuted. *)
    let fetch_inc = Option.get (Schedule_fuzz.find_type "fetch-inc") in
    let certify_construction (t : Iface.t) plan () =
      (* One round-robin fetch&increment run, judged by the conformance
         judge: completion, the analytic cost bound, give-up excuses and
         linearizability of the history with its pending operations. *)
      let result, schedule =
        Schedule_fuzz.execute ~construction:t ~ot:fetch_inc ~plan ~n ~ops ~seed
          ~scheduler:Scheduler.round_robin ()
      in
      let run =
        Schedule_fuzz.assess ~construction:t ~ot:fetch_inc ~plan ~n ~ops
          ~max_states:default_max_states ~schedule result
      in
      let status, verdict =
        match run.Schedule_fuzz.verdict with
        | Schedule_fuzz.Pass -> (Some Faults.Certified, "CERTIFIED")
        | Schedule_fuzz.Degraded note -> (Some Faults.Degraded, "DEGRADED (" ^ note ^ ")")
        | Schedule_fuzz.Fail (Schedule_fuzz.Check_budget _ as f) ->
          (None, Format.asprintf "INCONCLUSIVE (%a)" Schedule_fuzz.pp_failure f)
        | Schedule_fuzz.Fail f ->
          (Some Faults.Violated, Format.asprintf "VIOLATED (%a)" Schedule_fuzz.pp_failure f)
      in
      let print () =
        Format.printf "@[<v>%s under %s (n = %d, seed = %d): %s@ " t.Iface.name
          (Fault_plan.name plan) n seed verdict;
        (* Give-ups are rendered through the trace-event vocabulary, so a
           verdict and a recorded trace show the same lines. *)
        List.iter
          (fun (f : Harness.op_failure) ->
            Format.printf "%a@ " Event.pp
              (Event.Op_failed
                 { pid = f.Harness.pid; seq = f.Harness.seq; op = f.Harness.op;
                   reason = f.Harness.reason; cost = f.Harness.cost }))
          result.Harness.failures;
        Format.printf "restarts: %d; total ops: %d; worst op: %s@]@.@." result.Harness.restarts
          result.Harness.total_shared_ops
          (match result.Harness.stats with
          | [] -> "none completed"
          | first :: rest ->
            let w =
              List.fold_left
                (fun (w : Harness.op_stat) (s : Harness.op_stat) ->
                  if s.Harness.cost > w.Harness.cost then s else w)
                first rest
            in
            Printf.sprintf "p%d#%d cost %d (bound %d)" w.Harness.pid w.Harness.seq
              w.Harness.cost
              (Schedule_fuzz.cost_bound ~construction:t ~plan ~n w.Harness.pid))
      in
      (print, status)
    in
    let certify_wakeup (entry : Corpus.entry) plan () =
      let r =
        Faults.run_wakeup ~algorithm:entry.Corpus.name ~make:entry.Corpus.make ~plan ~n ~seed
          ~randomized:entry.Corpus.randomized ()
      in
      ((fun () -> Format.printf "%a@." Faults.pp_wakeup_report r), Some r.Faults.wstatus)
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
    Format.printf "@.certified: %d  degraded: %d  violated: %d%s@."
      (count (Some Faults.Certified)) (count (Some Faults.Degraded))
      (count (Some Faults.Violated))
      (if count None = 0 then "" else Printf.sprintf "  inconclusive: %d" (count None));
    if count (Some Faults.Violated) > 0 then 3
    else if count None > 0 then begin
      Format.eprintf
        "lowerbound: the checker exhausted its state budget on a history; nothing was \
         certified@.";
      4
    end
    else 0
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Certify wait-freedom under adversity: run a construction (or wakeup algorithm) under \
          a fault plan — crashes, crash-recovery, spurious SC failures, delays, stalled \
          regions — and report one verdict per plan.  A construction runs a round-robin \
          fetch&increment workload judged as $(b,conform) judges a schedule: every survivor \
          completes, within the analytic cost bound (twice it for a crash-recovering \
          process), and the history is linearizable.  Exit 3 on a violation, 4 when the \
          checker cannot decide a history within its state budget (nothing certified).")
    Term.(const run $ logging $ target_arg $ n_arg $ seed_arg $ plan_arg $ ops_arg $ jobs_arg)

(* ---- conform ---- *)

let conform_cmd =
  let target =
    known_name ~what:"construction"
      ~names:(fun () ->
        List.map (fun (c : Iface.t) -> c.Iface.name) Fault_targets.all @ [ "all" ])
      (fun s -> s = "all" || Fault_targets.find s <> None)
  in
  let target_arg =
    Arg.(
      value & pos 0 target "all"
      & info [] ~docv:"TARGET"
          ~doc:
            "Construction to check: $(b,adt-tree), $(b,herlihy), $(b,consensus-list), \
             $(b,direct), or $(b,all).")
  in
  let cn_arg =
    Arg.(value & opt pos_int 4 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")
  in
  let object_type =
    known_name ~what:"object type" ~more:", or all"
      ~names:(fun () -> Schedule_fuzz.type_names)
      (fun s -> s = "all" || Schedule_fuzz.find_type s <> None)
  in
  let type_arg =
    Arg.(
      value & opt object_type "all"
      & info [ "type" ] ~docv:"TYPE"
          ~doc:"Object type to fuzz (e.g. $(b,fetch-inc), $(b,queue)), or $(b,all).")
  in
  let plan_arg =
    Arg.(
      value & opt plan_name "none"
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Fault plan to fuzz under: a named plan, several joined with $(b,+), or $(b,all) \
             to sweep every named plan.")
  in
  let ops_arg =
    Arg.(value & opt pos_int 4 & info [ "ops" ] ~docv:"K" ~doc:"Operations per process.")
  in
  let schedules_arg =
    Arg.(
      value
      & opt (some ~none:"1000" pos_int) None
      & info [ "schedules" ] ~docv:"S"
          ~doc:"Random schedules per (construction, type, plan) cell (not with $(b,--exhaustive)).")
  in
  let max_states_arg =
    Arg.(
      value & opt pos_int default_max_states
      & info [ "max-states" ] ~docv:"B" ~doc:"Linearizability checker state budget per history.")
  in
  let mutate_flag =
    Arg.(
      value & flag
      & info [ "mutate" ]
          ~doc:
            "Mutation-testing mode: inject each known construction bug (dropped SC validation, \
             stale LL, lost SC/swap writes) and require the checker to kill every applicable \
             mutant.  The hunt runs fetch&increment under no fault plan, so a $(b,--type) \
             other than $(b,fetch-inc) or $(b,all), or a $(b,--plan) other than $(b,none), is \
             a usage error.")
  in
  let exhaustive_flag =
    Arg.(
      value & flag
      & info [ "exhaustive" ]
          ~doc:
            "Bounded-exhaustive mode: instead of sampling random schedules, walk every \
             in-bound interleaving of each cell with bounded DPOR (see docs/EXPLORATION.md).  \
             The report counts what the bounds elided (runs cut and backtracking requests \
             rejected, a request re-raised by a later run counted again); with no bound \
             flags, a pre-emption bound of 2 applies.")
  in
  let preempt_bound_arg =
    Arg.(
      value
      & opt (some nonneg_int) None
      & info [ "preempt-bound" ] ~docv:"K"
          ~doc:"Max pre-emptive context switches per schedule ($(b,--exhaustive)).")
  in
  let fair_bound_arg =
    Arg.(
      value
      & opt (some pos_int) None
      & info [ "fair-bound" ] ~docv:"D"
          ~doc:"Max step-count lead over the least-stepped enabled process ($(b,--exhaustive)).")
  in
  let len_bound_arg =
    Arg.(
      value
      & opt (some pos_int) None
      & info [ "len-bound" ] ~docv:"L"
          ~doc:"Max scheduling decisions per schedule ($(b,--exhaustive)).")
  in
  let max_schedules_arg =
    Arg.(
      value
      & opt (some ~none:"200000" pos_int) None
      & info [ "max-schedules" ] ~docv:"M"
          ~doc:
            "Abort an $(b,--exhaustive) walk past this many runs (a safety valve: the command \
             then exits 4, nothing certified).")
  in
  let report_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE" ~doc:"Also write the report to $(docv) as JSON.")
  in
  let model =
    let parse s = Result.map_error (fun msg -> `Msg msg) (Memory_model.of_string s) in
    let print ppf m = Format.pp_print_string ppf (Memory_model.to_string m) in
    Arg.conv ~docv:"MODEL" (parse, print)
  in
  let model_arg =
    Arg.(
      value & opt model Memory_model.SC
      & info [ "model" ] ~docv:"MODEL"
          ~doc:
            "Memory model to run every cell under: $(b,sc) (default), $(b,tso) or $(b,pso).               The constructions use only the fencing LL/SC repertoire, so conformance must              survive relaxation unchanged — see docs/MEMORY_MODELS.md.")
  in
  let run () target n seed typ plan_name ops schedules max_states mutate exhaustive preempt
      fair len max_schedules report_file model jobs =
    let jobs = resolve_jobs jobs in
    let constructions =
      if target = "all" then Fault_targets.all
      else [ Option.get (Fault_targets.find target) ]
    in
    let types () =
      if typ = "all" then Schedule_fuzz.object_types
      else [ Option.get (Schedule_fuzz.find_type typ) ]
    in
    let plans () =
      if plan_name = "all" then Fault_plan.named ~n
      else [ (plan_name, Option.get (Fault_plan.of_name ~n plan_name)) ]
    in
    (* Exit 4: no failure found, but no certificate either. *)
    let nothing_certified why =
      Format.eprintf "lowerbound: %s; nothing was certified@." why;
      4
    in
    (* A flag the chosen mode never reads is a usage error, not ignored. *)
    let unread =
      if exhaustive then [ ("--schedules", schedules <> None) ]
      else
        [
          ("--preempt-bound", preempt <> None);
          ("--fair-bound", fair <> None);
          ("--len-bound", len <> None);
          ("--max-schedules", max_schedules <> None);
        ]
    in
    match List.find_opt snd unread with
    | Some (flag, _) ->
      `Error
        ( true,
          flag
          ^ if exhaustive then " does not apply with --exhaustive"
            else " applies only with --exhaustive" )
    | None when mutate && not (typ = "all" || typ = "fetch-inc") ->
      `Error (true, "--mutate hunts on fetch-inc; --type " ^ typ ^ " does not apply")
    | None when mutate && plan_name <> "none" ->
      `Error (true, "--mutate hunts fault-free; --plan " ^ plan_name ^ " does not apply")
    | None -> (
      let mode =
        if exhaustive then
          let bounds =
            if preempt = None && fair = None && len = None then Exhaustive.default_bounds
            else { Sched_tree.preempt; fair; length = len }
          in
          Conformance.Walk { bounds; max_schedules = Option.value max_schedules ~default:200_000 }
        else Conformance.Sample { schedules = Option.value schedules ~default:1000 }
      in
      match
        if mutate then
          {
            Conformance.mode;
            cells = [];
            mutants =
              Conformance.mutant_matrix ~jobs ~constructions ~mode ~model ~n ~ops ~seed
                ~max_states ();
          }
        else
          {
            Conformance.mode;
            cells =
              Conformance.matrix ~jobs ~constructions ~types:(types ()) ~plans:(plans ()) ~mode
                ~model ~n ~ops ~seed ~max_states ();
            mutants = [];
          }
      with
      | report ->
        Format.printf "%a@." Conformance.pp_report report;
        Option.iter (fun path -> write_report path (Conformance.json_of_report report)) report_file;
        `Ok
          (if Conformance.ok report then 0
           else if Conformance.inconclusive report then
             nothing_certified
               (match mode with
               | Conformance.Sample _ -> "the checker exhausted --max-states on a history"
               | Conformance.Walk _ -> "no schedule completed within the bounds")
           else 3)
      | exception Sched_tree.Schedule_limit k ->
        `Ok
          (nothing_certified
             (Printf.sprintf "an exhaustive walk passed --max-schedules %d runs" k))
      | exception Exhaustive.Inconclusive cell -> `Ok (nothing_certified cell))
  in
  Cmd.v
    (Cmd.info "conform"
       ~doc:
         "Conformance-check the universal constructions: fuzz seeded random schedules (and \
          fault plans) through each construction and object type, check every history for \
          linearizability, shrink any counterexample to a locally-minimal schedule (exit 3 on \
          violation).  With $(b,--mutate), verify the checker catches seeded bugs.  With \
          $(b,--exhaustive), replace sampling by a bounded-exhaustive DPOR walk of the \
          schedule space.  Exits 4 when nothing was certified yet nothing refuted: a walk \
          passed $(b,--max-schedules) or completed no schedule within its bounds, or the \
          checker exhausted $(b,--max-states) on a history.")
    Term.(
      ret
        (const run $ logging $ target_arg $ cn_arg $ seed_arg $ type_arg $ plan_arg $ ops_arg
       $ schedules_arg $ max_states_arg $ mutate_flag $ exhaustive_flag $ preempt_bound_arg
       $ fair_bound_arg $ len_bound_arg $ max_schedules_arg $ report_arg $ model_arg
       $ jobs_arg))

(* ---- hw ---- *)

let hw_cmd =
  let construction_arg =
    let construction =
      known_name ~what:"construction"
        ~names:(fun () ->
          List.map (fun (c : Iface.t) -> c.Iface.name) Fault_targets.all @ [ "all" ])
        (fun s -> s = "all" || Fault_targets.find s <> None)
    in
    Arg.(
      value & opt construction "all"
      & info [ "construction" ] ~docv:"CONSTR"
          ~doc:
            "Construction to run on hardware: $(b,adt-tree), $(b,herlihy), $(b,direct), or \
             $(b,all).")
  in
  let hn_arg =
    Arg.(
      value & opt pos_int 4
      & info [ "n" ] ~docv:"N"
          ~doc:"Domains (= processes).  Beyond the core count they timeshare.")
  in
  let ops_arg =
    Arg.(value & opt pos_int 64 & info [ "ops" ] ~docv:"K" ~doc:"Operations per process.")
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
      value & opt pos_int 500_000
      & info [ "max-states" ] ~docv:"B" ~doc:"Linearizability checker state budget.")
  in
  let wakeup_arg =
    let algorithm =
      known_name ~what:"wakeup algorithm"
        ~names:(fun () ->
          List.map (fun (e : Corpus.entry) -> e.Corpus.name) (Corpus.correct_algorithms ()))
        (fun s -> Corpus.find s <> None)
    in
    Arg.(
      value & opt (some algorithm) None
      & info [ "wakeup" ] ~docv:"ALGORITHM"
          ~doc:"Run a wakeup-corpus algorithm on hardware instead of a construction.")
  in
  let constructions_of name =
    if name = "all" then
      List.filter (fun (c : Iface.t) -> c.Iface.name <> "consensus-list") Fault_targets.all
    else [ Option.get (Fault_targets.find name) ]
  in
  let run_wakeup name n seed =
    let entry = Option.get (Corpus.find name) in
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
      value & opt pos_int 500_000
      & info [ "max-runs" ] ~docv:"K" ~doc:"Abort if more interleavings than this.")
  in
  let reduced_flag =
    Arg.(
      value & flag
      & info [ "reduced" ]
          ~doc:
            "Use dynamic partial-order reduction with sleep sets and state dedup: explores a \
             schedule subset covering every distinct (results, wakeup verdict) outcome, and \
             reports how many runs were cut.  Sound for the wakeup check; orders of magnitude \
             fewer schedules.")
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
           Explore.iter_dpor ~n ~program_of ~inits ~coin_range ~max_runs ~f:check ()
         in
         Format.printf
           "%s at n = %d (reduced): %d schedules explored (%d sleep-blocked runs, %d revisited \
            states cut), %d wakeup violations -> %s@."
           name n stats.Sched_tree.schedules stats.Sched_tree.sleep_blocked
           stats.Sched_tree.deduped !violations
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
  (* [None] is the whole catalog. *)
  let litmus_test =
    let parse = function
      | "all" -> Ok None
      | s -> (
        match Litmus.find s with
        | Some t -> Ok (Some t)
        | None ->
          Error
            (`Msg
              (Printf.sprintf "unknown litmus test %S (one of: %s, or all)" s
                 (String.concat ", " (List.map (fun t -> t.Litmus.name) Litmus.catalog)))))
    in
    let print ppf = function
      | None -> Format.pp_print_string ppf "all"
      | Some t -> Format.pp_print_string ppf t.Litmus.name
    in
    Arg.conv ~docv:"TEST" (parse, print)
  in
  let test_arg =
    Arg.(
      value & pos 0 litmus_test None
      & info [] ~docv:"TEST"
          ~doc:
            "Litmus test to run ($(b,SB), $(b,SB+fence), $(b,SB+rmw), $(b,MP), \
             $(b,MP+fence), $(b,MP+rmw), $(b,LB), $(b,IRIW)) or $(b,all).")
  in
  let max_runs_arg =
    Arg.(
      value & opt pos_int 200_000
      & info [ "max-runs" ] ~docv:"K"
          ~doc:"Abort a per-model DPOR walk past this many runs (exit 4, nothing checked).")
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
    let whole_catalog = test = None in
    let tests = match test with None -> Litmus.catalog | Some t -> [ t ] in
    match List.map (Litmus.check ~max_runs) tests with
    | exception Litmus.Run_limit { test; model; runs } ->
      Format.printf "litmus %s under %s: state space exceeds %d runs; raise --max-runs@." test
        (Memory_model.to_string model) runs;
      4
    | verdicts ->
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
          write_report path
            Json.(
              Obj
                [
                  ("tests", Arr (List.map json_of_verdict verdicts));
                  ("distinguishes_all_models", Bool distinguishes);
                  ("ok", Bool ok);
                ]))
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
          (exit 3 on any mismatch, 4 when a walk hit $(b,--max-runs)).")
    Term.(const run $ logging $ test_arg $ max_runs_arg $ report_arg)

let main_cmd =
  let doc =
    "Executable reproduction of Jayanti's PODC 1998 \\(Omega\\)(log n) lower bound for \
     randomized implementations of shared objects from LL/SC/validate/move/swap."
  in
  Cmd.group
    (Cmd.info "lowerbound" ~version:"1.0.0" ~doc)
    [
      exp_cmd; corpus_cmd; analyze_cmd; trace_cmd; sweep_cmd; explore_cmd; litmus_cmd;
      profile_cmd; upsets_cmd; faults_cmd; conform_cmd; hw_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
