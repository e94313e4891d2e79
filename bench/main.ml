(* Benchmark harness.

   Two halves:
   1. The experiment tables E1-E11 (one per paper lemma/theorem — the paper,
      a theory paper, has no numbered tables/figures; these are its results
      as measurements).  `EXPERIMENTS.md` records paper-vs-measured.
   2. Bechamel wall-clock micro-benchmarks of the simulator and of one
      object operation through each universal construction at several n —
      the shape (flat for direct CAS, logarithmic for the tree, linear for
      the announce-array baseline) mirrors the shared-access counts.

   Usage:
     bench/main.exe              all experiments + timing benches + service
     bench/main.exe exp          all experiment tables
     bench/main.exe exp e7       one experiment
     bench/main.exe quick        reduced-size experiment tables
     bench/main.exe time         timing benches only
     bench/main.exe service      service-layer cold vs warm-cache + dedup bench
     bench/main.exe hw           hardware backend: wall-clock curves on real domains

   A `-j N` / `--jobs N` pair anywhere in the arguments fans each experiment's
   independent rows across N domains (0 = auto); tables are identical at any
   N, only the wall-clock and the snapshot's "jobs" meta field change. *)

open Lowerbound

(* Each run appends a snapshot to BENCH_experiments.json / BENCH_simulator.json
   (schema in docs/OBSERVABILITY.md) alongside the human-readable tables. *)

let run_tables ?(quick = false) ~jobs thunks =
  let timed =
    List.map
      (fun (_, thunk) ->
        let t0 = Unix.gettimeofday () in
        let table = thunk () in
        let elapsed = Unix.gettimeofday () -. t0 in
        Format.printf "%a@.@." Lb_experiments.Table.pp table;
        (table, elapsed))
      thunks
  in
  let tables = List.map fst timed in
  let data =
    Json.Obj
      [
        ( "tables",
          Json.Arr
            (List.map
               (fun (t, elapsed) ->
                 match Lb_experiments.Table.to_json t with
                 | Json.Obj fields -> Json.Obj (fields @ [ ("elapsed_s", Json.Float elapsed) ])
                 | other -> other)
               timed) );
        ("all_pass", Json.Bool (List.for_all (fun t -> t.Lb_experiments.Table.pass) tables));
      ]
  in
  let path =
    Bench_out.append ~suite:"experiments"
      ~meta:[ ("quick", Json.Bool quick); ("jobs", Json.Int jobs) ]
      data
  in
  Format.printf "(wrote %s)@." path;
  let failures =
    List.filter_map
      (fun t -> if t.Lb_experiments.Table.pass then None else Some t.Lb_experiments.Table.id)
      tables
  in
  match failures with
  | [] -> Format.printf "All %d experiments PASS@." (List.length tables)
  | ids ->
    Format.printf "FAILED experiments: %s@." (String.concat ", " ids);
    exit 1

(* ---- Bechamel timing ---- *)

let construction_op_test (c : Iface.t) n =
  (* One fetch&inc through the construction, solo (deterministic cost). *)
  Bechamel.Test.make
    ~name:(Printf.sprintf "%s fetch&inc n=%d" c.Iface.name n)
    (Bechamel.Staged.stage (fun () ->
         let layout = Layout.create () in
         let handle = c.Iface.create layout ~n (Counters.fetch_inc ~bits:62) in
         let memory = Memory.create () in
         Layout.install layout memory;
         let p = Process.create ~id:0 (handle.Iface.apply ~pid:0 ~seq:0 Value.Unit) in
         ignore (Process.run_solo p memory (Coin.constant 0) ~fuel:100_000)))

let direct_cas_test n =
  Bechamel.Test.make
    ~name:(Printf.sprintf "direct-cas n=%d" n)
    (Bechamel.Staged.stage (fun () ->
         let layout = Layout.create () in
         let handle = Direct.compare_and_swap layout ~init:(Value.Int 0) in
         let memory = Memory.create () in
         Layout.install layout memory;
         let p =
           Process.create ~id:0
             (handle.Iface.apply ~pid:0 ~seq:0
                (Misc_types.op_cas ~expected:(Value.Int 0) ~new_:(Value.Int 1)))
         in
         ignore (Process.run_solo p memory (Coin.constant 0) ~fuel:100)))

let memory_ops_test =
  Bechamel.Test.make ~name:"memory: LL+SC pair"
    (Bechamel.Staged.stage
       (let memory = Memory.create ~default:(Value.Int 0) () in
        fun () ->
          ignore (Memory.apply memory ~pid:0 (Op.Ll 0));
          ignore (Memory.apply memory ~pid:0 (Op.Sc (0, Value.Int 1)))))

let adversary_round_test n =
  Bechamel.Test.make
    ~name:(Printf.sprintf "adversary 4 rounds, naive n=%d" n)
    (Bechamel.Staged.stage (fun () ->
         let program_of, inits = Corpus.naive.Corpus.make ~n in
         ignore (All_run.execute ~n ~program_of ~inits ~max_rounds:4 ())))

let secretive_test n =
  Bechamel.Test.make
    ~name:(Printf.sprintf "secretive schedule n=%d" n)
    (Bechamel.Staged.stage (fun () ->
         let spec = Lb_secretive.Move_spec.of_list (List.init n (fun i -> (i, (i, i + 1)))) in
         ignore (Lb_secretive.Secretive.build spec)))

let conformance_check_test n =
  (* One fuzzed schedule of herlihy/fetch&inc plus its linearizability
     check: the marginal cost of conformance checking per schedule. *)
  Bechamel.Test.make
    ~name:(Printf.sprintf "conformance check herlihy n=%d" n)
    (Bechamel.Staged.stage
       (let ot =
          match Schedule_fuzz.find_type "fetch-inc" with
          | Some ot -> ot
          | None -> failwith "fetch-inc object type missing"
        in
        let construction =
          match Fault_targets.find "herlihy" with
          | Some c -> c
          | None -> failwith "herlihy construction missing"
        in
        fun () ->
          ignore
            (Schedule_fuzz.run_once ~construction ~ot ~plan:Fault_plan.none ~n ~ops:3
               ~seed:7 ~max_states:200_000 ~scheduler:(Scheduler.random ~seed:7) ())))

let timing () =
  let open Bechamel in
  let tests =
    [
      memory_ops_test;
      conformance_check_test 4;
      secretive_test 256;
      secretive_test 4096;
      adversary_round_test 64;
      direct_cas_test 64;
      direct_cas_test 1024;
      construction_op_test Adt_tree.construction 16;
      construction_op_test Adt_tree.construction 256;
      construction_op_test Adt_tree.construction 1024;
      construction_op_test Herlihy.construction 16;
      construction_op_test Herlihy.construction 256;
      construction_op_test Consensus_list.construction 16;
      construction_op_test Consensus_list.construction 256;
    ]
  in
  let grouped = Test.make_grouped ~name:"lowerbound" tests in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Format.printf "@.== Timing (monotonic clock, ns per run)@.";
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> rows := (name, est) :: !rows
      | Some [] | None -> ())
    results;
  let rows = List.sort compare !rows in
  List.iter (fun (name, est) -> Format.printf "%-45s %12.0f ns@." name est) rows;
  let data =
    Json.Obj
      [
        ( "benchmarks",
          Json.Arr
            (List.map
               (fun (name, est) ->
                 Json.Obj [ ("name", Json.Str name); ("ns_per_run", Json.Float est) ])
               rows) );
      ]
  in
  let path = Bench_out.append ~suite:"simulator" data in
  Format.printf "(wrote %s)@." path

(* ---- service layer: cold vs warm-cache latency, in-flight dedup ---- *)

(* Two acceptance checks for the lib/service tentpole, measured on full-size
   requests and appended to BENCH_simulator.json:
   - a warm-cache request must be >= 10x faster than the cold computation
     (it is a hash lookup vs seconds of simulation);
   - a batch of two identical uncached requests must compute the table
     exactly once, observable as service.misses = 1 + service.dedup_inflight
     = 1 in the service metrics. *)
let service ~jobs () =
  let open Lb_service in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let ok_response = function
    | [ { Executor.outcome = Executor.Ok _; _ } ] -> ()
    | [ { Executor.outcome = Executor.Error msg; _ } ] -> failwith ("service bench: " ^ msg)
    | _ -> failwith "service bench: unexpected response shape"
  in
  let failures = ref [] in
  Format.printf "@.== Service layer: cold vs warm-cache request latency (full-size)@.@.";
  let rows =
    List.concat_map
      (fun id ->
        let registry = Metrics.create () in
        Metrics.with_registry registry (fun () ->
            let cache = Cache.create ~capacity:64 () in
            let executor = Executor.create ~jobs ~cache ~compute:Catalog.compute () in
            let req = Request.experiment id in
            let cold_resp, cold = time (fun () -> Executor.run_batch executor [ req ]) in
            ok_response cold_resp;
            let warm_resp, warm = time (fun () -> Executor.run_batch executor [ req ]) in
            ok_response warm_resp;
            (match warm_resp with
            | [ { Executor.cached = true; _ } ] -> ()
            | _ -> failures := Printf.sprintf "%s: warm request not served from cache" id :: !failures);
            let speedup = if warm > 0.0 then cold /. warm else infinity in
            Format.printf "%-4s cold %8.3f s   warm %10.6f s   speedup %10.0fx%s@." id cold
              warm speedup
              (if speedup >= 10.0 then "" else "  BELOW 10x");
            if speedup < 10.0 then
              failures :=
                Printf.sprintf "%s: warm-cache speedup %.1fx < 10x" id speedup :: !failures;
            [
              (Printf.sprintf "service %s cold request" id, cold *. 1e9);
              (Printf.sprintf "service %s warm request" id, warm *. 1e9);
            ]))
      [ "e5"; "e7" ]
  in
  (* In-flight dedup: two identical uncached requests, one computation. *)
  let registry = Metrics.create () in
  Metrics.with_registry registry (fun () ->
      let cache = Cache.create ~capacity:64 () in
      let executor = Executor.create ~jobs ~cache ~compute:Catalog.compute () in
      let req = Request.experiment "e7" in
      let responses = Executor.run_batch executor [ req; req ] in
      let misses = Metrics.counter_value registry "service.misses" in
      let dedups = Metrics.counter_value registry "service.dedup_inflight" in
      Format.printf
        "@.dedup: 2 identical in-flight e7 requests -> %d computation(s), %d deduped \
         (service.misses=%d service.dedup_inflight=%d)@."
        misses dedups misses dedups;
      if not (misses = 1 && dedups = 1 && List.length responses = 2) then
        failures := "in-flight dedup did not collapse two identical requests" :: !failures);
  let data =
    Json.Obj
      [
        ( "benchmarks",
          Json.Arr
            (List.map
               (fun (name, ns) ->
                 Json.Obj [ ("name", Json.Str name); ("ns_per_run", Json.Float ns) ])
               rows) );
      ]
  in
  let path = Bench_out.append ~suite:"simulator" ~meta:[ ("jobs", Json.Int jobs) ] data in
  Format.printf "(wrote %s)@." path;
  match !failures with
  | [] -> Format.printf "service benchmark OK@."
  | fs ->
    List.iter (fun f -> Format.printf "service benchmark FAILED: %s@." f) fs;
    exit 1

(* ---- shape chart: the paper's complexity landscape at a glance ---- *)

let charts () =
  let ns = [ 2; 4; 8; 16; 32; 64; 128; 256 ] in
  let sweep construction =
    List.map
      (fun n ->
        let result =
          Harness.run ~construction ~spec:(Counters.fetch_inc ~bits:62) ~n
            ~ops:(fun _ -> [ Value.Unit ])
            ()
        in
        (n, result.Harness.max_cost))
      ns
  in
  let cas_points =
    List.map
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
        (n, result.Harness.max_cost))
      ns
  in
  Format.printf
    "@.== Worst-case shared-memory operations per object operation (fetch&inc)@.@.%s@."
    (Lb_experiments.Chart.render ~width:64 ~height:18
       [
         { Lb_experiments.Chart.label = "herlihy (oblivious, 2n + 6)"; mark = 'h';
           points = sweep Herlihy.construction };
         { Lb_experiments.Chart.label = "consensus-list (oblivious, ~4n)"; mark = 'c';
           points = sweep Consensus_list.construction };
         { Lb_experiments.Chart.label = "adt-tree (oblivious, 8 log2 n + 9)"; mark = 't';
           points = sweep Adt_tree.construction };
         { Lb_experiments.Chart.label = "direct CAS (semantic, <= 2)"; mark = '_';
           points = cas_points };
       ]);
  (* Zoom on the sublinear curves: the tree's logarithmic staircase (a
     constant +8 per doubling of n) against the flat semantic CAS and the
     ceil(log4 n) floor. *)
  let floor_points = List.map (fun n -> (n, Lower_bound.ceil_log4 n)) ns in
  Format.printf "== Zoom: the logarithmic staircase vs the floor@.@.%s@."
    (Lb_experiments.Chart.render ~width:64 ~height:18
       [
         { Lb_experiments.Chart.label = "adt-tree (8 log2 n + 9)"; mark = 't';
           points = sweep Adt_tree.construction };
         { Lb_experiments.Chart.label = "Theorem 6.1 floor (ceil(log4 n))"; mark = 'f';
           points = floor_points };
         { Lb_experiments.Chart.label = "direct CAS (semantic, <= 2)"; mark = '_';
           points = cas_points };
       ])

(* ---- hardware backend: wall-clock curves on real domains ---- *)

(* The hardware counterpart of [charts]: the same constructions and the
   same fetch&inc workload, but the y-axis is measured nanoseconds on
   OCaml 5 domains rather than counted shared accesses.  Every sweep
   cell also runs the Wing–Gong checker over its recorded history, so a
   BENCH_hardware.json row is by construction a certified run.  Rows are
   Bench_gate-compatible (name + ns_per_run); ops_per_s and the access
   costs ride along un-gated. *)
let hardware () =
  let constructions =
    List.filter (fun (c : Iface.t) -> c.Iface.name <> "consensus-list") Fault_targets.all
  in
  let ns = Hw_bench.default_ns () in
  Format.printf "== Hardware backend: %d domain(s) available, sweeping n in {%s}@.@."
    (Domain.recommended_domain_count ())
    (String.concat ", " (List.map string_of_int ns));
  let rows = Hw_bench.sweep ~ops_per_process:256 ~seed:1 ~check:true ~constructions ~ns () in
  Format.printf "row                      | ns/op       | ops/s      | gave up | max cost | lin@.";
  Format.printf "%s@." (String.make 80 '-');
  List.iter
    (fun (r : Hw_bench.row) ->
      Format.printf "%-24s | %11.1f | %10.0f | %7d | %8d | %s@." (Hw_bench.row_name r)
        r.Hw_bench.ns_per_op r.Hw_bench.ops_per_s r.Hw_bench.failed r.Hw_bench.max_cost
        (match r.Hw_bench.linearizable with
        | Some true -> "yes"
        | Some false -> "NO"
        | None -> "-"))
    rows;
  let curve name =
    List.filter_map
      (fun (r : Hw_bench.row) ->
        if r.Hw_bench.construction = name then
          Some (r.Hw_bench.n, int_of_float r.Hw_bench.ns_per_op)
        else None)
      rows
  in
  Format.printf "@.== Measured wall-clock ns per operation (fetch&inc, real domains)@.@.%s@."
    (Lb_experiments.Chart.render ~width:64 ~height:18
       [
         { Lb_experiments.Chart.label = "herlihy"; mark = 'h'; points = curve "herlihy" };
         { Lb_experiments.Chart.label = "adt-tree"; mark = 't'; points = curve "adt-tree" };
         { Lb_experiments.Chart.label = "direct CAS"; mark = '_'; points = curve "direct" };
       ]);
  let path = Hw_bench.append rows in
  Format.printf "appended %d hardware rows to %s@." (List.length rows) path;
  if List.exists (fun (r : Hw_bench.row) -> r.Hw_bench.linearizable = Some false) rows then begin
    Format.printf "hardware history FAILED linearizability@.";
    exit 1
  end

(* Strip `-j N` / `--jobs N` from the argument list; 0 means auto. *)
let rec extract_jobs = function
  | [] -> (1, [])
  | ("-j" | "--jobs") :: v :: rest -> (
    match int_of_string_opt v with
    | Some j when j >= 0 ->
      let _, rest' = extract_jobs rest in
      ((if j = 0 then Pool.default_jobs () else j), rest')
    | Some _ | None ->
      Format.printf "bad jobs value %S@." v;
      exit 2)
  | arg :: rest ->
    let jobs, rest' = extract_jobs rest in
    (jobs, arg :: rest')

let () =
  let jobs, args = extract_jobs (List.tl (Array.to_list Sys.argv)) in
  match args with
  | "exp" :: [] -> run_tables ~jobs (Lb_experiments.Experiments.thunks ~jobs ~quick:false ())
  | "exp" :: id :: _ -> (
    match Lb_experiments.Experiments.by_id ~jobs id with
    | Some f -> run_tables ~jobs [ (String.lowercase_ascii id, f) ]
    | None ->
      Format.printf "unknown experiment %s (have: %s)@." id
        (String.concat ", " Lb_experiments.Experiments.ids);
      exit 2)
  | "quick" :: _ ->
    run_tables ~quick:true ~jobs (Lb_experiments.Experiments.thunks ~jobs ~quick:true ())
  | "time" :: _ -> timing ()
  | "chart" :: _ -> charts ()
  | "service" :: _ -> service ~jobs ()
  | "hw" :: _ -> hardware ()
  | _ ->
    run_tables ~jobs (Lb_experiments.Experiments.thunks ~jobs ~quick:false ());
    charts ();
    timing ();
    service ~jobs ();
    hardware ()
