(* The domain pool: Pool.map must be observationally List.map at every job
   count — same results in the same order, same merged metrics, same
   absorbed trace, same (lowest-index) exception — with parallelism purely
   a wall-clock concern. *)

open Lowerbound

let prop name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:200 ~name arb f)

(* ---- result determinism ---- *)

let arb_input =
  QCheck.make
    ~print:(fun (jobs, xs) ->
      Printf.sprintf "jobs=%d [%s]" jobs (String.concat ";" (List.map string_of_int xs)))
    QCheck.Gen.(
      let* jobs = 1 -- 6 in
      let* xs = list_size (0 -- 40) (0 -- 1000) in
      return (jobs, xs))

let t_map_is_list_map =
  prop "Pool.map ~jobs:k f = List.map f (any k)" arb_input (fun (jobs, xs) ->
      let f x = (x * 37) mod 101 in
      Pool.map ~jobs f xs = List.map f xs)

let t_mapi_is_list_mapi =
  prop "Pool.mapi ~jobs:k f = List.mapi f (any k)" arb_input (fun (jobs, xs) ->
      let f i x = (i * 1000) + x in
      Pool.mapi ~jobs f xs = List.mapi f xs)

let t_jobs_zero_is_auto () =
  let xs = List.init 20 Fun.id in
  Alcotest.(check (list int))
    "jobs:0 resolves to auto and preserves order" xs
    (Pool.map ~jobs:0 Fun.id xs)

let t_negative_jobs_rejected () =
  Alcotest.check_raises "negative jobs" (Invalid_argument "Pool: negative jobs -2")
    (fun () -> ignore (Pool.map ~jobs:(-2) Fun.id [ 1; 2 ]))

(* ---- metrics determinism ---- *)

(* Each task increments a counter, observes its input in a histogram and
   sets a gauge.  The merged registry must serialize identically at any job
   count: counters add, histograms add, gauges take the last task's value. *)
let run_metered ~jobs xs =
  let registry = Metrics.create () in
  Metrics.with_registry registry (fun () ->
      ignore
        (Pool.map ~jobs
           (fun x ->
             let m = Metrics.current () in
             Metrics.incr m "exec.tasks";
             Metrics.incr ~by:x m "exec.weight";
             Metrics.observe_int m "exec.input" x;
             Metrics.set_gauge m "exec.last" (float_of_int x);
             x)
           xs));
  Json.to_string (Metrics.to_json registry)

let t_metrics_merge_deterministic =
  prop "merged metrics identical at jobs 1 vs k" arb_input (fun (jobs, xs) ->
      run_metered ~jobs:1 xs = run_metered ~jobs xs)

(* ---- trace determinism ---- *)

let run_traced ~jobs xs =
  let tracer = Tracer.ring () in
  Tracer.with_tracer tracer (fun () ->
      ignore
        (Pool.map ~jobs
           (fun x ->
             Tracer.record (Event.Round { index = x });
             x)
           xs));
  List.map (fun (s : Event.stamped) -> (s.Event.at, Json.to_string (Event.to_json s)))
    (Tracer.events tracer)

let t_trace_absorb_deterministic =
  prop "absorbed trace identical at jobs 1 vs k" arb_input (fun (jobs, xs) ->
      run_traced ~jobs:1 xs = run_traced ~jobs xs)

let t_untraced_workers_stay_untraced () =
  (* A worker domain must not inherit the parent's tracer: with no tracer
     installed in the parent either, tasks recording events are no-ops.
     Tasks only report what they saw; the assertions run in the parent,
     since Alcotest's shared formatters are not safe to use from several
     domains at once. *)
  let before = Tracer.installed () in
  let seen = Pool.map ~jobs:3 (fun _ -> Tracer.active ()) (List.init 8 Fun.id) in
  List.iter
    (fun active -> Alcotest.(check bool) "task sees no ambient tracer" false active)
    seen;
  Alcotest.(check bool)
    "parent tracer untouched"
    (Option.is_none before)
    (Option.is_none (Tracer.installed ()))

(* ---- experiment tables are job-count-invariant ---- *)

let t_tables_jobs_invariant () =
  (* Small-sweep experiment tables must be byte-identical at jobs 1 vs 4 —
     the end-to-end guarantee the parallel engine makes. *)
  List.iter
    (fun (name, at_jobs) ->
      let render t = Format.asprintf "%a" Lb_experiments.Table.pp t in
      Alcotest.(check string)
        (name ^ " identical at jobs 1 vs 4")
        (render (at_jobs 1))
        (render (at_jobs 4)))
    [
      ("e1", fun jobs -> Lb_experiments.Experiments.e1 ~jobs ~ns:[ 4; 16 ] ());
      ("e2", fun jobs -> Lb_experiments.Experiments.e2 ~jobs ~specs:8 ());
      ("e5", fun jobs -> Lb_experiments.Experiments.e5 ~jobs ~ns:[ 4; 16 ] ());
      ("e9", fun jobs -> Lb_experiments.Experiments.e9 ~jobs ~ns:[ 2; 16 ] ());
      ("e12", fun jobs -> Lb_experiments.Experiments.e12 ~jobs ~ns:[ 2; 16 ] ());
    ]

(* ---- exception determinism ---- *)

let t_first_error_wins () =
  (* Whichever domain finishes first, the exception that surfaces is the
     lowest-indexed failing task's. *)
  for jobs = 1 to 4 do
    match
      Pool.map ~jobs
        (fun x -> if x mod 5 = 2 then failwith (string_of_int x) else x)
        (List.init 30 Fun.id)
    with
    | _ -> Alcotest.fail "expected Failure"
    | exception Failure s -> Alcotest.(check string) "lowest failing index" "2" s
  done

let t_survivors_still_merge () =
  (* Tasks after a failure still run, and their metrics still land. *)
  let registry = Metrics.create () in
  (try
     Metrics.with_registry registry (fun () ->
         ignore
           (Pool.map ~jobs:3
              (fun x ->
                Metrics.incr (Metrics.current ()) "exec.ran";
                if x = 0 then failwith "boom" else x)
              (List.init 12 Fun.id)))
   with Failure _ -> ());
  Alcotest.(check int) "all tasks ran and merged" 12
    (Metrics.counter_value registry "exec.ran")

let suite =
  [
    t_map_is_list_map;
    t_mapi_is_list_mapi;
    Alcotest.test_case "jobs:0 means auto" `Quick t_jobs_zero_is_auto;
    Alcotest.test_case "negative jobs rejected" `Quick t_negative_jobs_rejected;
    t_metrics_merge_deterministic;
    t_trace_absorb_deterministic;
    Alcotest.test_case "workers start untraced" `Quick t_untraced_workers_stay_untraced;
    Alcotest.test_case "tables identical jobs 1 vs 4" `Slow t_tables_jobs_invariant;
    Alcotest.test_case "lowest-index exception wins" `Quick t_first_error_wins;
    Alcotest.test_case "completed tasks merge despite failure" `Quick t_survivors_still_merge;
  ]
