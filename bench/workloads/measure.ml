(* One workload in this process: set-up, the measured loop, checks, and the
   result lines.

   Set-up is timed [setup_reps] times at the start and before each
   iteration, and its median reported, so work moved into set-up shows as
   a set-up regression.  The loop runs iterations until the next one would
   overrun the time budget (at least [min_iterations]); [Gc.compact] runs
   before each, so no iteration pays for collecting the previous one's
   garbage.  With tracing on, each plain iteration is followed by its
   traced mirror: the plain ones still give [wall_s] and the GC figures,
   the traced ones the per-layer metrics, and the ratio of the two medians
   is the tracing overhead. *)

open Lowerbound

let setup_reps = 3
let min_iterations = 3

type result = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  iterations : int;
  setup : Stats.summary;
  wall : Stats.summary;
  peak_rss_mb : float;
  attempted : int;
  failures : string list;
  per_layer : (string * float) list;  (** every {!Catalog.per_layer} metric when traced. *)
  traced_wall : Stats.summary option;
  span_coverage : float option;
      (** share of a traced iteration's wall time that the layer spans cover. *)
}

let seconds_since t0 = float_of_int (Spans.now_ns () - t0) /. 1e9

let timed f =
  let t0 = Spans.now_ns () in
  let r = f () in
  (r, seconds_since t0)

(* VmHWM: the resident-set high-water mark of this process.  It is read
   once the first [min_iterations] iterations are done: later iterations
   repeat the same job, and on a heap that is never returned to the system
   they only add allocator fragmentation, which depends on how many
   iterations the time budget allowed. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
      in
      scan ())

let words_to_mb w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.0

(* Per-layer metrics of one traced iteration, from its spans and counts. *)
let layer_metrics spans (out : Workloads.traced) ~memory_ns =
  let self = Spans.self_seconds spans in
  let sum names = List.fold_left (fun a s -> a +. self s) 0.0 names in
  let times = List.map (fun (m, names) -> (m, sum names)) Catalog.span_metrics in
  let get k = Option.value ~default:0.0 (List.assoc_opt k (times @ out.counts)) in
  let per a b = if b = 0.0 then 0.0 else a /. b in
  times @ out.counts
  @ [
      ("harness.ns_per_step", per (get "harness.execute_s" *. 1e9) (get "harness.steps"));
      ("linearize.ns_per_state", per (get "linearize.assess_s" *. 1e9) (get "linearize.states"));
      ( "memory.share_of_execute",
        per (memory_ns *. float_of_int out.mem_ops) (sum out.mem_spans *. 1e9) );
    ]

(* Share of the iteration span that its layer spans cover. *)
let coverage spans =
  let self = Spans.self_seconds spans in
  let layers =
    List.sort_uniq compare (List.concat_map snd Catalog.span_metrics)
    |> List.fold_left (fun a s -> a +. self s) 0.0
  in
  let whole =
    List.fold_left
      (fun a (s : Spans.span) ->
        if s.Spans.name = "iteration" then a +. (float_of_int (s.stop_ns - s.start_ns) /. 1e9)
        else a)
      0.0 spans
  in
  if whole = 0.0 then 0.0 else layers /. whole

(* One set-up takes microseconds, where a single timing is mostly clock
   and cache noise.  Each sample therefore times a batch of set-ups that
   together allocate about [setup_batch_words] (a few milliseconds of
   work) and divides by the batch size.  Sizing the batch by allocation,
   not by time, keeps the heap's history, and so [peak_rss_mb], the same
   from run to run.  The host this runs on has slow and fast phases lasting
   seconds, so samples are taken before every iteration too, not only at
   the start. *)
let setup_batch_words = 1e6

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let setup_sampler (w : Workloads.t) ~seed =
  let setup () = ignore (w.Workloads.setup ~seed) in
  let a0 = allocated () in
  setup ();
  let k = max 1 (min 1_000_000 (int_of_float (setup_batch_words /. (allocated () -. a0)))) in
  let samples = ref [] in
  let sample () =
    for _ = 1 to setup_reps do
      let (), dt = timed (fun () -> for _ = 1 to k do setup () done) in
      samples := (dt /. float_of_int k) :: !samples
    done
  in
  (sample, fun () -> !samples)

let run (w : Workloads.t) ~seed ~seconds ~trace =
  let t_start = Spans.now_ns () in
  let sample_setup, setups = setup_sampler w ~seed in
  sample_setup ();
  let p = w.Workloads.setup ~seed in
  let attempted = ref 0 and failures = ref [] in
  let note =
    List.iter (fun (c : Pins.check) ->
        incr attempted;
        if not c.Pins.ok then failures := c.Pins.what :: !failures)
  in
  let tr = Spans.create ~workload:w.Workloads.name in
  let plain_s = ref [] and traced_s = ref [] and traced = ref [] in
  let minor = ref [] and major = ref [] and top_heap = ref 0 and peak = ref 0.0 in
  let traced_ok = ref true in
  let one i =
    sample_setup ();
    Gc.compact ();
    let g0 = Gc.quick_stat () in
    let checks, dt = timed (fun () -> p.Workloads.plain i) in
    let g1 = Gc.quick_stat () in
    note checks;
    plain_s := dt :: !plain_s;
    minor := ((g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6) :: !minor;
    major := float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) :: !major;
    if i = 0 then top_heap := g1.Gc.top_heap_words;
    if i = min_iterations - 1 then peak := peak_rss_mb ();
    if trace then begin
      Gc.compact ();
      tr.Spans.iteration <- i;
      let out, dt =
        timed (fun () -> Spans.with_span tr "iteration" (fun () -> p.Workloads.traced tr i))
      in
      note out.Workloads.checks;
      traced_ok := !traced_ok && List.for_all (fun (c : Pins.check) -> c.Pins.ok) out.checks;
      traced_s := dt :: !traced_s;
      traced := (i, out) :: !traced
    end
  in
  let budget = float_of_int seconds in
  let rec loop i steps =
    let elapsed = seconds_since t_start in
    if i < min_iterations || elapsed +. Stats.median steps <= budget then begin
      let (), dt = timed (fun () -> one i) in
      loop (i + 1) (dt :: steps)
    end
    else i
  in
  let iterations = loop 0 [] in
  let per_layer, span_coverage =
    if not trace then ([], None)
    else begin
      let segments = p.Workloads.replay () in
      let memory_ns = Replay.memory_ns segments in
      let pure_ns = Replay.pure_memory_ns segments in
      let rows =
        List.map
          (fun (i, out) -> layer_metrics (Spans.of_iteration tr i) out ~memory_ns)
          !traced
      in
      let median_of name =
        let xs = List.filter_map (List.assoc_opt name) rows in
        if xs = [] then 0.0 else Stats.median xs
      in
      let extra =
        [
          ("memory.apply_ns", memory_ns);
          ("pure_memory.apply_ns", pure_ns);
          ("gc.minor_mwords", Stats.median !minor);
          ("gc.major_collections", Stats.median !major);
          ("gc.top_heap_mb", words_to_mb !top_heap);
          ("trace.overhead_frac", (Stats.median !traced_s /. Stats.median !plain_s) -. 1.0);
          ("trace.mirror_ok", if !traced_ok then 1.0 else 0.0);
        ]
      in
      let value name =
        match List.assoc_opt name extra with Some v -> v | None -> median_of name
      in
      Spans.write_jsonl tr (Printf.sprintf "trace-workloads-%s.jsonl" w.Workloads.name);
      let coverages = List.map (fun (i, _) -> coverage (Spans.of_iteration tr i)) !traced in
      let names = List.map (fun (m : Catalog.metric) -> m.Catalog.name) Catalog.per_layer in
      (List.map (fun name -> (name, value name)) names, Some (Stats.median coverages))
    end
  in
  {
    workload = w.Workloads.name;
    seed;
    seconds;
    trace;
    iterations;
    setup = Stats.summarize (setups ());
    wall = Stats.summarize !plain_s;
    peak_rss_mb = !peak;
    attempted = !attempted;
    failures = List.rev !failures;
    per_layer;
    traced_wall = (if trace then Some (Stats.summarize !traced_s) else None);
    span_coverage;
  }

let failed r = List.length r.failures
let failed_frac r = float_of_int (failed r) /. float_of_int (max 1 r.attempted)
let point v = { Stats.median = v; q1 = v; q3 = v; n = 1 }

let end_to_end r =
  [
    ("setup_s", r.setup);
    ("wall_s", r.wall);
    ("peak_rss_mb", point r.peak_rss_mb);
    ("failed_frac", point (failed_frac r));
  ]

(* The full record of a run: what [--all] snapshots and [--compare] reads. *)
let detail r =
  Json.Obj
    ([
       ("workload", Json.Str r.workload);
       ("seed", Json.Int r.seed);
       ("seconds", Json.Int r.seconds);
       ("trace", Json.Bool r.trace);
       ("iterations", Json.Int r.iterations);
       ("attempted", Json.Int r.attempted);
       ("failed", Json.Int (failed r));
       ("failures", Json.Arr (List.map (fun s -> Json.Str s) r.failures));
       ( "end_to_end",
         Json.Obj (List.map (fun (k, s) -> (k, Stats.json_of_summary s)) (end_to_end r)) );
     ]
    @
    if not r.trace then []
    else
      [
        ("per_layer", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.per_layer));
        ( "traced_wall_s",
          Option.fold ~none:Json.Null ~some:Stats.json_of_summary r.traced_wall );
        ( "span_coverage",
          Option.fold ~none:Json.Null ~some:(fun c -> Json.Float c) r.span_coverage );
      ])

(* The result line, last on stdout: end-to-end metrics untraced, per-layer
   metrics traced. *)
let result_line r =
  let metric (name, v) =
    (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str (Catalog.unit_of name)) ])
  in
  let metrics =
    if r.trace then r.per_layer
    else
      [
        ("setup_s", r.setup.Stats.median);
        ("wall_s", r.wall.Stats.median);
        ("peak_rss_mb", r.peak_rss_mb);
      ]
  in
  Json.Obj
    [
      ("correct", Json.Bool (r.failures = []));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int (failed r));
      ("metrics", Json.Obj (List.map metric metrics));
    ]

let pp_summary ppf (s : Stats.summary) =
  Format.fprintf ppf "%.6g (median of %d, IQR %.6g .. %.6g, spread %.1f%%)" s.Stats.median s.Stats.n
    s.Stats.q1 s.Stats.q3 (100.0 *. Stats.rel_iqr s)

let print r =
  Format.printf "== %s  seed %d, budget %d s, trace %s, %d iterations@." r.workload r.seed r.seconds
    (if r.trace then "on" else "off")
    r.iterations;
  Format.printf "  %-30s %a s@." "setup_s" pp_summary r.setup;
  Format.printf "  %-30s %a s@." "wall_s" pp_summary r.wall;
  Format.printf "  %-30s %.6g MB@." "peak_rss_mb" r.peak_rss_mb;
  Format.printf "  %-30s %.6g (%d of %d checks failed)@." "failed_frac" (failed_frac r) (failed r)
    r.attempted;
  List.iteri (fun i f -> if i < 20 then Format.printf "  FAILED: %s@." f) r.failures;
  if r.trace then begin
    Option.iter (Format.printf "  %-30s %a s@." "traced iteration" pp_summary) r.traced_wall;
    Option.iter
      (fun c ->
        Format.printf "  %-30s %.1f%% of a traced iteration@." "layer spans cover" (100.0 *. c))
      r.span_coverage;
    List.iter
      (fun (k, v) -> Format.printf "  %-30s %.6g %s@." k v (Catalog.unit_of k))
      r.per_layer;
    if List.assoc_opt "trace.mirror_ok" r.per_layer <> Some 1.0 then
      Format.printf
        "  per-layer numbers INVALID: a traced mirror disagreed with its untraced call@."
  end
