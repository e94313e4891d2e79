(* The benchmark's metrics.  BENCHMARK.json at the repository root lists
   the same names, units and directions (the test in this directory keeps
   the two in step); the layer each metric belongs to, and which end-to-end
   metric it should move on which workload, is tabled in README.md. *)

type metric = { name : string; unit_ : string; lower_is_better : bool }

let m ?(lower = true) name unit_ = { name; unit_; lower_is_better = lower }

let end_to_end = [ m "setup_s" "s"; m "wall_s" "s"; m "peak_rss_mb" "MB" ]

let per_layer =
  [
    m "sched_tree.self_s" "s";
    m "sched_tree.oracle_s" "s";
    m "sched_tree.runs" "count";
    m "sched_tree.schedules" "count";
    m ~lower:false "sched_tree.useful_ratio" "ratio";
    m "sched_tree.deduped" "count";
    m "sched_tree.elided" "count";
    m "sched_tree.max_depth" "count";
    m "harness.execute_s" "s";
    m "harness.steps" "count";
    m "harness.steps_per_run" "count";
    m "harness.ns_per_step" "ns";
    m "harness.shared_ops" "count";
    m "harness.max_op_cost" "count";
    m "memory.apply_ns" "ns";
    m "pure_memory.apply_ns" "ns";
    m "memory.share_of_execute" "frac";
    m "linearize.assess_s" "s";
    m "linearize.states" "count";
    m "linearize.states_per_history" "count";
    m "linearize.ns_per_state" "ns";
    m "explore.iter_dpor_s" "s";
    m "explore.callback_s" "s";
    m "litmus.sc_s" "s";
    m "litmus.tso_s" "s";
    m "litmus.pso_s" "s";
    m "litmus.outcomes" "count";
    m "all_run.execute_s" "s";
    m "upsets.compute_s" "s";
    m "s_run.execute_s" "s";
    m "indistinguishability.check_s" "s";
    m "all_run.rounds" "count";
    m "all_run.max_shared_ops" "count";
    m "upsets.s_size" "count";
    m "gc.minor_mwords" "Mwords";
    m "gc.major_collections" "count";
    m "gc.top_heap_mb" "MB";
    m "trace.overhead_frac" "frac";
    m ~lower:false "trace.mirror_ok" "bool";
  ]

(* Per-layer times are span self times (see {!Spans.self_seconds}); the
   scheduling tree's own time is its explore span's self time plus the
   oracle calls made from inside the runner. *)
let span_metrics =
  [
    ("sched_tree.self_s", [ "sched_tree.explore"; "sched_tree.oracle" ]);
    ("sched_tree.oracle_s", [ "sched_tree.oracle" ]);
    ("harness.execute_s", [ "harness.execute" ]);
    ("linearize.assess_s", [ "linearize.assess" ]);
    ("explore.iter_dpor_s", [ "explore.iter_dpor" ]);
    ("explore.callback_s", [ "explore.callback" ]);
    ("litmus.sc_s", [ "litmus.sc" ]);
    ("litmus.tso_s", [ "litmus.tso" ]);
    ("litmus.pso_s", [ "litmus.pso" ]);
    ("all_run.execute_s", [ "all_run.execute" ]);
    ("upsets.compute_s", [ "upsets.compute" ]);
    ("s_run.execute_s", [ "s_run.execute" ]);
    ("indistinguishability.check_s", [ "indistinguishability.check" ]);
  ]

let unit_of name =
  match List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer) with
  | Some x -> x.unit_
  | None -> invalid_arg ("Catalog.unit_of: " ^ name)
