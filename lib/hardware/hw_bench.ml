(* The hardware benchmark sweep: wall-clock ns-per-op and throughput for
   each construction across process counts, in Bench_gate-compatible
   rows.  The measured latency curve is the hardware face of the paper's
   Θ(log n) shared-access bound; the per-op access costs recorded
   alongside are the direct cross-check against the simulator's
   counts. *)

open Lb_memory
open Lb_universal
module Json = Lb_observe.Json

type row = {
  construction : string;
  n : int;
  ops_per_process : int;
  completed : int;
  failed : int;
  ns_per_op : float;  (** mean per-op latency (invocation to response). *)
  ops_per_s : float;  (** completed ops / wall-clock window. *)
  max_cost : int;
  mean_cost : float;
  linearizable : bool option;  (** [None]: history check skipped or budget-exhausted. *)
}

let default_ns () =
  let available = Domain.recommended_domain_count () in
  List.sort_uniq compare (List.filter (fun n -> n > 0) [ 1; 2; 4; 8; available ])

let spec = Lb_objects.Counters.fetch_inc ~bits:62

let measure ?(check = false) ?max_states ~construction ~n ~ops_per_process ~seed () =
  let result =
    Hw_harness.run ~construction ~spec ~n
      ~ops:(fun _ -> List.init ops_per_process (fun _ -> Value.Unit))
      ~seed ()
  in
  let completed = List.length result.Hw_harness.stats in
  let mean_latency =
    match result.Hw_harness.stats with
    | [] -> 0.0
    | stats ->
      List.fold_left (fun acc (s : Hw_harness.op_stat) -> acc +. (s.responded_s -. s.invoked_s)) 0.0 stats
      /. float_of_int completed
  in
  let linearizable =
    if not check then None
    else
      match Hw_harness.check ?max_states ~spec result with
      | Lb_objects.Linearize.Linearizable _ -> Some true
      | Lb_objects.Linearize.Not_linearizable _ -> Some false
      | Lb_objects.Linearize.Budget_exhausted _ -> None
  in
  {
    construction = construction.Iface.name;
    n;
    ops_per_process;
    completed;
    failed = List.length result.Hw_harness.failures;
    ns_per_op = mean_latency *. 1e9;
    ops_per_s =
      (if result.Hw_harness.elapsed_s > 0.0 then
         float_of_int completed /. result.Hw_harness.elapsed_s
       else 0.0);
    max_cost = result.Hw_harness.max_cost;
    mean_cost = result.Hw_harness.mean_cost;
    linearizable;
  }

let sweep ?(ops_per_process = 256) ?(seed = 1) ?check ~constructions ~ns () =
  List.concat_map
    (fun construction ->
      List.map
        (fun n -> measure ?check ~construction ~n ~ops_per_process ~seed ())
        ns)
    constructions

let row_name r = Printf.sprintf "hardware/%s/%d" r.construction r.n

(* Bench_gate reads [name] + [ns_per_run]; everything else rides along
   for humans and charts.  Throughput is deliberately an extra field and
   not its own gated row: the gate fails on increases, and a throughput
   increase is an improvement. *)
let row_json r =
  Json.Obj
    [
      ("name", Json.Str (row_name r));
      ("ns_per_run", Json.Float r.ns_per_op);
      ("ops_per_s", Json.Float r.ops_per_s);
      ("n", Json.Int r.n);
      ("ops_per_process", Json.Int r.ops_per_process);
      ("completed", Json.Int r.completed);
      ("failed", Json.Int r.failed);
      ("max_cost", Json.Int r.max_cost);
      ("mean_cost", Json.Float r.mean_cost);
      ( "linearizable",
        match r.linearizable with None -> Json.Null | Some b -> Json.Bool b );
    ]

let payload rows = Json.Obj [ ("benchmarks", Json.Arr (List.map row_json rows)) ]

let append ?dir rows =
  let meta =
    [
      ("available_domains", Json.Int (Domain.recommended_domain_count ()));
      ("spec", Json.Str spec.Lb_objects.Spec.name);
    ]
  in
  Lb_observe.Bench_out.append ?dir ~suite:"hardware" ~meta (payload rows)
