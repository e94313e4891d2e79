(* The hardware workload driver: the multicore counterpart of
   {!Lb_universal.Harness}.  One OCaml domain per process, a seeded
   per-domain coin, per-domain ring-buffer recorders, and a recorded
   history handed to the simulator-side Wing–Gong checker — the
   simulator certifies the hardware run. *)

open Lb_memory
open Lb_runtime
open Lb_universal

type op_stat = {
  pid : int;
  seq : int;
  op : Value.t;
  response : Value.t;
  invoked_s : float;
  responded_s : float;
  cost : int;
}

type op_failure = {
  pid : int;
  seq : int;
  op : Value.t;
  reason : string;
  invoked_s : float;
}

type result = {
  n : int;
  stats : op_stat list;
  failures : op_failure list;
  elapsed_s : float;
  total_shared_ops : int;
  max_shared_ops : int;
  max_cost : int;
  mean_cost : float;
  history : Lb_objects.History.t;
}

(* A counting start barrier: every participant decrements, then spins
   until the count reaches zero.  Domains are released as closely
   together as the machine allows, so the measured window is contended
   from its first operation. *)
let barrier_wait b =
  ignore (Atomic.fetch_and_add b (-1));
  while Atomic.get b > 0 do
    Domain.cpu_relax ()
  done

(* Wall-clock timestamps are floats with platform-dependent granularity:
   two distinct events can carry the same stamp, and fabricating an
   order between them would assert a real-time precedence that was never
   observed — enough to make a genuinely linearizable history fail the
   check.  So equal stamps map to the same integer rank. *)
let rank_of_times times =
  let sorted = List.sort_uniq compare times in
  let tbl = Hashtbl.create (List.length sorted) in
  List.iteri (fun i t -> Hashtbl.replace tbl t i) sorted;
  fun t -> Hashtbl.find tbl t

let build_history ~(stats : op_stat list) ~(failures : op_failure list) : Lb_objects.History.t =
  let module H = Lb_objects.History in
  let times =
    List.concat_map (fun (s : op_stat) -> [ s.invoked_s; s.responded_s ]) stats
    @ List.map (fun (f : op_failure) -> f.invoked_s) failures
  in
  let rank = rank_of_times times in
  let completed =
    List.map
      (fun (s : op_stat) ->
        H.completed_op ~pid:s.pid ~seq:s.seq ~op:s.op ~response:s.response
          ~invoked:(rank s.invoked_s) ~responded:(rank s.responded_s))
      stats
  in
  let pending =
    (* A give-up may still have published effects (helped by others), so
       it stays in the history as an optional occurrence. *)
    List.map
      (fun (f : op_failure) ->
        H.pending_op ~pid:f.pid ~seq:f.seq ~op:f.op ~invoked:(rank f.invoked_s))
      failures
  in
  List.sort
    (fun (a : H.op) b -> compare (a.invoked, a.pid, a.seq) (b.invoked, b.pid, b.seq))
    (completed @ pending)

let history_of ~stats ~failures = build_history ~stats ~failures

let run_handle ~memory ~(handle : Iface.handle) ~n ~(ops : int -> Value.t list)
    ?(assignment = Coin.constant 0) () =
  if n <= 0 then invalid_arg "Hw_harness.run_handle: n must be positive";
  if n > Hw_memory.n memory then
    invalid_arg "Hw_harness.run_handle: more processes than the memory was created for";
  let queues = Array.init n ops in
  let recorders = Array.map (fun q -> Recorder.create ~capacity:(List.length q)) queues in
  let barrier = Atomic.make n in
  let body pid () =
    let recorder = recorders.(pid) in
    let failures = ref [] in
    barrier_wait barrier;
    List.iteri
      (fun seq op ->
        let before = Hw_memory.ops_of memory ~pid in
        let invoked = Unix.gettimeofday () in
        match Hw_run.exec memory ~pid ~assignment (handle.Iface.apply ~pid ~seq op) with
        | response ->
          let responded = Unix.gettimeofday () in
          Recorder.record recorder ~seq ~op ~response ~invoked ~responded
            ~cost:(Hw_memory.ops_of memory ~pid - before)
        | exception Failure reason ->
          failures := { pid; seq; op; reason; invoked_s = invoked } :: !failures)
      queues.(pid);
    List.rev !failures
  in
  let domains = Array.init n (fun pid -> Domain.spawn (body pid)) in
  let failures = Array.to_list domains |> List.concat_map Domain.join in
  let stats =
    List.concat
      (List.init n (fun pid ->
           List.map
             (fun (e : Recorder.entry) ->
               {
                 pid;
                 seq = e.seq;
                 op = e.op;
                 response = e.response;
                 invoked_s = e.invoked;
                 responded_s = e.responded;
                 cost = e.cost;
               })
             (Recorder.entries recorders.(pid))))
  in
  let stats =
    List.sort
      (fun (a : op_stat) (b : op_stat) ->
        compare (a.invoked_s, a.responded_s, a.pid, a.seq) (b.invoked_s, b.responded_s, b.pid, b.seq))
      stats
  in
  let elapsed_s =
    match stats with
    | [] -> 0.0
    | first :: _ ->
      let last_response =
        List.fold_left (fun acc s -> Float.max acc s.responded_s) first.responded_s stats
      in
      last_response -. first.invoked_s
  in
  let max_cost = List.fold_left (fun acc s -> max acc s.cost) 0 stats in
  let mean_cost =
    match stats with
    | [] -> 0.0
    | _ ->
      float_of_int (List.fold_left (fun acc s -> acc + s.cost) 0 stats)
      /. float_of_int (List.length stats)
  in
  {
    n;
    stats;
    failures;
    elapsed_s;
    total_shared_ops = Hw_memory.total_ops memory;
    max_shared_ops = Hw_memory.max_ops memory;
    max_cost;
    mean_cost;
    history = build_history ~stats ~failures;
  }

let run ~(construction : Iface.t) ~spec ~n ~ops ?seed () =
  let layout = Layout.create () in
  let handle = construction.Iface.create layout ~n spec in
  let memory = Hw_memory.of_layout layout ~n () in
  let assignment =
    match seed with None -> Coin.constant 0 | Some seed -> Coin.uniform ~seed
  in
  run_handle ~memory ~handle ~n ~ops ~assignment ()

let check ?max_states ~spec result = Lb_objects.Linearize.check ?max_states spec result.history

let is_linearizable ?max_states ~spec result =
  Lb_objects.Linearize.is_linearizable ?max_states spec result.history

(* ---- wakeup algorithms on hardware ---- *)

type wakeup_result = {
  wn : int;
  results : (int * int) list;  (** (pid, returned bit), in pid order. *)
  welapsed_s : float;
  wtotal_shared_ops : int;
  wmax_shared_ops : int;
  issues : string list;
}

let run_wakeup ~(make : n:int -> (int -> int Program.t) * (int * Value.t) list) ~n ?seed () =
  if n <= 0 then invalid_arg "Hw_harness.run_wakeup: n must be positive";
  let program_of, inits = make ~n in
  let max_init = List.fold_left (fun acc (r, _) -> max acc r) (-1) inits in
  (* The direct algorithms address fixed indices rather than a Layout:
     tree-collect tops out below 4n, so 8n + 64 leaves ample slack. *)
  let registers = max (max_init + 1) ((8 * max n 2) + 64) in
  let memory = Hw_memory.create ~registers ~n () in
  List.iter (fun (r, v) -> Hw_memory.set_init memory r v) inits;
  let assignment =
    match seed with None -> Coin.constant 0 | Some seed -> Coin.uniform ~seed
  in
  let barrier = Atomic.make n in
  let body pid () =
    barrier_wait barrier;
    let t0 = Unix.gettimeofday () in
    let result = Hw_run.exec memory ~pid ~assignment (program_of pid) in
    (result, Unix.gettimeofday () -. t0)
  in
  let domains = Array.init n (fun pid -> Domain.spawn (body pid)) in
  let joined = Array.map Domain.join domains in
  let results = Array.to_list (Array.mapi (fun pid (r, _) -> (pid, r)) joined) in
  let welapsed_s = Array.fold_left (fun acc (_, dt) -> Float.max acc dt) 0.0 joined in
  (* Conditions checkable without the simulator's round structure: every
     process decides a bit, and — since all n processes participated —
     somebody must answer "awake". *)
  let issues =
    List.concat_map
      (fun (pid, r) ->
        if r = 0 || r = 1 then []
        else [ Printf.sprintf "p%d returned %d (not a bit)" pid r ])
      results
    @ (if List.exists (fun (_, r) -> r = 1) results then []
       else [ "no process returned 1 with all n awake" ])
  in
  {
    wn = n;
    results;
    welapsed_s;
    wtotal_shared_ops = Hw_memory.total_ops memory;
    wmax_shared_ops = Hw_memory.max_ops memory;
    issues;
  }
