open Lb_memory
open Lb_runtime

(* Wakeup certification: System-based, with run diagnostics. *)

type status = Certified | Degraded | Violated

type wakeup_report = {
  algorithm : string;
  wplan : Fault_plan.t;
  wn : int;
  wseed : int;
  wstatus : status;
  wreasons : string list;
  wnotes : string list;
  diagnostics : System.diagnostics;
  results : (int * int) list; (* terminated pid -> returned value *)
  woke : int list;
  crashed_pids : int list;
  false_claim : bool;
}

let run_wakeup ~algorithm ~make ~plan ~n ?(seed = 1) ?(randomized = false) () =
  if n <= 0 then invalid_arg "Certify.run_wakeup: n must be positive";
  let program_of, inits = make ~n in
  let memory = Memory.create () in
  List.iter (fun (r, v) -> Memory.set_init memory r v) inits;
  let engine = Fault_engine.instantiate ~seed plan in
  Fault_engine.arm engine memory;
  let assignment = if randomized then Coin.uniform ~seed else Coin.constant 0 in
  let sys = System.create ~memory ~assignment ~n program_of in
  let pending pid = Process.pending_op (System.process sys pid) in
  let choice = Fault_engine.choice engine ~pending Scheduler.round_robin in
  let diagnostics =
    System.run_diagnosed sys choice ~fuel:((1000 * n) + Fault_plan.horizon plan)
  in
  let results =
    System.results sys |> Array.to_list
    |> List.mapi (fun pid r -> Option.map (fun v -> (pid, v)) r)
    |> List.filter_map Fun.id
  in
  let woke = List.filter_map (fun (pid, v) -> if v = 1 then Some pid else None) results in
  let crashed_pids = Ids.elements (Fault_engine.crashed engine) in
  let zero_step =
    List.filter_map
      (fun (pid, k) ->
        if k = 0 && List.mem pid diagnostics.System.unfinished then Some pid else None)
      diagnostics.System.ops_per_process
  in
  let reasons = ref [] and notes = ref [] in
  let violation fmt = Printf.ksprintf (fun s -> reasons := s :: !reasons) fmt in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  List.iter
    (fun (pid, v) -> if v <> 0 && v <> 1 then violation "p%d returned %d (not 0/1)" pid v)
    results;
  (match woke, zero_step with
  | winner :: _, _ :: _ ->
    violation "p%d claimed wakeup while {%s} never took a shared-memory step" winner
      (String.concat ", " (List.map (Printf.sprintf "p%d") zero_step))
  | _, _ -> ());
  List.iter
    (fun pid ->
      if not (List.mem pid crashed_pids) then
        violation "survivor p%d did not terminate (%s)" pid
          (Format.asprintf "%a" System.pp_outcome diagnostics.System.outcome))
    diagnostics.System.unfinished;
  if crashed_pids <> [] && woke = [] && !reasons = [] then
    note "wakeup unattained under crashes — survivors declined to claim it (graceful)";
  let wstatus = if !reasons <> [] then Violated else if !notes <> [] then Degraded else Certified in
  {
    algorithm;
    wplan = plan;
    wn = n;
    wseed = seed;
    wstatus;
    wreasons = List.rev !reasons;
    wnotes = List.rev !notes;
    diagnostics;
    results;
    woke;
    crashed_pids;
    false_claim = woke <> [] && zero_step <> [];
  }

(* ---- printing ---- *)

let status_string = function
  | Certified -> "CERTIFIED"
  | Degraded -> "DEGRADED"
  | Violated -> "VIOLATED"

let pp_status ppf s = Format.pp_print_string ppf (status_string s)

let pp_wakeup_report ppf r =
  Format.fprintf ppf "@[<v>%s under %s (n = %d, seed = %d): %a@ " r.algorithm
    (Fault_plan.name r.wplan) r.wn r.wseed pp_status r.wstatus;
  (* The run line is the diagnostics rendered as its Run_end trace event, so
     a wakeup verdict and a recorded trace end on the same summary. *)
  Format.fprintf ppf "run: %a@ " Lb_observe.Event.pp (System.diagnostics_event r.diagnostics);
  Format.fprintf ppf "woke: {%s}; crashed: {%s}@ "
    (String.concat ", " (List.map (Printf.sprintf "p%d") r.woke))
    (String.concat ", " (List.map (Printf.sprintf "p%d") r.crashed_pids));
  List.iter (fun s -> Format.fprintf ppf "violation: %s@ " s) r.wreasons;
  List.iter (fun s -> Format.fprintf ppf "note: %s@ " s) r.wnotes;
  Format.fprintf ppf "@]"
