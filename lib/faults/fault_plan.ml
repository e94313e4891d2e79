type injector =
  | Crash_stop of { pid : int; after : int }
  | Crash_recover of { pid : int; after : int; restart : int }
  | Spurious_sc_rate of float
  | Spurious_sc_at of { pid : int; at : int list }
  | Delay of { pid : int; from_step : int; duration : int }
  | Stall_region of { regs : int list; from_step : int; duration : int }

type t = { name : string; injectors : injector list }

let none = { name = "none"; injectors = [] }
let injectors t = t.injectors
let name t = t.name

let crash_stop ~pid ~after =
  if after < 0 then invalid_arg "Fault_plan.crash_stop: negative step count";
  { name = Printf.sprintf "crash-stop(p%d@%d)" pid after; injectors = [ Crash_stop { pid; after } ] }

let crash_recover ~pid ~after ~restart =
  if after < 0 || restart <= 0 then
    invalid_arg "Fault_plan.crash_recover: after must be >= 0 and restart > 0";
  {
    name = Printf.sprintf "crash-recover(p%d@%d+%d)" pid after restart;
    injectors = [ Crash_recover { pid; after; restart } ];
  }

let spurious_sc_rate rate =
  if rate < 0.0 || rate > 1.0 then invalid_arg "Fault_plan.spurious_sc_rate: rate outside [0, 1]";
  { name = Printf.sprintf "spurious-sc(%.2f)" rate; injectors = [ Spurious_sc_rate rate ] }

let spurious_sc_at ~pid ~at =
  if List.exists (fun k -> k <= 0) at then
    invalid_arg "Fault_plan.spurious_sc_at: SC indices are 1-based";
  {
    name =
      Printf.sprintf "spurious-sc(p%d@{%s})" pid (String.concat "," (List.map string_of_int at));
    injectors = [ Spurious_sc_at { pid; at = List.sort_uniq Int.compare at } ];
  }

let delay ~pid ~from_step ~duration =
  if from_step < 0 || duration <= 0 then
    invalid_arg "Fault_plan.delay: from_step must be >= 0 and duration > 0";
  {
    name = Printf.sprintf "delay(p%d@[%d,%d))" pid from_step (from_step + duration);
    injectors = [ Delay { pid; from_step; duration } ];
  }

let stall_region ~regs ~from_step ~duration =
  if from_step < 0 || duration <= 0 then
    invalid_arg "Fault_plan.stall_region: from_step must be >= 0 and duration > 0";
  {
    name =
      Printf.sprintf "stall({%s}@[%d,%d))"
        (String.concat "," (List.map (Printf.sprintf "R%d") regs))
        from_step (from_step + duration);
    injectors = [ Stall_region { regs; from_step; duration } ];
  }

let compose ?name plans =
  let injectors = List.concat_map (fun p -> p.injectors) plans in
  let name =
    match name with
    | Some n -> n
    | None -> (
      match plans with
      | [] -> "none"
      | _ -> String.concat " + " (List.map (fun p -> p.name) plans))
  in
  { name; injectors }

(* The run horizon a plan needs beyond the workload itself: delay and stall
   windows must be allowed to expire, crash-recovery restart countdowns to
   elapse, before the driver may conclude that a process starved. *)
let horizon t =
  List.fold_left
    (fun acc -> function
      | Crash_stop _ | Spurious_sc_rate _ | Spurious_sc_at _ -> acc
      | Crash_recover { after; restart; _ } -> max acc (after + restart + 1)
      | Delay { from_step; duration; _ } | Stall_region { from_step; duration; _ } ->
        max acc (from_step + duration + 1))
    0 t.injectors

let has_crash t =
  List.exists
    (function
      | Crash_stop _ | Crash_recover _ -> true
      | Spurious_sc_rate _ | Spurious_sc_at _ | Delay _ | Stall_region _ -> false)
    t.injectors

let has_spurious t =
  List.exists
    (function
      | Spurious_sc_rate r -> r > 0.0
      | Spurious_sc_at _ -> true
      | Crash_stop _ | Crash_recover _ | Delay _ | Stall_region _ -> false)
    t.injectors

let crash_stopped t =
  List.filter_map
    (function
      | Crash_stop { pid; _ } -> Some pid
      | Crash_recover _ | Spurious_sc_rate _ | Spurious_sc_at _ | Delay _ | Stall_region _ ->
        None)
    t.injectors
  |> List.sort_uniq Int.compare

let crash_recovering t =
  List.filter_map
    (function
      | Crash_recover { pid; _ } -> Some pid
      | Crash_stop _ | Spurious_sc_rate _ | Spurious_sc_at _ | Delay _ | Stall_region _ -> None)
    t.injectors
  |> List.sort_uniq Int.compare

let pp_injector ppf = function
  | Crash_stop { pid; after } -> Format.fprintf ppf "crash-stop p%d after %d steps" pid after
  | Crash_recover { pid; after; restart } ->
    Format.fprintf ppf "crash p%d after %d steps, recover %d steps later" pid after restart
  | Spurious_sc_rate rate -> Format.fprintf ppf "spurious SC failure at rate %.2f" rate
  | Spurious_sc_at { pid; at } ->
    Format.fprintf ppf "spurious SC failure for p%d's SC #%s" pid
      (String.concat ",#" (List.map string_of_int at))
  | Delay { pid; from_step; duration } ->
    Format.fprintf ppf "delay p%d during steps [%d, %d)" pid from_step (from_step + duration)
  | Stall_region { regs; from_step; duration } ->
    Format.fprintf ppf "stall {%s} during steps [%d, %d)"
      (String.concat ", " (List.map (Printf.sprintf "R%d") regs))
      from_step (from_step + duration)

let pp ppf t =
  match t.injectors with
  | [] -> Format.fprintf ppf "%s (no faults)" t.name
  | injectors ->
    Format.fprintf ppf "%s:@ %a" t.name
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
         pp_injector)
      injectors

(* ---- the canonical named plans (the CLI's plan grammar) ---- *)

let named ~n =
  let crash_stop_plan =
    compose ~name:"crash-stop"
      (crash_stop ~pid:0 ~after:1
      :: (if n >= 4 then [ crash_stop ~pid:1 ~after:3 ] else []))
  in
  [
    ("none", none);
    (crash_stop_plan.name, crash_stop_plan);
    ( "crash-recover",
      compose ~name:"crash-recover" [ crash_recover ~pid:0 ~after:2 ~restart:(6 * n) ] );
    ("spurious-sc", compose ~name:"spurious-sc" [ spurious_sc_rate 0.1 ]);
    ("delay", compose ~name:"delay" [ delay ~pid:0 ~from_step:3 ~duration:(4 * n) ]);
    ("stall", compose ~name:"stall" [ stall_region ~regs:[ 0; 1 ] ~from_step:2 ~duration:(2 * n) ]);
    ( "chaos",
      compose ~name:"chaos"
        ([ spurious_sc_rate 0.05; delay ~pid:0 ~from_step:2 ~duration:(2 * n) ]
        @ (if n >= 3 then [ crash_stop ~pid:1 ~after:3 ] else [])) );
  ]

(* A name is either one named plan or several joined with '+'; the
   composite keeps the user's spelling as its name. *)
let of_name ~n name =
  let find one = List.assoc_opt one (named ~n) in
  match String.split_on_char '+' name with
  | [ one ] -> find one
  | parts ->
    let resolved = List.map find parts in
    if List.exists Option.is_none resolved then None
    else Some (compose ~name (List.filter_map Fun.id resolved))

let plan_names = [ "none"; "crash-stop"; "crash-recover"; "spurious-sc"; "delay"; "stall"; "chaos" ]
