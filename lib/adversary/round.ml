open Lb_memory
open Lb_secretive

type event = { pid : int; invocation : Op.invocation; response : Op.response; phase : int }

type 'a proc_obs = { tosses : int; ops : int; result : 'a option }

type 'a t = {
  index : int;
  participants : int list;
  events : event list;
  move_spec : Move_spec.t;
  sigma : int list;
  procs : 'a proc_obs array;
  regs : (int * (Value.t * Ids.t)) list;
  by_pid : event option array;
}

let make ~index ~participants ~events ~move_spec ~sigma ~procs ~regs =
  let by_pid = Array.make (Array.length procs) None in
  List.iter (fun e -> by_pid.(e.pid) <- Some e) events;
  { index; participants; events; move_spec; sigma; procs; regs; by_pid }

let events_in_phase t phase = List.filter (fun e -> e.phase = phase) t.events

let event_of t pid = if pid < 0 || pid >= Array.length t.by_pid then None else t.by_pid.(pid)

let targets reg e = match e.invocation with Op.Fence -> false | inv -> Op.target inv = reg

let sc_winner evs =
  List.find_map
    (fun e ->
      match e.invocation, e.response with
      | Op.Sc _, Op.Flagged (true, _) -> Some e.pid
      | _, _ -> None)
    evs

let swappers_in evs =
  List.filter_map (fun e -> match e.invocation with Op.Swap _ -> Some e.pid | _ -> None) evs

let successful_sc t ~reg = sc_winner (List.filter (targets reg) t.events)
let swappers t ~reg = swappers_in (List.filter (targets reg) t.events)

let by_register t =
  let keyed =
    List.filter_map
      (fun e -> match e.invocation with Op.Fence -> None | inv -> Some (Op.target inv, e))
      t.events
  in
  let rec group acc = function
    | [] -> List.rev acc
    | (reg, e) :: rest ->
      let rec take evs = function
        | (r, e) :: rest when r = reg -> take (e :: evs) rest
        | rest -> (List.rev evs, rest)
      in
      let evs, rest = take [ e ] rest in
      group ((reg, evs) :: acc) rest
  in
  group [] (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) keyed)

let reg_state t r = List.assoc_opt r t.regs

let obs t pid =
  if pid < 0 || pid >= Array.length t.procs then
    invalid_arg (Printf.sprintf "Round.obs: unknown pid %d" pid);
  t.procs.(pid)

let iter_paired f xs ys =
  let rec go r xs ys =
    match xs, ys with
    | x :: xs, y :: ys ->
      f r x y;
      go (r + 1) xs ys
    | [], _ | _, [] -> ()
  in
  go 1 xs ys

let pp ppf t =
  Format.fprintf ppf "@[<v 2>round %d (participants %a):" t.index
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") Format.pp_print_int)
    t.participants;
  List.iter
    (fun e ->
      Format.fprintf ppf "@ [ph%d] p%d: %a -> %a" e.phase e.pid Op.pp_invocation e.invocation
        Op.pp_response e.response)
    t.events;
  Format.fprintf ppf "@]"
