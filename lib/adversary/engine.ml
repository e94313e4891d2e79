open Lb_memory
open Lb_secretive
open Lb_runtime

type 'a t = {
  n : int;
  memory : Memory.t;
  procs : 'a Process.t array;
  assignment : Coin.assignment;
  mutable rounds : 'a Round.t list; (* newest first *)
  mutable round_index : int;
}

let start ~n ~program_of ~assignment ~inits =
  if n <= 0 then invalid_arg "Engine.start: n must be positive";
  let memory = Memory.create () in
  Lb_observe.Tracer.attach_memory memory;
  List.iter (fun (r, v) -> Memory.set_init memory r v) inits;
  {
    n;
    memory;
    procs = Array.init n (fun i -> Process.create ~id:i (program_of i));
    assignment;
    rounds = [];
    round_index = 0;
  }

let memory t = t.memory

let process t pid =
  if pid < 0 || pid >= t.n then invalid_arg (Printf.sprintf "Engine.process: pid %d" pid);
  t.procs.(pid)

let rounds t = List.rev t.rounds

let all_terminated t = Array.for_all Process.is_terminated t.procs

let exec_round t ~select ~move_order =
  t.round_index <- t.round_index + 1;
  let index = t.round_index in
  if Lb_observe.Tracer.active () then
    Lb_observe.Tracer.record (Lb_observe.Event.Round { index });
  (* Phase 1: local coin tosses for selected, non-terminated processes. *)
  let participants = ref [] in
  Array.iter
    (fun p ->
      let pid = Process.id p in
      if select pid && not (Process.is_terminated p) then begin
        Process.advance_local p t.assignment;
        if not (Process.is_terminated p) then participants := pid :: !participants
      end)
    t.procs;
  let participants = List.rev !participants in
  (* Partition by the kind of the pending operation. *)
  let pending pid =
    match Process.pending_op t.procs.(pid) with
    | Some inv -> inv
    | None -> assert false (* participants are exactly the op-blocked processes *)
  in
  let of_kind k = List.filter (fun pid -> Op.kind (pending pid) = k) participants in
  let reads = of_kind Op.Read in
  let movers = of_kind Op.Move_kind in
  let swaps = of_kind Op.Swap_kind in
  let scs = of_kind Op.Sc_kind in
  let move_spec =
    Move_spec.of_list
      (List.map
         (fun pid ->
           match pending pid with
           | Op.Move (src, dst) -> (pid, (src, dst))
           | Op.Ll _ | Op.Sc _ | Op.Validate _ | Op.Swap _ | Op.Write _ | Op.Fence ->
             assert false)
         movers)
  in
  let sigma = move_order move_spec in
  if List.sort Int.compare sigma <> Move_spec.procs move_spec then
    invalid_arg "Engine.exec_round: move_order did not return a complete schedule";
  (* Phases 2-5. *)
  let events = ref [] in
  let fire phase pid =
    let invocation, response = Process.exec_op t.procs.(pid) t.memory ~round:index in
    events := { Round.pid; invocation; response; phase } :: !events
  in
  List.iter (fire 2) reads;
  List.iter (fire 3) sigma;
  List.iter (fire 4) swaps;
  List.iter (fire 5) scs;
  let procs =
    Array.map
      (fun p ->
        {
          Round.tosses = Process.num_tosses p;
          ops = Process.shared_ops p;
          result =
            (match Process.status p with
            | Process.Terminated x -> Some x
            | Process.Running -> None);
        })
      t.procs
  in
  let round =
    Round.make ~index ~participants ~events:(List.rev !events) ~move_spec ~sigma ~procs
      ~regs:(Memory.snapshot t.memory)
  in
  t.rounds <- round :: t.rounds;
  round

let results t =
  Array.to_list t.procs
  |> List.filter_map (fun p ->
         match Process.status p with
         | Process.Terminated x -> Some (Process.id p, x)
         | Process.Running -> None)
