open Lb_memory
open Lb_runtime

type op_stat = {
  pid : int;
  seq : int;
  op : Value.t;
  response : Value.t;
  invoked : int;
  responded : int;
  cost : int;
}

type op_failure = {
  pid : int;
  seq : int;
  op : Value.t;
  reason : string;
  cost : int;
  invoked : int;
  gave_up : int;
}

type op_in_flight = {
  pid : int;
  seq : int;
  op : Value.t;
  invoked : int;
  cost : int;
}

type fault_hooks = {
  filter :
    step:int -> pending:(int -> Op.invocation option) -> runnable:int list -> int list;
  note_step : step:int -> pid:int -> unit;
  recover : step:int -> int list;
  may_unblock : step:int -> bool;
}

type result = {
  stats : op_stat list;
  failures : op_failure list;
  in_flight : op_in_flight list;
  restarts : int;
  restarted : (int * int) list;
  max_cost : int;
  mean_cost : float;
  total_shared_ops : int;
  completed : bool;
  largest_register : int;
  history : Lb_objects.History.t;
}

(* Per-process driver state: the current operation runs in a fresh
   [Process.t] so its shared-op count is exactly the operation's cost.
   [lost] accumulates the shared ops of attempts abandoned by a
   crash-recovery restart, so the final stat still accounts every operation
   toward the paper's t(R). *)
type slot = {
  pid : int;
  mutable queue : Value.t list;
  mutable seq : int;
  mutable current : (Value.t * Value.t Process.t * int (* invoked at *)) option;
  mutable lost : int;
}

let run_handle ~memory ~handle ~n ~ops ?(scheduler = Scheduler.round_robin)
    ?(assignment = Coin.constant 0) ?fuel ?hooks () =
  Lb_observe.Tracer.attach_memory memory;
  let slots =
    Array.init n (fun pid -> { pid; queue = ops pid; seq = 0; current = None; lost = 0 })
  in
  (* The clock ticks at every invocation, every shared-memory operation, and
     every response, so distinct events never share a timestamp and the
     real-time precedence fed to the linearizability checker is exact. *)
  let clock = ref 0 in
  let tick () =
    incr clock;
    !clock
  in
  let stats = ref [] in
  let failures = ref [] in
  let restarts = ref 0 in
  let restarted = ref [] in
  let start_next slot =
    match slot.queue with
    | [] -> ()
    | op :: rest ->
      slot.queue <- rest;
      let program = handle.Iface.apply ~pid:slot.pid ~seq:slot.seq op in
      if Lb_observe.Tracer.active () then
        Lb_observe.Tracer.record
          (Lb_observe.Event.Op_invoked { pid = slot.pid; seq = slot.seq; op });
      slot.current <- Some (op, Process.create ~id:slot.pid program, tick ());
      slot.lost <- 0;
      slot.seq <- slot.seq + 1
  in
  Array.iter start_next slots;
  let finish slot op (proc : Value.t Process.t) invoked response =
    let cost = Process.shared_ops proc + slot.lost in
    Lb_observe.Metrics.observe_int (Lb_observe.Metrics.current ()) "harness.op_cost" cost;
    Lb_observe.Metrics.incr (Lb_observe.Metrics.current ()) "harness.ops_completed";
    if Lb_observe.Tracer.active () then
      Lb_observe.Tracer.record
        (Lb_observe.Event.Op_completed
           { pid = slot.pid; seq = slot.seq - 1; op; response; cost });
    stats :=
      {
        pid = slot.pid;
        seq = slot.seq - 1;
        op;
        response;
        invoked;
        responded = tick ();
        cost;
      }
      :: !stats;
    slot.current <- None;
    start_next slot
  in
  let fail slot op (proc : Value.t Process.t) invoked reason =
    let cost = Process.shared_ops proc + slot.lost in
    Lb_observe.Metrics.incr (Lb_observe.Metrics.current ()) "harness.ops_failed";
    if Lb_observe.Tracer.active () then
      Lb_observe.Tracer.record
        (Lb_observe.Event.Op_failed { pid = slot.pid; seq = slot.seq - 1; op; reason; cost });
    failures :=
      {
        pid = slot.pid;
        seq = slot.seq - 1;
        op;
        reason;
        cost;
        invoked;
        gave_up = tick ();
      }
      :: !failures;
    slot.current <- None;
    start_next slot
  in
  (* Advance a slot's process through its local coin tosses; operations that
     terminate on local steps alone (zero shared cost) complete here, which
     may immediately start — and settle — the slot's next operation. *)
  let rec settle slot =
    match slot.current with
    | None -> ()
    | Some (op, proc, invoked) ->
      Process.advance_local proc assignment;
      (match Process.status proc with
      | Process.Terminated response ->
        finish slot op proc invoked response;
        settle slot
      | Process.Running -> ())
  in
  let runnable () =
    Array.iter settle slots;
    Array.to_list slots |> List.filter_map (fun s -> Option.map (fun _ -> s.pid) s.current)
  in
  let pending pid =
    match slots.(pid).current with
    | Some (_, proc, _) -> Process.pending_op proc
    | None -> None
  in
  (* Crash-recovery restart: the in-flight operation is re-invoked from
     scratch with the same (pid, seq) descriptor — the model of a process
     that lost its volatile state and retries its pending operation. *)
  let restart pid =
    let slot = slots.(pid) in
    match slot.current with
    | None -> ()
    | Some (op, proc, invoked) ->
      slot.lost <- slot.lost + Process.shared_ops proc;
      let program = handle.Iface.apply ~pid ~seq:(slot.seq - 1) op in
      slot.current <- Some (op, Process.create ~id:pid program, invoked);
      Lb_observe.Metrics.incr (Lb_observe.Metrics.current ()) "harness.restarts";
      restarted := (pid, slot.seq - 1) :: !restarted;
      incr restarts
  in
  let total_ops = Array.fold_left (fun acc s -> acc + List.length s.queue + 1) 0 slots in
  let default_fuel = 64 * total_ops * (n + Adt_tree.levels n + 8) in
  let fuel = Option.value ~default:default_fuel fuel in
  let exec slot op proc invoked =
    match (try Ok (Process.exec_op proc memory ~round:(-1)) with Failure msg -> Error msg) with
    | Error msg -> fail slot op proc invoked msg
    | Ok _ ->
      ignore (tick ());
      (match Process.status proc with
      | Process.Terminated response -> finish slot op proc invoked response
      | Process.Running -> ())
  in
  let rec drive step remaining =
    (match hooks with
    | Some h -> List.iter restart (h.recover ~step)
    | None -> ());
    match runnable () with
    | [] ->
      (* Quiescent: every operation responded, so remaining buffered stores
         drain in a deterministic order no one can observe. *)
      Memory.drain_all memory;
      true
    | pids ->
      if remaining = 0 then false
      else (
        let allowed =
          match hooks with
          | Some h -> h.filter ~step ~pending ~runnable:pids
          | None -> pids
        in
        (* Under a relaxed memory model, enabled store-buffer flushes join
           the schedulable set as pseudo-pids
           ({!Lb_memory.Semantics.flush_id}), so schedulers and the DPOR
           oracle decide flush order like any other step.  Fault hooks never
           see pseudo-pids: faults target processes, and a flush is the
           memory acting, not a process. *)
        match allowed @ Memory.flush_ids memory ~n with
        | [] ->
          (* Everyone left is crashed, delayed or stalled.  Tick idly while a
             recovery or window expiry can still unblock the run. *)
          (match hooks with
          | Some h when h.may_unblock ~step -> drive (step + 1) (remaining - 1)
          | Some _ | None -> false)
        | _ :: _ as choices -> (
          match scheduler ~step ~runnable:choices with
          | None -> false
          | Some pid ->
            if Lb_observe.Tracer.active () then
              Lb_observe.Tracer.record
                (Lb_observe.Event.Sched { step; chosen = pid; runnable = choices });
            if pid >= n then begin
              let pid, reg = Semantics.flush_of_id ~n pid in
              Memory.flush memory ~pid ~reg
            end
            else begin
              let slot = slots.(pid) in
              match slot.current with
              | None -> assert false
              | Some (op, proc, invoked) ->
                exec slot op proc invoked;
                (match hooks with Some h -> h.note_step ~step ~pid | None -> ())
            end;
            drive (step + 1) (remaining - 1)))
  in
  let completed = drive 0 fuel in
  (* Operations still holding a slot when the run stopped (a crash-stopped
     pid, or fuel exhaustion) were invoked but never responded and never
     gave up.  They may have taken effect — e.g. a helping construction
     completes a crashed announcer's operation on its behalf — so the
     linearizability checker must see them as pending occurrences. *)
  let in_flight =
    Array.to_list slots
    |> List.filter_map (fun slot ->
           match slot.current with
           | None -> None
           | Some (op, proc, invoked) ->
             Some
               {
                 pid = slot.pid;
                 seq = slot.seq - 1;
                 op;
                 invoked;
                 cost = Process.shared_ops proc + slot.lost;
               })
  in
  let stats = List.rev !stats in
  let costs = List.map (fun (s : op_stat) -> s.cost) stats in
  let max_cost = List.fold_left max 0 costs in
  let mean_cost =
    if stats = [] then 0.0
    else float_of_int (List.fold_left ( + ) 0 costs) /. float_of_int (List.length stats)
  in
  let failures = List.rev !failures in
  let restarted = List.rev !restarted in
  (* Give-ups, like in-flight ops, may have taken effect (helped by
     others), so both enter the history as pending, not dropped. *)
  let history =
    let module H = Lb_objects.History in
    let base =
      List.map
        (fun (s : op_stat) ->
          H.completed_op ~pid:s.pid ~seq:s.seq ~op:s.op ~response:s.response ~invoked:s.invoked
            ~responded:s.responded)
        stats
      @ List.map
          (fun (f : op_failure) -> H.pending_op ~pid:f.pid ~seq:f.seq ~op:f.op ~invoked:f.invoked)
          failures
      @ List.map
          (fun (i : op_in_flight) -> H.pending_op ~pid:i.pid ~seq:i.seq ~op:i.op ~invoked:i.invoked)
          in_flight
    in
    H.by_invocation (base @ H.ghosts ~restarted base)
  in
  {
    stats;
    failures;
    in_flight;
    restarts = !restarts;
    restarted;
    max_cost;
    mean_cost;
    total_shared_ops = Memory.total_ops memory;
    completed;
    largest_register = Memory.largest_value_size memory;
    history;
  }

let run ~construction ~spec ~n ~ops ?scheduler ?fuel ?hooks () =
  let layout = Layout.create () in
  let handle = construction.Iface.create layout ~n spec in
  let memory = Memory.create () in
  Layout.install layout memory;
  run_handle ~memory ~handle ~n ~ops ?scheduler ?fuel ?hooks ()

let check_linearizable ~spec result =
  Lb_objects.Linearize.is_linearizable ~max_states:max_int spec result.history
