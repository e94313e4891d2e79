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
  restarts : int;
  max_cost : int;
  mean_cost : float;
  total_shared_ops : int;
  completed : bool;
  largest_register : int;
  history : Lb_objects.History.t;
}

(* The operation a slot is running: its program so far, the coin tosses
   and shared-memory operations this attempt made (the next toss's index,
   and the attempt's cost), and when it was invoked. *)
type attempt = {
  op : Value.t;
  program : Value.t Program.t;
  tosses : int;
  shared : int;
  invoked : int;
}

(* Per-process driver state.  [lost] accumulates the shared ops of attempts
   abandoned by a crash-recovery restart, so the final stat still accounts
   every operation toward the paper's t(R). *)
type slot = {
  pid : int;
  queue : Value.t list;
  seq : int;  (* the next operation's seq *)
  current : attempt option;
  lost : int;
}

type config = { memory : Memory.t; handle : Iface.handle; n : int; assignment : Coin.assignment }

(* What the run has recorded so far, newest first; it changes only at
   operation boundaries. *)
type records = {
  stats : op_stat list;
  failures : op_failure list;
  restarts : int;
  restarted : (int * int) list;
}

(* A run in progress, as a value: every field is immutable and [slots] is
   never written once the state is built, so keeping a state costs nothing
   and driving it again later continues the run from there.  The memory is
   the one mutable part; a runner that keeps states keeps
   {!Memory.checkpoint}s with them. *)
type state = {
  cfg : config;
  slots : slot array;
  runnable : int list;  (* the pids whose slot holds an operation, in order *)
  clock : int;
  records : records;
  step : int;
  fuel : int;
}

(* The edits of one step (or of the work before a decision), made in
   place; the next state is built from the draft once they are done, so
   a step allocates one state however many edits it makes.  [slots] is
   copied on its first write. *)
type draft = {
  d_cfg : config;
  mutable d_slots : slot array;
  mutable d_copied : bool;
  mutable d_runnable : int list option;  (* [None] once a slot starts or stops running *)
  mutable d_clock : int;
  mutable d_records : records;
}

let draft st =
  {
    d_cfg = st.cfg;
    d_slots = st.slots;
    d_copied = false;
    d_runnable = Some st.runnable;
    d_clock = st.clock;
    d_records = st.records;
  }

let changed st d = d.d_copied || d.d_clock <> st.clock || d.d_records != st.records

(* An unchanged runnable set keeps its list, so schedulers that store the
   choice sets they are offered (the DPOR tree, one per node) share it. *)
let freeze d ~step ~fuel =
  let runnable =
    match d.d_runnable with
    | Some pids -> pids
    | None ->
      Array.fold_right
        (fun (slot : slot) acc -> match slot.current with None -> acc | Some _ -> slot.pid :: acc)
        d.d_slots []
  in
  {
    cfg = d.d_cfg;
    slots = d.d_slots;
    runnable;
    clock = d.d_clock;
    records = d.d_records;
    step;
    fuel;
  }

let running (slot : slot) = match slot.current with None -> false | Some _ -> true

let set d (slot : slot) =
  if not d.d_copied then begin
    d.d_slots <- Array.copy d.d_slots;
    d.d_copied <- true
  end;
  if running slot <> running d.d_slots.(slot.pid) then d.d_runnable <- None;
  d.d_slots.(slot.pid) <- slot

(* The clock ticks at every invocation, every shared-memory operation, and
   every response, so distinct events never share a timestamp and the
   real-time precedence fed to the linearizability checker is exact. *)
let tick d =
  d.d_clock <- d.d_clock + 1;
  d.d_clock

let tracing = Lb_observe.Tracer.active
let trace = Lb_observe.Tracer.record

(* Invoke the slot's next operation, if any; either way the slot is
   written back. *)
let start_next d slot =
  match slot.queue with
  | [] -> set d slot
  | op :: queue ->
    let program = d.d_cfg.handle.Iface.apply ~pid:slot.pid ~seq:slot.seq op in
    if tracing () then trace (Lb_observe.Event.Op_invoked { pid = slot.pid; seq = slot.seq; op });
    let invoked = tick d in
    set d
      {
        slot with
        queue;
        seq = slot.seq + 1;
        current = Some { op; program; tosses = 0; shared = 0; invoked };
        lost = 0;
      }

let complete d slot (a : attempt) response =
  let cost = a.shared + slot.lost and seq = slot.seq - 1 in
  Lb_observe.Metrics.incr (Lb_observe.Metrics.current ()) "harness.ops_completed";
  if tracing () then
    trace (Lb_observe.Event.Op_completed { pid = slot.pid; seq; op = a.op; response; cost });
  let stat =
    { pid = slot.pid; seq; op = a.op; response; invoked = a.invoked; responded = tick d; cost }
  in
  d.d_records <- { d.d_records with stats = stat :: d.d_records.stats };
  start_next d { slot with current = None }

let give_up d slot (a : attempt) reason =
  let cost = a.shared + slot.lost and seq = slot.seq - 1 in
  Lb_observe.Metrics.incr (Lb_observe.Metrics.current ()) "harness.ops_failed";
  if tracing () then
    trace (Lb_observe.Event.Op_failed { pid = slot.pid; seq; op = a.op; reason; cost });
  let failure =
    { pid = slot.pid; seq; op = a.op; reason; cost; invoked = a.invoked; gave_up = tick d }
  in
  d.d_records <- { d.d_records with failures = failure :: d.d_records.failures };
  start_next d { slot with current = None }

let rec toss_through assignment pid (a : attempt) =
  match a.program with
  | Program.Toss k ->
    let idx = a.tosses in
    let outcome = assignment ~pid ~idx in
    if tracing () then trace (Lb_observe.Event.Coin_toss { pid; idx; outcome });
    toss_through assignment pid { a with program = k outcome; tosses = idx + 1 }
  | Program.Return _ | Program.Op _ -> a

(* Advance a slot's program through its local coin tosses; operations that
   terminate on local steps alone (zero shared cost) complete here, which
   may immediately start — and settle — the slot's next operation. *)
let rec settle d pid =
  let slot = d.d_slots.(pid) in
  match slot.current with
  | None | Some { program = Program.Op _; _ } -> ()
  | Some a -> (
    let a = toss_through d.d_cfg.assignment pid a in
    match a.program with
    | Program.Return response ->
      complete d slot a response;
      settle d pid
    | Program.Toss _ | Program.Op _ -> set d { slot with current = Some a })

let pending st pid =
  match st.slots.(pid).current with Some a -> Program.pending_op a.program | None -> None

(* Crash-recovery restart: the in-flight operation is re-invoked from
   scratch with the same (pid, seq) descriptor — the model of a process
   that lost its volatile state and retries its pending operation. *)
let restart d pid =
  let slot = d.d_slots.(pid) in
  match slot.current with
  | None -> ()
  | Some a ->
    let seq = slot.seq - 1 in
    let program = d.d_cfg.handle.Iface.apply ~pid ~seq a.op in
    set d
      {
        slot with
        lost = slot.lost + a.shared;
        current = Some { a with program; tosses = 0; shared = 0 };
      };
    Lb_observe.Metrics.incr (Lb_observe.Metrics.current ()) "harness.restarts";
    d.d_records <-
      {
        d.d_records with
        restarts = d.d_records.restarts + 1;
        restarted = (pid, seq) :: d.d_records.restarted;
      }

(* One shared-memory step of [slot]'s attempt.  An operation that raises
   [Failure] — in the memory or in its continuation — gives up. *)
let exec d slot (a : attempt) =
  match a.program with
  | Program.Return _ | Program.Toss _ -> assert false
  | Program.Op (invocation, k) -> (
    match Memory.apply d.d_cfg.memory ~pid:slot.pid invocation with
    | exception Failure reason -> give_up d slot a reason
    | response -> (
      let shared = a.shared + 1 in
      match k response with
      | exception Failure reason -> give_up d slot { a with shared } reason
      | program -> (
        ignore (tick d);
        let a = { a with program; shared } in
        match program with
        | Program.Return response -> complete d slot a response
        | Program.Toss _ | Program.Op _ -> set d { slot with current = Some a })))

(* Everything before a scheduling decision: crash-recovery restarts, then
   settling every slot, then the choice set.  [Finished completed] ends
   the run. *)
let rec poll ?hooks st =
  let d = draft st in
  (match hooks with Some h -> List.iter (restart d) (h.recover ~step:st.step) | None -> ());
  for pid = 0 to Array.length d.d_slots - 1 do
    settle d pid
  done;
  let st = if changed st d then freeze d ~step:st.step ~fuel:st.fuel else st in
  match st.runnable with
  | [] ->
    (* Quiescent: every operation responded, so remaining buffered stores
       drain in a deterministic order no one can observe. *)
    Memory.drain_all st.cfg.memory;
    (st, Scheduler.Finished true)
  | pids -> (
    if st.fuel = 0 then (st, Scheduler.Finished false)
    else
      let allowed =
        match hooks with
        | Some h -> h.filter ~step:st.step ~pending:(pending st) ~runnable:pids
        | None -> pids
      in
      (* Under a relaxed memory model, enabled store-buffer flushes join
         the schedulable set as pseudo-pids
         ({!Lb_memory.Semantics.flush_id}), so schedulers and the DPOR
         oracle decide flush order like any other step.  Fault hooks never
         see pseudo-pids: faults target processes, and a flush is the
         memory acting, not a process. *)
      let ids =
        match Memory.flush_ids st.cfg.memory ~n:st.cfg.n with
        | [] -> allowed
        | flushes -> allowed @ flushes
      in
      match ids with
      | [] -> (
        (* Everyone left is crashed, delayed or stalled.  Tick idly while a
           recovery or window expiry can still unblock the run. *)
        match hooks with
        | Some h when h.may_unblock ~step:st.step ->
          poll ?hooks { st with step = st.step + 1; fuel = st.fuel - 1 }
        | Some _ | None -> (st, Scheduler.Finished false))
      | ids -> (st, Scheduler.Enabled ids))

(* Execute the chosen step, then settle the stepped slot, so that
   [boundary] sees a zero-cost operation the slot started and finished on
   local steps too. *)
let step ?hooks st ~choices chosen =
  if tracing () then
    trace (Lb_observe.Event.Sched { step = st.step; chosen; runnable = choices });
  let d = draft st in
  if chosen >= st.cfg.n then begin
    let pid, reg = Semantics.flush_of_id ~n:st.cfg.n chosen in
    Memory.flush st.cfg.memory ~pid ~reg
  end
  else begin
    let slot = st.slots.(chosen) in
    match slot.current with
    | None -> assert false
    | Some a ->
      exec d slot a;
      (match hooks with Some h -> h.note_step ~step:st.step ~pid:chosen | None -> ());
      settle d chosen
  end;
  freeze d ~step:(st.step + 1) ~fuel:(st.fuel - 1)

let boundary before after =
  after.records.stats != before.records.stats || after.records.failures != before.records.failures

let no_records = { stats = []; failures = []; restarts = 0; restarted = [] }

let start ~memory ~handle ~n ~ops ?(assignment = Coin.constant 0) ?fuel () =
  Lb_observe.Tracer.attach_memory memory;
  let cfg = { memory; handle; n; assignment } in
  let slots =
    Array.init n (fun pid -> { pid; queue = ops pid; seq = 0; current = None; lost = 0 })
  in
  let d =
    draft { cfg; slots; runnable = []; clock = 0; records = no_records; step = 0; fuel = 0 }
  in
  Array.iter (start_next d) slots;
  let total_ops = Array.fold_left (fun acc s -> acc + List.length s.queue + 1) 0 d.d_slots in
  let default_fuel = 64 * total_ops * (n + Adt_tree.levels n + 8) in
  freeze d ~step:0 ~fuel:(Option.value ~default:default_fuel fuel)

let finish st ~completed =
  let stats = List.rev st.records.stats in
  let costs = List.map (fun (s : op_stat) -> s.cost) stats in
  let max_cost = List.fold_left max 0 costs in
  let mean_cost =
    if stats = [] then 0.0
    else float_of_int (List.fold_left ( + ) 0 costs) /. float_of_int (List.length stats)
  in
  let failures = List.rev st.records.failures in
  (* Give-ups, and operations still holding a slot when the run stopped (a
     crash-stopped pid, or fuel exhaustion), never responded, yet may have
     taken effect — e.g. a helping construction completes a crashed
     announcer's operation on its behalf — so the linearizability checker
     sees them as pending occurrences, not dropped. *)
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
      @ (Array.to_list st.slots
        |> List.filter_map (fun (slot : slot) ->
               Option.map
                 (fun (a : attempt) ->
                   H.pending_op ~pid:slot.pid ~seq:(slot.seq - 1) ~op:a.op ~invoked:a.invoked)
                 slot.current))
    in
    H.by_invocation (base @ H.ghosts ~restarted:(List.rev st.records.restarted) base)
  in
  {
    stats;
    failures;
    restarts = st.records.restarts;
    max_cost;
    mean_cost;
    total_shared_ops = Memory.total_ops st.cfg.memory;
    completed;
    largest_register = Memory.largest_value_size st.cfg.memory;
    history;
  }

let run_handle ~memory ~handle ~n ~ops ?(scheduler = Scheduler.round_robin) ?assignment ?fuel
    ?hooks () =
  let rec go st =
    match poll ?hooks st with
    | st, Scheduler.Finished completed -> finish st ~completed
    | st, Scheduler.Enabled ids -> (
      match scheduler ~step:st.step ~runnable:ids with
      | None -> finish st ~completed:false
      | Some chosen -> go (step ?hooks st ~choices:ids chosen))
  in
  go (start ~memory ~handle ~n ~ops ?assignment ?fuel ())

let run ~construction ~spec ~n ~ops ?scheduler ?fuel ?hooks () =
  let layout = Layout.create () in
  let handle = construction.Iface.create layout ~n spec in
  let memory = Memory.create () in
  Layout.install layout memory;
  run_handle ~memory ~handle ~n ~ops ?scheduler ?fuel ?hooks ()

let check_linearizable ~spec result =
  Lb_objects.Linearize.is_linearizable ~max_states:max_int spec result.history
