open Lb_memory
open Lb_runtime

type crash = {
  after : int;
  restart : int option; (* None = crash-stop *)
  mutable crashed_at : int option;
  mutable recovered : bool;
}

type t = {
  seed : int;
  steps : (int, int) Hashtbl.t; (* pid -> executed shared-memory steps *)
  crash : (int, crash) Hashtbl.t;
  sc_seen : (int, int) Hashtbl.t; (* pid -> SC invocations observed *)
  ats : (int, int list) Hashtbl.t; (* pid -> 1-based SC indices to fail *)
  rate : float; (* combined spurious rate *)
  delays : (int * int * int) list; (* pid, from, until *)
  stalls : (int list * int * int) list; (* regs, from, until *)
  mutable spurious_total : int;
}

let instantiate ?(seed = 0) plan =
  let t =
    {
      seed;
      steps = Hashtbl.create 16;
      crash = Hashtbl.create 8;
      sc_seen = Hashtbl.create 16;
      ats = Hashtbl.create 8;
      rate = 0.0;
      delays = [];
      stalls = [];
      spurious_total = 0;
    }
  in
  let rate = ref 1.0 (* probability that no rate injector fires *) in
  let delays = ref [] and stalls = ref [] in
  List.iter
    (fun injector ->
      match (injector : Fault_plan.injector) with
      | Crash_stop { pid; after } ->
        if not (Hashtbl.mem t.crash pid) then
          Hashtbl.add t.crash pid { after; restart = None; crashed_at = None; recovered = false }
      | Crash_recover { pid; after; restart } ->
        if not (Hashtbl.mem t.crash pid) then
          Hashtbl.add t.crash pid
            { after; restart = Some restart; crashed_at = None; recovered = false }
      | Spurious_sc_rate r -> rate := !rate *. (1.0 -. r)
      | Spurious_sc_at { pid; at } ->
        let existing = Option.value ~default:[] (Hashtbl.find_opt t.ats pid) in
        Hashtbl.replace t.ats pid (List.sort_uniq Int.compare (at @ existing))
      | Delay { pid; from_step; duration } ->
        delays := (pid, from_step, from_step + duration) :: !delays
      | Stall_region { regs; from_step; duration } ->
        stalls := (regs, from_step, from_step + duration) :: !stalls)
    (Fault_plan.injectors plan);
  { t with rate = 1.0 -. !rate; delays = !delays; stalls = !stalls }

let arm t memory =
  Memory.set_interposer memory
    (Some
       (fun ~pid invocation ->
         match invocation with
         | Op.Sc (r, _) ->
           let k = 1 + Option.value ~default:0 (Hashtbl.find_opt t.sc_seen pid) in
           Hashtbl.replace t.sc_seen pid k;
           let wanted =
             (match Hashtbl.find_opt t.ats pid with
             | Some at -> List.mem k at
             | None -> false)
             || t.rate > 0.0
                && float_of_int (Coin.hash ~seed:t.seed ~pid ~idx:k mod 1_000_000)
                   /. 1_000_000.0
                   < t.rate
           in
           (* Only a would-be-successful SC can fail *spuriously*; if the
              Pset lost [pid] the SC fails for the strong-semantics reason
              and no fault is injected (or counted). *)
           if wanted && Ids.mem pid (Memory.pset memory r) then begin
             t.spurious_total <- t.spurious_total + 1;
             Memory.Fail_sc
           end
           else Memory.Proceed
         | Op.Ll _ | Op.Validate _ | Op.Swap _ | Op.Move _ | Op.Write _ | Op.Fence ->
           Memory.Proceed))

let taken t pid = Option.value ~default:0 (Hashtbl.find_opt t.steps pid)

let note_step t ~step:_ ~pid = Hashtbl.replace t.steps pid (taken t pid + 1)

(* A pid is crashed once it has taken its budget of steps; a crash-recover
   pid un-crashes [restart] global steps after the crash was first observed. *)
let crashed_now t ~step pid =
  match Hashtbl.find_opt t.crash pid with
  | None -> false
  | Some c ->
    if c.recovered then false
    else if taken t pid < c.after then false
    else begin
      if c.crashed_at = None then begin
        c.crashed_at <- Some step;
        if Lb_observe.Tracer.active () then
          Lb_observe.Tracer.record (Lb_observe.Event.Crash { pid; step })
      end;
      match c.restart, c.crashed_at with
      | None, _ -> true
      | Some r, Some s -> step < s + r
      | Some _, None -> assert false
    end

let delayed t ~step pid =
  List.exists (fun (p, from_, until) -> p = pid && from_ <= step && step < until) t.delays

let stalled t ~step invocation =
  match invocation with
  | None -> false
  | Some inv ->
    let touched = Op.registers inv in
    List.exists
      (fun (regs, from_, until) ->
        from_ <= step && step < until && List.exists (fun r -> List.mem r regs) touched)
      t.stalls

(* With no crash, delay or stall injector nothing is ever filtered, and the
   runnable list is returned as it came. *)
let filter t ~step ~pending ~runnable =
  if Hashtbl.length t.crash = 0 && t.delays = [] && t.stalls = [] then runnable
  else
    List.filter
      (fun pid ->
        (not (crashed_now t ~step pid))
        && (not (delayed t ~step pid))
        && not (stalled t ~step (pending pid)))
      runnable

let recoveries t ~step =
  Hashtbl.fold
    (fun pid c acc ->
      match c.restart, c.crashed_at with
      | Some r, Some s when (not c.recovered) && step >= s + r ->
        c.recovered <- true;
        if Lb_observe.Tracer.active () then
          Lb_observe.Tracer.record (Lb_observe.Event.Recovery { pid; step });
        pid :: acc
      | _ -> acc)
    t.crash []
  |> List.sort Int.compare

let may_unblock t ~step =
  Hashtbl.fold
    (fun _ c acc -> acc || (c.restart <> None && not c.recovered))
    t.crash false
  || List.exists (fun (_, _, until) -> step < until) t.delays
  || List.exists (fun (_, _, until) -> step < until) t.stalls

let hooks t =
  {
    Lb_universal.Harness.filter = (fun ~step ~pending ~runnable -> filter t ~step ~pending ~runnable);
    note_step = (fun ~step ~pid -> note_step t ~step ~pid);
    recover = (fun ~step -> recoveries t ~step);
    may_unblock = (fun ~step -> may_unblock t ~step);
  }

let choice t ?(pending = fun _ -> None) inner ~step ~runnable =
  match filter t ~step ~pending ~runnable with
  | [] -> None
  | allowed -> (
    match inner ~step ~runnable:allowed with
    | Some pid ->
      note_step t ~step ~pid;
      Some pid
    | None -> None)

let spurious_injected t = t.spurious_total

let crashed t =
  Hashtbl.fold
    (fun pid c acc -> if c.crashed_at <> None && not c.recovered then Ids.add pid acc else acc)
    t.crash Ids.empty
