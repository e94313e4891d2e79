open Lb_memory
open Lb_runtime

type 'a event =
  | Stepped of int * Op.invocation * Op.response
  | Flushed of int * int * Value.t
  | Returned of int * 'a

type 'a run = { events : 'a event list; results : (int * 'a) list }

exception Limit_exceeded of int

(* A process's exploration state: about to perform an operation, or done.
   Leading coin tosses are resolved (with branching) by [expand]. *)
type 'a proc = Blocked of Op.invocation * (Op.response -> 'a Program.t) | Done of 'a

(* pid -> proc, persistent so branches share state. *)
module Pmap = Map.Make (Int)

(* The per-pid results of a run whose every process has returned. *)
let results_of procs =
  Pmap.bindings procs
  |> List.map (fun (pid, p) ->
         match p with
         | Done x -> (pid, x)
         | Blocked _ -> assert false)

(* Resolve leading tosses of a program into every reachable [proc],
   branching over the coin range.  The accompanying event list (reversed)
   records terminations discovered during expansion; the outcome list
   (chronological) records the toss results that select the branch. *)
let rec expand coin_range pid program =
  match program with
  | Program.Return x -> [ (Done x, [ Returned (pid, x) ], []) ]
  | Program.Op (inv, k) -> [ (Blocked (inv, k), [], []) ]
  | Program.Toss k ->
    List.concat_map
      (fun outcome ->
        List.map
          (fun (proc, events, outcomes) -> (proc, events, outcome :: outcomes))
          (expand coin_range pid (k outcome)))
      coin_range

(* Remove [pid] from a sorted runnable list (no-op when absent). *)
let rec remove_runnable pid = function
  | [] -> []
  | p :: rest -> if p = pid then rest else p :: remove_runnable pid rest

(* Drain every non-empty buffer (ascending pid, issue order within one) and
   record the flushes — run-end quiescence under a relaxed model, and the
   eager-flush discipline after each step.  [events] is newest-first. *)
let drain_all memory events =
  let events =
    List.fold_left
      (fun evs (pid, entries) ->
        List.fold_left (fun evs (r, v) -> Flushed (pid, r, v) :: evs) evs entries)
      events (Pure_memory.buffers memory)
  in
  (Pure_memory.drain_all memory, events)

let iter ~n ~program_of ?(inits = []) ?(coin_range = [ 0 ]) ?(model = Memory_model.SC)
    ?(eager_flush = false) ?(max_runs = 200_000) ~f () =
  if coin_range = [] then invalid_arg "Explore.iter: empty coin range";
  let count = ref 0 in
  let memory0 = Pure_memory.create ~inits ~model () in
  let emit memory procs events =
    incr count;
    if !count > max_runs then raise (Limit_exceeded max_runs);
    (* Run-end quiescence: remaining buffered writes drain deterministically.
       Their order cannot change results (every process has returned) nor the
       final memory (per-register FIFO), so branching over it would only
       multiply equivalent runs. *)
    let _, events = drain_all memory events in
    f { events = List.rev events; results = results_of procs }
  in
  (* [runnable] is the ascending list of blocked pids, maintained
     incrementally: a pid leaves when its expansion terminates, so no
     per-step scan of the whole process map is needed. *)
  let rec go memory procs runnable events =
    match runnable with
    | [] -> emit memory procs events
    | _ :: _ ->
      List.iter
        (fun pid ->
          match Pmap.find pid procs with
          | Done _ -> assert false
          | Blocked (inv, k) ->
            let response, memory' = Pure_memory.apply memory ~pid inv in
            (* Eager-flush discipline: commit the step's buffered writes
               before anything else runs — the schedule shape whose outcome
               set coincides with SC (tested as a property). *)
            let memory', flush_events =
              if eager_flush then drain_all memory' [] else (memory', [])
            in
            let stepped = Stepped (pid, inv, response) in
            List.iter
              (fun (proc', expand_events, _) ->
                let runnable' =
                  match proc' with
                  | Done _ -> remove_runnable pid runnable
                  | Blocked _ -> runnable
                in
                go memory' (Pmap.add pid proc' procs) runnable'
                  (expand_events @ flush_events @ (stepped :: events)))
              (expand coin_range pid (k response)))
        runnable;
      (* Under a relaxed model every enabled flush is also a scheduling
         choice, interleaved freely with process steps. *)
      List.iter
        (fun (pid, reg) ->
          let memory' = Pure_memory.flush memory ~pid ~reg in
          let v = Pure_memory.peek memory' reg in
          go memory' procs runnable (Flushed (pid, reg, v) :: events))
        (Pure_memory.flushable memory)
  in
  (* Initial expansion of every process (cartesian product over processes).
     [runnable] accumulates in descending order; reversed once at the root. *)
  let rec init pid procs runnable events =
    if pid = n then go memory0 procs (List.rev runnable) events
    else
      List.iter
        (fun (proc, expand_events, _) ->
          let runnable' =
            match proc with Done _ -> runnable | Blocked _ -> pid :: runnable
          in
          init (pid + 1) (Pmap.add pid proc procs) runnable' (expand_events @ events))
        (expand coin_range pid (program_of pid))
  in
  init 0 Pmap.empty [] [];
  !count

exception Found

let for_all ~n ~program_of ?inits ?coin_range ?model ?eager_flush ?max_runs ~f () =
  try
    ignore
      (iter ~n ~program_of ?inits ?coin_range ?model ?eager_flush ?max_runs
         ~f:(fun run -> if not (f run) then raise Found)
         ());
    true
  with Found -> false

let exists ~n ~program_of ?inits ?coin_range ?model ?eager_flush ?max_runs ~f () =
  not
    (for_all ~n ~program_of ?inits ?coin_range ?model ?eager_flush ?max_runs
       ~f:(fun run -> not (f run))
       ())

let steppers_before_first_one run =
  let rec go stepped = function
    | [] -> None
    | Returned (_, 1) :: _ -> Some stepped
    | Returned (_, _) :: rest -> go stepped rest
    | Stepped (pid, _, _) :: rest -> go (Ids.add pid stepped) rest
    (* A flush is the delayed tail of a Write already counted at its step. *)
    | Flushed _ :: rest -> go stepped rest
  in
  go Ids.empty run.events

let wakeup_ok ~n run =
  let returns_ok = List.for_all (fun (_, v) -> v = 0 || v = 1) run.results in
  let somebody = List.exists (fun (_, v) -> v = 1) run.results in
  let cond3 =
    match steppers_before_first_one run with
    | None -> true
    | Some stepped -> Ids.equal stepped (Ids.range n)
  in
  returns_ok && somebody && cond3

(* ---- reduced exploration ---- *)

type stats = { runs : int; sleep_pruned : int; dedup_pruned : int }

(* The full dependency footprint of a step under the memory's model: fencing
   operations also drain the issuing process's buffer, so their effect
   extends to every register with a pending buffered write.  Buffers are
   empty under SC, making this [Sched_tree.footprint inv] there. *)
let step_fp_regs memory ~pid inv =
  let base = Sched_tree.footprint inv in
  if not (Op.fences inv) then base
  else
    match Pure_memory.buffered_regs memory ~pid with
    | [] -> base
    | buffered -> List.sort_uniq Int.compare (base @ buffered)

(* Register disjointness is the cheap sound commutation check: two
   invocations with disjoint footprints commute exactly in [Pure_memory]. *)
let conflicts a b =
  let fa = Sched_tree.footprint a in
  List.exists (fun r -> List.mem r fa) (Sched_tree.footprint b)

(* The run-prefix information [wakeup_ok]-style predicates depend on:
   which processes have stepped, frozen at the first [Returned (_, 1)].
   Two prefixes with equal summaries (and equal memory and histories) give
   every extension the same verdict. *)
type summary = Before of Ids.t | After of Ids.t

let update_summary summary chrono_events =
  List.fold_left
    (fun s e ->
      match (s, e) with
      | After _, _ -> s
      | Before stepped, Stepped (pid, _, _) -> Before (Ids.add pid stepped)
      | Before stepped, Returned (_, 1) -> After stepped
      | Before _, Returned (_, _) -> s
      | Before _, Flushed _ -> s)
    summary chrono_events

let iter_reduced ~n ~program_of ?(inits = []) ?(coin_range = [ 0 ])
    ?(max_runs = 200_000) ~f () =
  if coin_range = [] then invalid_arg "Explore.iter_reduced: empty coin range";
  let memory0 = Pure_memory.create ~inits () in
  let runs = ref 0 in
  let sleep_pruned = ref 0 in
  let dedup_pruned = ref 0 in
  (* Visited states, keyed on (canonical memory, per-pid histories, summary)
     — everything a state's future depends on.  Histories are (invocation,
     response, toss outcomes) triples plus the initial-expansion outcomes,
     so equal keys mean semantically equal continuations even though the
     continuation closures themselves are incomparable.  The stored value is
     the sleep set the state was explored with: a revisit with a sleep
     superset is fully covered (prune); a revisit with new awake pids
     re-explores under the intersection. *)
  let visited = Hashtbl.create 1024 in
  let emit procs events =
    incr runs;
    if !runs > max_runs then raise (Limit_exceeded max_runs);
    f { events = List.rev events; results = results_of procs }
  in
  let pending_inv procs pid =
    match Pmap.find pid procs with
    | Blocked (inv, _) -> inv
    | Done _ -> assert false
  in
  let rec go memory procs hists runnable summary sleep events =
    match runnable with
    | [] -> emit procs events
    | _ :: _ -> (
      let key = (Pure_memory.canonical_full memory, Pmap.bindings hists, summary) in
      match Hashtbl.find_opt visited key with
      | Some old_sleep when Ids.subset old_sleep sleep -> incr dedup_pruned
      | previous ->
        let sleep =
          match previous with
          | Some old_sleep -> Ids.inter old_sleep sleep
          | None -> sleep
        in
        Hashtbl.replace visited key sleep;
        let z = ref sleep in
        List.iter
          (fun pid ->
            if Ids.mem pid !z then incr sleep_pruned
            else
              match Pmap.find pid procs with
              | Done _ -> assert false
              | Blocked (inv, k) ->
                let response, memory' = Pure_memory.apply memory ~pid inv in
                let stepped = Stepped (pid, inv, response) in
                let branches = expand coin_range pid (k response) in
                List.iter
                  (fun (proc', expand_events, outcomes) ->
                    let summary' =
                      update_summary summary (stepped :: List.rev expand_events)
                    in
                    (* A branch that returned is ordered w.r.t. everything
                       (returns move the cond3 frontier), so it wakes every
                       sleeper; an op-only branch wakes just the sleepers
                       whose pending invocation touches a common register. *)
                    let child_sleep =
                      if expand_events <> [] then Ids.empty
                      else
                        Ids.filter
                          (fun p -> not (conflicts (pending_inv procs p) inv))
                          !z
                    in
                    let hists' =
                      Pmap.add pid
                        ((inv, response, outcomes) :: Pmap.find pid hists)
                        hists
                    in
                    let runnable' =
                      match proc' with
                      | Done _ -> remove_runnable pid runnable
                      | Blocked _ -> runnable
                    in
                    go memory' (Pmap.add pid proc' procs) hists' runnable' summary'
                      child_sleep
                      (expand_events @ (stepped :: events)))
                  branches;
                (* Sleepable only if no branch returned: sleeping a returning
                   step would commute a [Returned] past later [Stepped]s,
                   changing the summary of the pruned run's representative. *)
                if List.for_all (fun (_, evs, _) -> evs = []) branches then
                  z := Ids.add pid !z)
          runnable)
  in
  let rec init pid procs hists runnable summary events =
    if pid = n then go memory0 procs hists (List.rev runnable) summary Ids.empty events
    else
      List.iter
        (fun (proc, expand_events, outcomes) ->
          let summary' = update_summary summary (List.rev expand_events) in
          (* The initial expansion is recorded as a pseudo-entry so states
             reached through different initial coin outcomes never merge. *)
          let hists' = Pmap.add pid [ (Op.Validate (-1), Op.Ack, outcomes) ] hists in
          let runnable' =
            match proc with Done _ -> runnable | Blocked _ -> pid :: runnable
          in
          init (pid + 1) (Pmap.add pid proc procs) hists' runnable' summary'
            (expand_events @ events))
        (expand coin_range pid (program_of pid))
  in
  init 0 Pmap.empty Pmap.empty [] (Before Ids.empty) [];
  { runs = !runs; sleep_pruned = !sleep_pruned; dedup_pruned = !dedup_pruned }

let for_all_reduced ~n ~program_of ?inits ?coin_range ?max_runs ~f () =
  try
    ignore
      (iter_reduced ~n ~program_of ?inits ?coin_range ?max_runs
         ~f:(fun run -> if not (f run) then raise Found)
         ());
    true
  with Found -> false

(* ---- dynamic partial-order reduction ---- *)

let iter_dpor ~n ~program_of ?(inits = []) ?(coin_range = [ 0 ])
    ?(model = Memory_model.SC) ?(bounds = Sched_tree.no_bounds) ?(dedup = true)
    ?(max_runs = 200_000) ~f () =
  if coin_range = [] then invalid_arg "Explore.iter_dpor: empty coin range";
  let memory0 = Pure_memory.create ~inits ~model () in
  (* One run under the oracle: the same forced initial expansion and step
     semantics as [iter_reduced], but scheduling decisions, coin-branch
     selection, and state dedup all delegate to the scheduler tree. *)
  let run sched =
    let memory = ref memory0 in
    let procs = ref Pmap.empty in
    let hists = ref Pmap.empty in
    let runnable = ref [] in
    let summary = ref (Before Ids.empty) in
    let events = ref [] in
    let step = ref 0 in
    let aborted = ref false in
    let mark () =
      if dedup then
        Sched_tree.mark sched
          ~key:(Pure_memory.canonical_full !memory, Pmap.bindings !hists, !summary)
    in
    (* Initial expansion: one forced pseudo-decision per process, so initial
       coin branches are siblings in the tree like any other branch. *)
    let pid = ref 0 in
    while (not !aborted) && !pid < n do
      (match Sched_tree.choose sched ~step:!step ~enabled:[ !pid ] with
      | None -> aborted := true
      | Some p ->
        assert (p = !pid);
        let branches = expand coin_range p (program_of p) in
        let blocking = List.exists (fun (_, evs, _) -> evs <> []) branches in
        let b =
          Sched_tree.commit sched
            ~fp:{ Sched_tree.regs = []; blocking }
            ~branches:(List.length branches)
        in
        let proc, expand_events, outcomes = List.nth branches b in
        summary := update_summary !summary (List.rev expand_events);
        hists := Pmap.add p [ (Op.Validate (-1), Op.Ack, outcomes) ] !hists;
        (match proc with
        | Done _ -> ()
        | Blocked _ -> runnable := !runnable @ [ p ]);
        procs := Pmap.add p proc !procs;
        events := expand_events @ !events;
        incr step;
        mark ());
      incr pid
    done;
    (* Flushes stay schedulable after every process has returned: they must
       pass through the tree (not drain silently) so they appear in traces —
       DPOR only backtracks around steps that occur in some executed run, and
       a flush that never executes can never be raced against a read. *)
    (* Flush actions are scheduler-visible decisions, so they take ids in
       the tree's decision alphabet ({!Lb_memory.Semantics.flush_id}),
       stable across runs: the same tree node always re-derives the same
       memory, hence the same flushable set. *)
    let enabled_now () = !runnable @ Pure_memory.flush_ids !memory ~n in
    let enabled = ref (enabled_now ()) in
    while (not !aborted) && !enabled <> [] do
      match Sched_tree.choose sched ~step:!step ~enabled:!enabled with
      | None -> aborted := true
      | Some id when id >= n ->
        (* A flush decision: apply the oldest buffered write.  Its footprint
           is the flushed register — this is where a buffered write becomes
           dependent with other processes' accesses. *)
        let pid, reg = Semantics.flush_of_id ~n id in
        let memory' = Pure_memory.flush !memory ~pid ~reg in
        let v = Pure_memory.peek memory' reg in
        ignore
          (Sched_tree.commit sched
             ~fp:{ Sched_tree.regs = [ reg ]; blocking = false }
             ~branches:1);
        memory := memory';
        events := Flushed (pid, reg, v) :: !events;
        incr step;
        enabled := enabled_now ();
        mark ()
      | Some pid -> (
        match Pmap.find pid !procs with
        | Done _ -> assert false
        | Blocked (inv, k) ->
          (* The footprint of a fencing step includes the registers its
             buffer drain writes, so compute it before applying.  A fencing
             step also absorbs the enabled flush decisions of its own
             buffer — capture them now and report them to the tree after
             the commit, or "flush early, interleave, then fence" schedules
             would be unexplorable (an absorbed flush never appears in any
             trace, and DPOR only backtracks around observed steps). *)
          let fp_regs = step_fp_regs !memory ~pid inv in
          let absorbed =
            if Op.fences inv then
              List.filter (fun (p, _) -> p = pid) (Pure_memory.flushable !memory)
            else []
          in
          let response, memory' = Pure_memory.apply !memory ~pid inv in
          let stepped = Stepped (pid, inv, response) in
          let branches = expand coin_range pid (k response) in
          let blocking = List.exists (fun (_, evs, _) -> evs <> []) branches in
          let b =
            Sched_tree.commit sched
              ~fp:{ Sched_tree.regs = fp_regs; blocking }
              ~branches:(List.length branches)
          in
          List.iter (fun pr -> Sched_tree.also sched ~pid:(Semantics.flush_id ~n pr)) absorbed;
          let proc', expand_events, outcomes = List.nth branches b in
          summary := update_summary !summary (stepped :: List.rev expand_events);
          hists :=
            Pmap.add pid ((inv, response, outcomes) :: Pmap.find pid !hists) !hists;
          memory := memory';
          procs := Pmap.add pid proc' !procs;
          (match proc' with
          | Done _ -> runnable := remove_runnable pid !runnable
          | Blocked _ -> ());
          events := expand_events @ (stepped :: !events);
          incr step;
          enabled := enabled_now ();
          mark ())
    done;
    if !aborted then None else Some { events = List.rev !events; results = results_of !procs }
  in
  try
    Sched_tree.explore ~bounds ~max_schedules:max_runs ~run
      ~f:(fun run ->
        f run;
        true)
      ()
  with Sched_tree.Schedule_limit k -> raise (Limit_exceeded k)

let for_all_dpor ~n ~program_of ?inits ?coin_range ?model ?bounds ?dedup ?max_runs ~f () =
  try
    ignore
      (iter_dpor ~n ~program_of ?inits ?coin_range ?model ?bounds ?dedup ?max_runs
         ~f:(fun run -> if not (f run) then raise Found)
         ());
    true
  with Found -> false
