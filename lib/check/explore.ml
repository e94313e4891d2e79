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

(* Whether [f] holds on every run [walk] emits, stopping at the first run
   where it fails. *)
let holds walk f =
  match walk (fun run -> if not (f run) then raise Found) with
  | _ -> true
  | exception Found -> false

let for_all ~n ~program_of ?inits ?coin_range ?model ?eager_flush ?max_runs ~f () =
  holds (fun f -> iter ~n ~program_of ?inits ?coin_range ?model ?eager_flush ?max_runs ~f ()) f

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

(* ---- dynamic partial-order reduction ---- *)

(* The full dependency footprint of a step under the memory's model: fencing
   operations also drain the issuing process's buffer, so their effect
   extends to every register with a pending buffered write.  Buffers are
   empty under SC, making this [Race.footprint inv] there. *)
let step_fp_regs memory ~pid inv =
  let base = Race.footprint inv in
  if not (Op.fences inv) then base
  else
    match Pure_memory.buffered_regs memory ~pid with
    | [] -> base
    | buffered -> List.sort_uniq Int.compare (base @ buffered)

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

type history = (Op.invocation * Op.response * int list) list

(* A dedup key with each process's history in representation ['h]: the
   whole list in a {!state_key}, a hash-consed id in a walk's table. *)
type 'h key =
  ((int * (Value.t * Ids.t)) list * (int * (int * Value.t) list) list)
  * (int * 'h) list
  * summary

type state_key = history key

(* Every node folds a tag and its contents into the accumulator, as in
   [Value.hash]; every list folds a start and an end tag, so moving an
   element across a list boundary changes the hash. *)
let mix h x = (h * 65599) + x
let list f h l = mix (List.fold_left f (mix h 1) l) 15
let value h v = mix h (Value.hash v)

let invocation h = function
  | Op.Ll r -> mix (mix h 2) r
  | Op.Sc (r, v) -> value (mix (mix h 3) r) v
  | Op.Validate r -> mix (mix h 4) r
  | Op.Swap (r, v) -> value (mix (mix h 5) r) v
  | Op.Move (src, dst) -> mix (mix (mix h 6) src) dst
  | Op.Write (r, v) -> value (mix (mix h 7) r) v
  | Op.Fence -> mix h 8

let response h = function
  | Op.Value v -> value (mix h 9) v
  | Op.Flagged (flag, v) -> value (mix h (if flag then 10 else 11)) v
  | Op.Ack -> mix h 12

(* A history's hash extends its tail's by the newest entry, so a
   hash-consed history computes it from its parent's in one step. *)
let empty_history_hash = 16

let extend_hash h (inv, resp, outcomes) =
  list mix (response (invocation (mix h 17) inv) resp) outcomes

let hash_history es = List.fold_right (fun e h -> extend_hash h e) es empty_history_hash

(* The one key hash, over any history representation whose hash
   [history] gives. *)
let hash_key history (((regs, buffers), hists, summary) : _ key) =
  let h = list (fun h (r, (v, ps)) -> mix (value (mix h r) v) (Ids.hash ps)) 0 regs in
  let write h (r, v) = value (mix h r) v in
  let h = list (fun h (pid, writes) -> list write (mix h pid) writes) h buffers in
  let h = list (fun h (pid, es) -> mix (mix h pid) (history es)) h hists in
  Hashtbl.hash
    (match summary with
    | Before stepped -> mix (mix h 13) (Ids.hash stepped)
    | After stepped -> mix (mix h 14) (Ids.hash stepped))

let hash_state_key key = hash_key hash_history key

(* A walk's hash-consed histories: [extend parent entry] is the id of
   history [entry :: parent], where [parent] is an id and id 0 is the
   empty history.  Ids are equal exactly when the histories are, and a
   history's hash is its {!hash_history}, so an id key hashes and compares
   as its full {!state_key} would.  [full] rebuilds the list of an id. *)
type histories = {
  extend : int -> Op.invocation * Op.response * int list -> int;
  hash : int -> int;
  full : int -> history;
}

let new_histories () =
  let module Tbl = Hashtbl.Make (struct
    (* [(parent, entry, hash)]: the hash is a function of the others. *)
    type t = int * (Op.invocation * Op.response * int list) * int

    let equal (p, e, _) (p', e', _) = p = p' && e = e'
    let hash (_, _, h) = h
  end) in
  let ids = Tbl.create 64 in
  let hashes = ref (Array.make 64 empty_history_hash) and lists = ref (Array.make 64 []) in
  let extend parent e =
    let h = extend_hash !hashes.(parent) e in
    match Tbl.find_opt ids (parent, e, h) with
    | Some id -> id
    | None ->
      let id = Tbl.length ids + 1 in
      if id = Array.length !hashes then begin
        let grow a fill = Array.append a (Array.make (Array.length a) fill) in
        hashes := grow !hashes 0;
        lists := grow !lists []
      end;
      !hashes.(id) <- h;
      !lists.(id) <- e :: !lists.(parent);
      Tbl.add ids (parent, e, h) id;
      id
  in
  { extend; hash = (fun id -> !hashes.(id)); full = (fun id -> !lists.(id)) }

(* A DPOR walk's state between steps.  Every component is an immutable
   value (persistent memory and maps), so a state is its own snapshot. *)
type 'a walk = {
  w_memory : Pure_memory.t;
  w_procs : 'a proc Pmap.t;
  w_hists : (int * int) list;
      (* (pid, history id), ascending pid, for every pid past its initial
         expansion; with the summary, the dedup key's past *)
  w_runnable : int list;
  w_summary : summary;
  w_events : 'a event list;  (* newest first *)
  w_expanded : int;  (* processes past their initial expansion *)
}

(* [hists] with [pid]'s history id set to [id]. *)
let rec set_history pid id = function
  | [] -> [ (pid, id) ]
  | ((p, _) as b) :: rest ->
    if p = pid then (pid, id) :: rest
    else if p > pid then (pid, id) :: b :: rest
    else b :: set_history pid id rest

let rec history_of pid = function
  | [] -> 0
  | (p, id) :: rest -> if p = pid then id else history_of pid rest

(* A step whose expansion returns publishes a return: commuting it changes
   the wakeup summary. *)
let returns branches = List.exists (fun (_, evs, _) -> evs <> []) branches

(* Initial expansion first: one forced pseudo-decision per process, so
   initial coin branches are siblings in the tree like any other branch.
   Then every blocked process and every enabled flush.  Flushes stay
   schedulable after every process has returned: they must pass through
   the tree (not drain silently) so they appear in traces — DPOR only
   backtracks around steps that occur in some executed run, and a flush
   that never executes can never be raced against a read.  Flush actions
   take ids in the tree's decision alphabet
   ({!Lb_memory.Semantics.flush_id}), stable across runs: the same tree
   node always re-derives the same memory, hence the same flushable set. *)
let poll_walk ~n w =
  if w.w_expanded < n then (w, Sched_tree.Enabled [ w.w_expanded ])
  else
    match w.w_runnable @ Pure_memory.flush_ids w.w_memory ~n with
    | [] -> (w, Sched_tree.Finished true)
    | ids -> (w, Sched_tree.Enabled ids)

(* The step semantics of [iter] for decision [id], with the coin branch
   left to the scheduler tree: process [id]'s initial expansion (recorded
   in its history as a pseudo-step), a flush, or process [id]'s pending
   operation. *)
let step_walk ~n ~coin_range ~program_of ~histories w id =
  (* [stepped] (chronological) is the step's event, if any; [branches]
     expand what follows it. *)
  let branch_to ?(absorbed = []) ~regs ~memory ~inv ~response ~stepped branches =
    {
      Sched_tree.fp = { Race.regs; blocking = returns branches };
      branches = List.length branches;
      absorbed;
      next =
        (fun b ->
          let proc, expand_events, outcomes = List.nth branches b in
          let hist = histories.extend (history_of id w.w_hists) (inv, response, outcomes) in
          {
            w_memory = memory;
            w_procs = Pmap.add id proc w.w_procs;
            w_hists = set_history id hist w.w_hists;
            w_runnable =
              (match proc with
              | Done _ -> remove_runnable id w.w_runnable
              | Blocked _ when w.w_expanded = id -> w.w_runnable @ [ id ]
              | Blocked _ -> w.w_runnable);
            w_summary = update_summary w.w_summary (stepped @ List.rev expand_events);
            w_events = expand_events @ List.rev_append stepped w.w_events;
            w_expanded = max w.w_expanded (id + 1);
          });
    }
  in
  if w.w_expanded < n then
    branch_to ~regs:[] ~memory:w.w_memory ~inv:(Op.Validate (-1)) ~response:Op.Ack ~stepped:[]
      (expand coin_range id (program_of id))
  else if id >= n then begin
    (* A flush decision: apply the oldest buffered write.  Its footprint is
       the flushed register — this is where a buffered write becomes
       dependent with other processes' accesses. *)
    let pid, reg = Semantics.flush_of_id ~n id in
    let memory = Pure_memory.flush w.w_memory ~pid ~reg in
    let v = Pure_memory.peek memory reg in
    {
      Sched_tree.fp = { Race.regs = [ reg ]; blocking = false };
      branches = 1;
      absorbed = [];
      next =
        (fun _ -> { w with w_memory = memory; w_events = Flushed (pid, reg, v) :: w.w_events });
    }
  end
  else
    match Pmap.find id w.w_procs with
    | Done _ -> assert false
    | Blocked (inv, k) ->
      (* The footprint of a fencing step includes the registers its buffer
         drain writes, so compute it before applying; the drain absorbs
         the enabled flush decisions of its own buffer. *)
      let regs = step_fp_regs w.w_memory ~pid:id inv in
      let absorbed =
        if Op.fences inv then
          List.filter_map
            (fun ((p, _) as pr) -> if p = id then Some (Semantics.flush_id ~n pr) else None)
            (Pure_memory.flushable w.w_memory)
        else []
      in
      let response, memory = Pure_memory.apply w.w_memory ~pid:id inv in
      branch_to ~absorbed ~regs ~memory ~inv ~response ~stepped:[ Stepped (id, inv, response) ]
        (expand coin_range id (k response))

(* [on_state] sees each distinct dedup key once, when it is interned. *)
let walk_dpor ?on_state ~n ~program_of ?(inits = []) ?(coin_range = [ 0 ])
    ?(model = Memory_model.SC) ?(bounds = Sched_tree.no_bounds) ?(dedup = true)
    ?(max_runs = 200_000) ~f () =
  if coin_range = [] then invalid_arg "Explore.iter_dpor: empty coin range";
  let histories = new_histories () in
  (* Each distinct state key is interned once into a dense id, which is
     all the scheduler tree's tables ever hash or compare.  The key holds
     history ids, so hashing it reads each history's stored hash and a hit
     compares ints; the memory part still counts in full: the generic
     hash reads only the first ten meaningful words of a key, and the keys
     of one walk mostly differ deeper than that. *)
  let intern =
    let module Keys = Hashtbl.Make (struct
      type t = int key

      let equal = ( = )
      let hash = hash_key histories.hash
    end) in
    let ids = Keys.create 16 in
    fun key ->
      match Keys.find_opt ids key with
      | Some id -> id
      | None ->
        let id = Keys.length ids in
        Keys.add ids key id;
        Option.iter
          (fun on_state ->
            let memory, hists, summary = key in
            let full = (memory, List.map (fun (pid, h) -> (pid, histories.full h)) hists, summary) in
            (* The walk's hash is the full key's, so the spread measured
               on full keys is the table's. *)
            assert (hash_state_key full = hash_key histories.hash key);
            on_state full)
          on_state;
        id
  in
  let initial =
    {
      w_memory = Pure_memory.create ~inits ~model ();
      w_procs = Pmap.empty;
      w_hists = [];
      w_runnable = [];
      w_summary = Before Ids.empty;
      w_events = [];
      w_expanded = 0;
    }
  in
  (* The key holds everything a state's future depends on: the
     continuation closures are incomparable, but the per-pid histories of
     (invocation, response, coin outcomes) determine them, and the summary
     holds the outcome-relevant past. *)
  let key w = intern (Pure_memory.canonical_full w.w_memory, w.w_hists, w.w_summary) in
  let machine =
    {
      Sched_tree.reset = (fun () -> initial);
      poll = poll_walk ~n;
      exec = (fun w ~enabled:_ id -> step_walk ~n ~coin_range ~program_of ~histories w id);
      key = (if dedup then Some key else None);
      snapshot = Some (fun w () -> w);
      judge = (fun w _ -> { events = List.rev w.w_events; results = results_of w.w_procs });
    }
  in
  try
    Sched_tree.drive ~bounds ~max_schedules:max_runs machine
      ~f:(fun run ->
        f run;
        true)
      ()
  with Sched_tree.Schedule_limit k -> raise (Limit_exceeded k)

let iter_dpor ~n ~program_of ?inits ?coin_range ?model ?bounds ?dedup ?max_runs ~f () =
  walk_dpor ~n ~program_of ?inits ?coin_range ?model ?bounds ?dedup ?max_runs ~f ()

let dpor_state_keys ~n ~program_of ?inits ?coin_range ?model ?max_runs () =
  let keys = ref [] in
  ignore
    (walk_dpor
       ~on_state:(fun key -> keys := key :: !keys)
       ~n ~program_of ?inits ?coin_range ?model ~dedup:true ?max_runs ~f:ignore ());
  List.rev !keys

let for_all_dpor ~n ~program_of ?inits ?coin_range ?model ?bounds ?dedup ?max_runs ~f () =
  holds
    (fun f -> iter_dpor ~n ~program_of ?inits ?coin_range ?model ?bounds ?dedup ?max_runs ~f ())
    f
