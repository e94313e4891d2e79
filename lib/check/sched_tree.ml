open Lb_memory
open Lb_runtime

type fp = { regs : int list; blocking : bool }

let dependent a b =
  a.blocking || b.blocking || List.exists (fun r -> List.mem r b.regs) a.regs

let footprint = function
  | Op.Ll r | Op.Sc (r, _) | Op.Validate r | Op.Swap (r, _) | Op.Write (r, _) -> [ r ]
  | Op.Move (src, dst) -> [ src; dst ]
  | Op.Fence -> []

type bounds = { preempt : int option; fair : int option; length : int option }

let no_bounds = { preempt = None; fair = None; length = None }
let bounded b = b.preempt <> None || b.fair <> None || b.length <> None

let pp_bounds ppf b =
  if not (bounded b) then Format.pp_print_string ppf "unbounded"
  else begin
    let sep = ref false in
    let one name = function
      | None -> ()
      | Some v ->
        if !sep then Format.pp_print_string ppf ", ";
        sep := true;
        Format.fprintf ppf "%s<=%d" name v
    in
    one "preempt" b.preempt;
    one "fair" b.fair;
    one "length" b.length
  end

(* ---- the per-run oracle ---- *)

(* A sleeping process: it was fully explored at some ancestor node and must
   not be rescheduled until a step dependent with its pending one runs. *)
type entry = { sl_pid : int; sl_fp : fp }

let wake sleep fp = List.filter (fun e -> not (dependent e.sl_fp fp)) sleep
let asleep sleep p = List.exists (fun e -> e.sl_pid = p) sleep

(* One committed decision of the current run, with everything the
   backtracking pass needs to re-inspect the position afterwards. *)
type tstep = {
  t_pid : int;
  t_branch : int;
  t_branches : int;
  t_fp : fp;
  t_enabled : int list;
  t_sleep : entry list;  (* sleep set in force before this step. *)
  t_preempts : int;  (* pre-emptive switches strictly before this step. *)
  mutable t_also : int list;  (* mandatory sibling decisions (see [absorb]). *)
}

type status = Running | Sleep_blocked | Bound_blocked | Deduped

(* ---- the persistent scheduler tree (types; operations further down) ---- *)

type node = {
  nd_enabled : int list;
  mutable nd_todo : (int * int) list;  (* decisions awaiting exploration *)
  mutable nd_edges : edge list;  (* explored decisions, in DFS order *)
  mutable nd_drained : bool;  (* set only when no todo is left in this subtree (see [find_next]) *)
}

and edge = {
  ed_pid : int;
  ed_branch : int;
  ed_fp : fp;
  mutable ed_child : node option;
}

(* What the dedup table remembers about a canonical state (stateful DPOR,
   after Yang et al.): the weakest sleep set it was ever reached with
   (Godefroid's revisit rule), the [(pid, footprint)] of every step known
   to occur below it, and the runs that were cut at it — each cut run's
   prefix must be re-raced against summary entries that arrive later.
   Summary entries are interned ids (see [entries]): [v_sum] keeps them in
   arrival order, [v_has] is the same set as a bitset.  A run's marks and
   cut point at these records, so its summary pass looks up no key. *)
type vent = {
  mutable v_sleep : int list;
  mutable v_sum : int list;
  mutable v_has : Bytes.t;
  mutable v_subs : sub list;
}

(* A cut run's subscription keeps only its trace and marks: a re-fire
   rebuilds the race analysis and root path it needs from the trace (see
   [add_sum]).  Nearly no subscription fires again, and every cut run's
   vector clocks and node array would otherwise be most of a walk's heap. *)
and sub = { s_trace : tstep array; s_marks : (vent * int) list }

(* The summary entries of one [explore] call: each distinct [(pid, fp)]
   gets a dense id on first sight, so a summary is a list of ints plus a
   membership bitset.  [intern] assigns ids; [entry] maps them back. *)
type entries = { intern : int -> fp -> int; entry : int -> int * fp }

let new_entries () =
  let module Tbl = Hashtbl.Make (struct
    type t = int * fp

    let equal = ( = )

    let hash (p, fp) =
      Hashtbl.hash
        (List.fold_left (fun h r -> (h * 65599) + r) ((2 * p) + Bool.to_int fp.blocking) fp.regs)
  end) in
  let ids = Tbl.create 16 in
  let table = ref [||] in
  let intern p fp =
    let e = (p, fp) in
    match Tbl.find_opt ids e with
    | Some id -> id
    | None ->
      let id = Tbl.length ids in
      if id = Array.length !table then begin
        let grown = Array.make (max 16 (2 * id)) e in
        Array.blit !table 0 grown 0 id;
        table := grown
      end;
      !table.(id) <- e;
      Tbl.add ids e id;
      id
  in
  { intern; entry = (fun id -> !table.(id)) }

let new_vent sleep = { v_sleep = sleep; v_sum = []; v_has = Bytes.empty; v_subs = [] }

(* Sets of entry ids as bitsets that grow on demand. *)
let bit_mem bits id =
  let i = id lsr 3 in
  i < Bytes.length bits && Char.code (Bytes.get bits i) land (1 lsl (id land 7)) <> 0

let bit_add bits id =
  let i = id lsr 3 in
  let bits =
    if i < Bytes.length bits then bits
    else Bytes.cat bits (Bytes.make (max (i + 1 - Bytes.length bits) (Bytes.length bits)) '\000')
  in
  Bytes.set bits i (Char.chr (Char.code (Bytes.get bits i) lor (1 lsl (id land 7))));
  bits

(* What a run leaves for the next one to resume from (see [resume]): its
   trace, its marks and its saved states as (depth, save), both deepest
   first.  A cut run's cut state is not among the marks, and need not be:
   the next run cannot resume as deep as the cut, because the cut run's
   last step leads to no tree node yet, so no todo lies there. *)
type 'v past = { p_trace : tstep array; p_marks : (vent * int) list; p_saves : (int * 'v) list }

(* The oracle of one run; ['v] is what its runner saves (see [drive]). *)
type ('k, 'v) dpor = {
  d_bounds : bounds;
  d_visited : ('k, vent) Hashtbl.t;  (* canonical state -> bookkeeping *)
  mutable d_prefix : (int * int) list;  (* (pid, branch) decisions to replay *)
  d_div_sleep : entry list;  (* sleep set in force at the divergence point *)
  mutable d_sleep : entry list;
  mutable d_resumed : tstep array * int;
      (* the previous run's trace and how many of its steps this run
         resumed: the first steps of this run's trace (see [trace_of]) *)
  mutable d_trace : tstep list;  (* the steps after those, reversed *)
  mutable d_depth : int;
  mutable d_preempts : int;
  mutable d_last : int option;
  d_counts : (int, int) Hashtbl.t;
  mutable d_status : status;
  mutable d_marks : (vent * int) list;  (* (state, depth) along this run *)
  mutable d_cut : vent option;  (* the covered state this run was cut at *)
  (* A successful [choose] parks (pid, enabled, prefix branch) here until
     the matching [commit] arrives with the footprint. *)
  mutable d_pending : (int * int list * int option) option;
  mutable d_past : 'v past option;
      (* the previous run, when it saved anything, until [resume] used it *)
  mutable d_saves : (int * 'v) list;  (* deepest first *)
}

(* The runs of {!explore} save nothing. *)
type nothing = |

type 'k sched = Dpor of ('k, nothing) dpor | Sample of int

let sampler ~seed = Sample seed

let count d p = Option.value (Hashtbl.find_opt d.d_counts p) ~default:0

let step_in_bounds d ~enabled p =
  let b = d.d_bounds in
  (match b.length with None -> true | Some l -> d.d_depth < l)
  && (match b.preempt with
     | None -> true
     | Some k ->
       let extra =
         match d.d_last with Some q when q <> p && List.mem q enabled -> 1 | _ -> 0
       in
       d.d_preempts + extra <= k)
  && (match b.fair with
     | None -> true
     | Some dd ->
       let least = List.fold_left (fun m q -> min m (count d q)) max_int enabled in
       count d p + 1 - least <= dd)

let choose_dpor d ~enabled =
  if d.d_status <> Running then None
  else begin
    assert (d.d_pending = None);
    match d.d_prefix with
    | (pid, b) :: _ ->
      if not (List.mem pid enabled) then
        failwith "Sched_tree: divergent replay (prefix pid not enabled)";
      d.d_pending <- Some (pid, enabled, Some b);
      Some pid
    | [] -> (
      let awake = List.filter (fun p -> not (asleep d.d_sleep p)) enabled in
      if awake = [] then begin
        d.d_status <- Sleep_blocked;
        None
      end
      else
        match List.filter (step_in_bounds d ~enabled) awake with
        | [] ->
          d.d_status <- Bound_blocked;
          None
        | candidates ->
          (* Prefer continuing the previous process: pre-emption-free by
             construction, which keeps bounded exploration cheap. *)
          let pid =
            match d.d_last with
            | Some q when List.mem q candidates -> q
            | _ -> List.hd candidates
          in
          d.d_pending <- Some (pid, enabled, None);
          Some pid)
  end

let choose (s : _ sched) ~step ~enabled =
  match s with
  | Sample seed ->
    if enabled = [] then None else Scheduler.random ~seed ~step ~runnable:enabled
  | Dpor d -> choose_dpor d ~enabled

(* Whether step [t], taken after a step of [q], pre-empts [q]. *)
let preempts q t = q <> t.t_pid && List.mem q t.t_enabled

(* Append step [t] to the run's trace and advance the bounds' counters. *)
let advance d t =
  d.d_trace <- t :: d.d_trace;
  (match d.d_last with
  | Some q when preempts q t -> d.d_preempts <- d.d_preempts + 1
  | _ -> ());
  d.d_last <- Some t.t_pid;
  if d.d_bounds.fair <> None then Hashtbl.replace d.d_counts t.t_pid (count d t.t_pid + 1);
  d.d_depth <- d.d_depth + 1

let commit_dpor d ~fp ~branches =
  match d.d_pending with
  | None -> invalid_arg "Sched_tree.commit: no choice pending"
  | Some (pid, enabled, from_prefix) ->
    d.d_pending <- None;
    let branch = match from_prefix with Some b -> b | None -> 0 in
    let at_divergence =
      from_prefix <> None && List.compare_length_with d.d_prefix 1 = 0
    in
    let sleep_before =
      match from_prefix with
      | None -> d.d_sleep
      | Some _ -> if at_divergence then d.d_div_sleep else []
    in
    advance d
      {
        t_pid = pid;
        t_branch = branch;
        t_branches = branches;
        t_fp = fp;
        t_enabled = enabled;
        t_sleep = sleep_before;
        t_preempts = d.d_preempts;
        t_also = [];
      };
    (match from_prefix with
    | Some _ ->
      d.d_prefix <- List.tl d.d_prefix;
      if d.d_prefix = [] then d.d_sleep <- wake d.d_div_sleep fp
    | None -> d.d_sleep <- wake d.d_sleep fp);
    branch

let commit (s : _ sched) ~fp ~branches =
  match s with Sample _ -> 0 | Dpor d -> commit_dpor d ~fp ~branches

(* Declare [pid] a mandatory sibling of the step just committed: a
   decision whose effect the step absorbed (see [stepped.absorbed]). *)
let absorb d pid =
  match d.d_trace with
  | [] -> assert false
  | t :: _ -> if not (List.mem pid t.t_also) then t.t_also <- pid :: t.t_also

(* State dedup: a revisit whose stored sleep set is covered by the current
   one cuts the run (the next [choose] returns [None]). *)
let mark d key =
  if d.d_status = Running then begin
    if d.d_prefix <> [] then
      (* Replayed prefix: the state is already in the table (its original
         run marked it) and aborting the replay would orphan the todo —
         but this run's continuation still lies below it, so remember the
         position for the summary pass.  A resumed prefix never gets
         here: [resume] restores these positions from the previous run. *)
      d.d_marks <- (Hashtbl.find d.d_visited key, d.d_depth) :: d.d_marks
    else begin
      let current = List.map (fun e -> e.sl_pid) d.d_sleep in
      match Hashtbl.find_opt d.d_visited key with
      | Some v when List.for_all (fun p -> List.mem p current) v.v_sleep ->
        d.d_status <- Deduped;
        d.d_cut <- Some v
      | Some v ->
        (* Godefroid's revisit rule: re-explore, remembering the weaker
           (intersected) sleep set for future visits. *)
        v.v_sleep <- List.filter (fun p -> List.mem p current) v.v_sleep;
        d.d_marks <- (v, d.d_depth) :: d.d_marks
      | None ->
        let v = new_vent current in
        Hashtbl.add d.d_visited key v;
        d.d_marks <- (v, d.d_depth) :: d.d_marks
    end
  end

let interrupted (s : _ sched) =
  match s with Sample _ -> false | Dpor d -> d.d_status <> Running

let rec drop_while f = function x :: rest when f x -> drop_while f rest | l -> l

(* The run's trace: its resumed steps, as a replay records them (a prefix
   step's sleep set is empty; the divergence step is never resumed), then
   the steps it committed. *)
let trace_of d =
  let base, k = d.d_resumed in
  if d.d_depth = 0 then [||]
  else begin
    let trace = Array.make d.d_depth (if k > 0 then base.(0) else List.hd d.d_trace) in
    for i = 0 to k - 1 do
      let t = base.(i) in
      trace.(i) <- (if t.t_sleep = [] then t else { t with t_sleep = [] })
    done;
    let rec fill i = function
      | [] -> ()
      | t :: rest ->
        trace.(i) <- t;
        fill (i - 1) rest
    in
    fill (d.d_depth - 1) d.d_trace;
    trace
  end

(* Skip the previous run's shared prefix instead of replaying it: return
   the deepest save this run's prefix shares with the previous trace,
   short of the divergence decision, and leave the oracle as replaying
   that far would — [mark] would have recorded the previous run's
   positions, and the bounds' counters stand where that run's left them.
   The previous trace stands in for the resumed steps ([trace_of]).
   [None] when no save applies. *)
let resume d =
  match d.d_past with
  | None -> None
  | Some p -> (
    (* Only this call reads the past: dropping it lets the saves deeper
       than the resumed depth go while this run executes. *)
    d.d_past <- None;
    let limit = min (List.length d.d_prefix - 1) (Array.length p.p_trace) in
    let rec shared i = function
      | (pid, b) :: rest
        when i < limit && pid = p.p_trace.(i).t_pid && b = p.p_trace.(i).t_branch ->
        shared (i + 1) rest
      | _ -> i
    in
    let upto = shared 0 d.d_prefix in
    match drop_while (fun (k, _) -> k > upto) p.p_saves with
    | [] -> None
    | (depth, save) :: _ as saves ->
      d.d_saves <- saves;
      d.d_marks <- drop_while (fun (_, k) -> k > depth) p.p_marks;
      d.d_resumed <- (p.p_trace, depth);
      d.d_depth <- depth;
      if depth > 0 then begin
        (* [t_preempts] counts the pre-emptions before its step. *)
        let t = p.p_trace.(depth - 1) in
        d.d_preempts <-
          t.t_preempts + Bool.to_int (depth > 1 && preempts p.p_trace.(depth - 2).t_pid t);
        d.d_last <- Some t.t_pid
      end;
      if d.d_bounds.fair <> None then
        for i = 0 to depth - 1 do
          let q = p.p_trace.(i).t_pid in
          Hashtbl.replace d.d_counts q (count d q + 1)
        done;
      d.d_prefix <- List.filteri (fun i _ -> i >= depth) d.d_prefix;
      Some save)

(* ---- the persistent scheduler tree: operations ---- *)

let new_node enabled = { nd_enabled = enabled; nd_todo = []; nd_edges = []; nd_drained = false }

(* Enqueue decision [d] at [nodes.(i)], where [nodes] is a run's root path
   (tree nodes are never removed, so an old run's path stays valid), and
   re-open the drained flags along it: every todo insertion goes through
   here, which keeps [find_next]'s invariant. *)
let push_todo nodes i d =
  nodes.(i).nd_todo <- nodes.(i).nd_todo @ [ d ];
  for k = 0 to i do
    nodes.(k).nd_drained <- false
  done

let has_decision node p =
  List.exists (fun e -> e.ed_pid = p) node.nd_edges
  || List.exists (fun (q, _) -> q = p) node.nd_todo

(* The sleep set in force when a todo of [node] is launched: every process
   other than [skip] whose decisions at [node] are all explored and whose
   subtrees are drained.  [find_next] guarantees the latter: it surfaces a
   node's own todos only after every child has returned [None], and a
   flagged child is skipped only because it has no todo below it. *)
let sleep0_of node ~skip =
  let pending p = List.exists (fun (q, _) -> q = p) node.nd_todo in
  let rec gather seen acc = function
    | [] -> List.rev acc
    | e :: rest ->
      if List.mem e.ed_pid seen then gather seen acc rest
      else if e.ed_pid = skip || pending e.ed_pid then gather (e.ed_pid :: seen) acc rest
      else gather (e.ed_pid :: seen) ({ sl_pid = e.ed_pid; sl_fp = e.ed_fp } :: acc) rest
  in
  gather [] [] node.nd_edges

(* Deepest-first: drain every existing subtree before surfacing a node's
   own todos, so [sleep0_of] is sound when a todo is finally launched.
   Invariant: flagged [nd_drained] => no todo in the subtree; every todo
   insertion clears its root path ([push_todo]).  So a flagged subtree is
   skipped without changing the answer, and a lookup descends only the
   unflagged path to the next todo — O(depth × branching), not O(tree). *)
let rec find_next node path =
  let rec over_edges = function
    | [] -> None
    | e :: rest -> (
      match e.ed_child with
      | Some child when not child.nd_drained -> (
        match find_next child ((e.ed_pid, e.ed_branch) :: path) with
        | Some _ as found -> found
        | None -> over_edges rest)
      | _ -> over_edges rest)
  in
  match over_edges node.nd_edges with
  | Some _ as found -> found
  | None -> (
    match node.nd_todo with
    | [] ->
      node.nd_drained <- true;
      None
    | d :: _ -> Some (path, node, d))

(* ---- exhaustive exploration ---- *)

type stats = {
  schedules : int;
  sleep_blocked : int;
  deduped : int;
  elided : int;
  max_depth : int;
}

let exhaustive s = s.elided = 0

let pp_stats ppf s =
  Format.fprintf ppf "%d schedule%s (%d sleep-blocked, %d deduped, %d elided, depth %d)%s"
    s.schedules
    (if s.schedules = 1 then "" else "s")
    s.sleep_blocked s.deduped s.elided s.max_depth
    (if exhaustive s then "" else " [BOUNDED]")

exception Schedule_limit of int

type counters = {
  mutable c_schedules : int;
  mutable c_sleep_blocked : int;
  mutable c_deduped : int;
  mutable c_elided : int;
  mutable c_depth : int;
}

(* Absorbed alternatives (see [absorb]) of the step at [nodes.(i)]:
   mandatory unless the pid is asleep there — asleep means the alternative
   was fully explored at an ancestor and nothing dependent ran since, so
   taking it now would only replay a covered interleaving. *)
let add_also nodes i t =
  if t.t_also <> [] then
    List.iter
      (fun p ->
        if (not (asleep t.t_sleep p)) && not (has_decision nodes.(i) p) then
          push_todo nodes i (p, 0))
      t.t_also

(* Fold a run's trace into the tree and return its root path: the node at
   each depth, in the first [Array.length trace] cells of [!path], which
   grows as needed.  [!path] holds the previous run's root path, and the
   first [shared] steps of [trace] are that run's, so their nodes and
   edges are already in place: only their absorbed alternatives are
   checked again.  Creating a decision's first edge also enqueues its coin
   siblings: branch outcomes are mandatory, not schedule-reducible. *)
let incorporate root path trace ~shared =
  let len = Array.length trace in
  if len > 0 then begin
    (match !root with
    | None -> root := Some (new_node trace.(0).t_enabled)
    | Some _ -> ());
    if Array.length !path < len then begin
      let grown = Array.make (max len (2 * Array.length !path)) (Option.get !root) in
      Array.blit !path 0 grown 0 shared;
      path := grown
    end;
    let nodes = !path in
    (* The last shared step is walked like a new one: its edge leads to
       the first new node, which may not exist yet. *)
    let from = max 0 (shared - 1) in
    for i = 0 to from - 1 do
      add_also nodes i trace.(i)
    done;
    let cursor = ref (if from = 0 then Option.get !root else nodes.(from)) in
    for i = from to len - 1 do
      nodes.(i) <- !cursor;
      let t = trace.(i) in
      let node = !cursor in
      let edge =
        match
          List.find_opt
            (fun e -> e.ed_pid = t.t_pid && e.ed_branch = t.t_branch)
            node.nd_edges
        with
        | Some e -> e
        | None ->
          let e = { ed_pid = t.t_pid; ed_branch = t.t_branch; ed_fp = t.t_fp; ed_child = None } in
          node.nd_edges <- node.nd_edges @ [ e ];
          node.nd_todo <-
            List.filter (fun (p, b) -> not (p = t.t_pid && b = t.t_branch)) node.nd_todo;
          for b' = 0 to t.t_branches - 1 do
            if
              b' <> t.t_branch
              && (not
                    (List.exists
                       (fun e -> e.ed_pid = t.t_pid && e.ed_branch = b')
                       node.nd_edges))
              && not (List.mem (t.t_pid, b') node.nd_todo)
            then push_todo nodes i (t.t_pid, b')
          done;
          e
      in
      add_also nodes i t;
      if i + 1 < len then begin
        (match edge.ed_child with
        | None -> edge.ed_child <- Some (new_node trace.(i + 1).t_enabled)
        | Some _ -> ());
        cursor := Option.get edge.ed_child
      end
    done
  end;
  !path

(* Would scheduling [p] at trace position [i] respect the bounds?  A
   necessary condition only — the run itself re-checks every later step —
   used to reject todo entries at insertion (counted as elided). *)
let insertion_in_bounds bounds trace i p =
  let steps_of q upto =
    let c = ref 0 in
    for j = 0 to upto - 1 do
      if trace.(j).t_pid = q then incr c
    done;
    !c
  in
  (match bounds.length with None -> true | Some l -> i < l)
  && (match bounds.preempt with
     | None -> true
     | Some k ->
       let extra =
         if i > 0 && trace.(i - 1).t_pid <> p && List.mem trace.(i - 1).t_pid trace.(i).t_enabled
         then 1
         else 0
       in
       trace.(i).t_preempts + extra <= k)
  && (match bounds.fair with
     | None -> true
     | Some dd ->
       let least =
         List.fold_left (fun m q -> min m (steps_of q i)) max_int trace.(i).t_enabled
       in
       steps_of p i + 1 - least <= dd)

let plain_add counters bounds nodes trace i p =
  if not (has_decision nodes.(i) p) then begin
    if insertion_in_bounds bounds trace i p then
      push_todo nodes i (p, 0)
    else counters.c_elided <- counters.c_elided + 1
  end

(* Add a backtracking point, plus — under a pre-emption bound — BPOR's
   conservative companion point: the pre-emptive backtrack may lie outside
   the bound, so also try the start of the pre-empted process's segment,
   where taking [p] costs no extra pre-emption. *)
let add_point counters bounds nodes trace i p =
  plain_add counters bounds nodes trace i p;
  if bounds.preempt <> None && i > 0 then begin
    let prev = trace.(i - 1).t_pid in
    if prev <> p && List.mem prev trace.(i).t_enabled then begin
      let k = ref (i - 1) in
      while !k > 0 && trace.(!k - 1).t_pid = prev do
        decr k
      done;
      if List.mem p trace.(!k).t_enabled && not (asleep trace.(!k).t_sleep p) then
        plain_add counters bounds nodes trace !k p
    end
  end

(* Request process [p] at trace position [i] (thread-level backtracking,
   per Flanagan–Godefroid — [p]'s own steps in between do not shield a
   race, they just mean [p]'s segment must start earlier). *)
let request counters bounds nodes trace i p =
  let t = trace.(i) in
  if asleep t.t_sleep p then ()
  else if List.mem p t.t_enabled then add_point counters bounds nodes trace i p
  else
    (* [p] not schedulable at the race point: conservatively re-arm every
       awake alternative there. *)
    List.iter
      (fun q ->
        if q <> t.t_pid && not (asleep t.t_sleep q) then
          add_point counters bounds nodes trace i q)
      t.t_enabled

(* ---- race analysis ---- *)

type analysis = {
  hb : int -> int -> bool;
  races : (int * int) list;
  virtual_races : int -> fp -> int list;
}

(* The race analysis of a trace that grows step by step and can be cut
   back (see [extend] and [cut]), so a walk analyzes only the steps each
   run adds to the prefix it shares with the previous run.

   Happens-before over the trace is program order plus pairwise dependence.
   A step's immediate predecessors are the previous step of its process,
   the last earlier step on each of its registers, the last earlier
   blocking step and, for a blocking step, the last step of every process.
   Steps on a common register are pairwise dependent, and so are blocking
   steps, so every earlier step dependent with step [j] happens before (or
   is) one of [j]'s predecessors.  Hence (a) [j]'s vector clock is the join
   of its predecessors' clocks; (b) a reversible race (i, j) — one that no
   step between them bridges in happens-before order — has [i] among [j]'s
   predecessors; and (c) a predecessor [i] is bridged exactly when it
   happens before another of them.

   Processes get indices by first appearance: [z_pids.(x)] is index [x]'s
   process and [z_first.(x)] the step it first appears at.  Per step [j]:
   [z_vc.(j * z_width + x)] counts the steps of process index [x] that
   happen before-or-at [j] (columns from [z_m] on are 0), [z_seq.(j)] is
   [j]'s occurrence number within its process, [z_pix.(j)] its process
   index and [z_races.(j)] the steps in reversible race with it,
   descending.  The last-access tables describe the first [z_len] steps;
   [z_undo] holds, from [z_undo_at.(j)], what step [j] overwrote in them
   (the last step of its process, the last blocking step, then a
   (register, last step on it) pair per register), so [cut] restores
   them. *)
type analyzer = {
  mutable z_len : int;
  mutable z_m : int;
  mutable z_width : int;
  mutable z_pids : int array;
  mutable z_first : int array;
  mutable z_last_of : int array;
  mutable z_vc : int array;
  mutable z_seq : int array;
  mutable z_pix : int array;
  mutable z_races : int list array;
  mutable z_undo_at : int array;
  mutable z_undo : int array;
  mutable z_undo_top : int;
  mutable z_last_on : int array;  (* by register; -1 where none *)
  mutable z_last_blocking : int;
  mutable z_buf : int array;  (* scratch for [predecessors] *)
}

let analyzer () =
  let steps = 16 and width = 4 in
  {
    z_len = 0;
    z_m = 0;
    z_width = width;
    z_pids = Array.make width 0;
    z_first = Array.make width 0;
    z_last_of = Array.make width (-1);
    z_vc = Array.make (steps * width) 0;
    z_seq = Array.make steps 0;
    z_pix = Array.make steps 0;
    z_races = Array.make steps [];
    z_undo_at = Array.make steps 0;
    z_undo = Array.make (4 * steps) 0;
    z_undo_top = 0;
    z_last_on = Array.make 8 (-1);
    z_last_blocking = -1;
    z_buf = Array.make 16 0;
  }

let grown a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let hb_of z i j = i = j || (i < j && z.z_vc.((j * z.z_width) + z.z_pix.(i)) >= z.z_seq.(i))

let last_on z r = if r < Array.length z.z_last_on then z.z_last_on.(r) else -1

(* Add step [i] (none if negative) to the [n] predecessors in
   [buf.(0 .. n-1)], kept distinct and descending; returns the new count. *)
let add_pred buf n i =
  if i < 0 then n
  else begin
    let k = ref n in
    while !k > 0 && buf.(!k - 1) < i do
      decr k
    done;
    if !k > 0 && buf.(!k - 1) = i then n
    else begin
      for s = n downto !k + 1 do
        buf.(s) <- buf.(s - 1)
      done;
      buf.(!k) <- i;
      n + 1
    end
  end

let rec add_reg_preds z buf n = function
  | [] -> n
  | r :: rest -> add_reg_preds z buf (add_pred buf n (last_on z r)) rest

(* Fill [z_buf] with the predecessors of a step of process index [x] (-1:
   none of the trace's processes) and footprint [fp], placed after every
   step so far; returns their count. *)
let predecessors z x fp =
  let need = z.z_m + List.length fp.regs + 2 in
  if need > Array.length z.z_buf then z.z_buf <- Array.make (2 * need) 0;
  let buf = z.z_buf in
  let n = if x >= 0 then add_pred buf 0 z.z_last_of.(x) else 0 in
  let n = add_pred buf (add_reg_preds z buf n fp.regs) z.z_last_blocking in
  if not fp.blocking then n
  else begin
    let n = ref n in
    for y = 0 to z.z_m - 1 do
      n := add_pred buf !n z.z_last_of.(y)
    done;
    !n
  end

(* The predecessors in [z_buf.(0 .. n-1)] in reversible race with a step
   of process [pid], descending: another process's, and happening before
   no other predecessor (one that it did would be larger, so earlier in
   the buffer). *)
let racing z n pid =
  let buf = z.z_buf in
  let acc = ref [] in
  for a = n - 1 downto 0 do
    let i = buf.(a) in
    if z.z_pids.(z.z_pix.(i)) <> pid then begin
      let b = ref 0 in
      while !b < a && not (hb_of z i buf.(!b)) do
        incr b
      done;
      if !b = a then acc := i :: !acc
    end
  done;
  !acc

let pid_index z pid =
  let rec go x = if x = z.z_m then -1 else if z.z_pids.(x) = pid then x else go (x + 1) in
  go 0

(* Give [pid] the next process index, first appearing at step [j]; a
   wider clock row moves every row kept so far. *)
let add_pid z pid j =
  let x = z.z_m in
  if x = z.z_width then begin
    let width = 2 * x in
    let vc = Array.make (Array.length z.z_seq * width) 0 in
    for k = 0 to z.z_len - 1 do
      Array.blit z.z_vc (k * x) vc (k * width) x
    done;
    z.z_vc <- vc;
    z.z_width <- width;
    z.z_pids <- grown z.z_pids width 0;
    z.z_first <- grown z.z_first width 0;
    z.z_last_of <- grown z.z_last_of width (-1)
  end;
  z.z_pids.(x) <- pid;
  z.z_first.(x) <- j;
  z.z_last_of.(x) <- -1;
  z.z_m <- x + 1;
  x

let push_undo z v =
  if z.z_undo_top = Array.length z.z_undo then z.z_undo <- grown z.z_undo (2 * z.z_undo_top) 0;
  z.z_undo.(z.z_undo_top) <- v;
  z.z_undo_top <- z.z_undo_top + 1

(* Make step [j] the last on each of [regs], logging what it overwrote. *)
let rec set_last_on z j = function
  | [] -> ()
  | r :: rest ->
    if r >= Array.length z.z_last_on then
      z.z_last_on <- grown z.z_last_on (max (r + 1) (2 * Array.length z.z_last_on)) (-1);
    push_undo z r;
    push_undo z z.z_last_on.(r);
    z.z_last_on.(r) <- j;
    set_last_on z j rest

(* Analyze one more step, of process [pid] with footprint [fp]. *)
let extend z pid fp =
  let j = z.z_len in
  if j = Array.length z.z_seq then begin
    let steps = 2 * j in
    z.z_vc <- grown z.z_vc (steps * z.z_width) 0;
    z.z_seq <- grown z.z_seq steps 0;
    z.z_pix <- grown z.z_pix steps 0;
    z.z_races <- grown z.z_races steps [];
    z.z_undo_at <- grown z.z_undo_at steps 0
  end;
  let x = match pid_index z pid with -1 -> add_pid z pid j | x -> x in
  let n = predecessors z x fp in
  let buf = z.z_buf and vc = z.z_vc and m = z.z_m in
  let row = j * z.z_width in
  Array.fill vc row z.z_width 0;
  for a = 0 to n - 1 do
    let from = buf.(a) * z.z_width in
    for y = 0 to m - 1 do
      if vc.(from + y) > vc.(row + y) then vc.(row + y) <- vc.(from + y)
    done
  done;
  vc.(row + x) <- vc.(row + x) + 1;
  z.z_seq.(j) <- vc.(row + x);
  z.z_pix.(j) <- x;
  z.z_races.(j) <- racing z n pid;
  z.z_undo_at.(j) <- z.z_undo_top;
  push_undo z z.z_last_of.(x);
  push_undo z z.z_last_blocking;
  set_last_on z j fp.regs;
  z.z_last_of.(x) <- j;
  if fp.blocking then z.z_last_blocking <- j;
  z.z_len <- j + 1

(* Forget every step from [k] on, as if only the first [k] were ever
   analyzed: the last-access tables get back what those steps overwrote,
   latest first, and processes first seen there lose their indices. *)
let cut z k =
  if k < z.z_len then begin
    for j = z.z_len - 1 downto k do
      let base = z.z_undo_at.(j) in
      let top = ref z.z_undo_top in
      while !top > base + 2 do
        top := !top - 2;
        z.z_last_on.(z.z_undo.(!top)) <- z.z_undo.(!top + 1)
      done;
      z.z_last_blocking <- z.z_undo.(base + 1);
      z.z_last_of.(z.z_pix.(j)) <- z.z_undo.(base);
      z.z_undo_top <- base
    done;
    z.z_len <- k;
    while z.z_m > 0 && z.z_first.(z.z_m - 1) >= k do
      z.z_m <- z.z_m - 1
    done
  end

(* The steps in reversible race with a virtual step [(q, fq)] placed after
   every analyzed step, descending: its predecessors come from the
   last-access tables. *)
let virtual_races z q fq = racing z (predecessors z (pid_index z q) fq) q

let analysis z =
  let races = ref [] in
  for j = z.z_len - 1 downto 0 do
    races := List.map (fun i -> (i, j)) z.z_races.(j) @ !races
  done;
  { hb = hb_of z; races = !races; virtual_races = virtual_races z }

let analyze trace =
  let z = analyzer () in
  Array.iter (fun (pid, fp) -> extend z pid fp) trace;
  analysis z

(* Request the other process at the earlier step of every reversible race
   of the analyzed trace, in the order of [analysis.races]. *)
let add_backtracks counters bounds nodes trace z =
  let rec requests p = function
    | [] -> ()
    | i :: rest ->
      request counters bounds nodes trace i p;
      requests p rest
  in
  for j = 0 to z.z_len - 1 do
    requests trace.(j).t_pid z.z_races.(j)
  done

(* Race the trace's steps against [(q, fq)] steps known to occur somewhere
   below the trace's final state (stateful DPOR's virtual steps): a cut
   run never executed its continuation, so the races its race pass would
   have found against the prefix must be reconstructed from the summary.
   [z] is the trace's analyzer. *)
let virtual_backtracks counters bounds nodes trace z entries ids =
  List.iter
    (fun id ->
      let q, fq = entries.entry id in
      List.iter (fun i -> request counters bounds nodes trace i q) (virtual_races z q fq))
    ids

(* Whether the bitset [a] is a subset of [b]. *)
let bit_subset a b =
  let la = Bytes.length a and lb = Bytes.length b in
  let rec go i =
    i = la
    ||
    let x = Char.code (Bytes.get a i) in
    x land lnot (if i < lb then Char.code (Bytes.get b i) else 0) = 0 && go (i + 1)
  in
  go 0

let extend_over z trace from =
  for j = from to Array.length trace - 1 do
    extend z trace.(j).t_pid trace.(j).t_fp
  done

(* The tree node at each depth of an incorporated trace, found by following
   its [(pid, branch)] edges from [root]: every edge of an incorporated
   trace exists and no node is ever removed, so these are the nodes
   [incorporate] returned for it. *)
let root_path root trace =
  let nodes = Array.make (Array.length trace) root in
  for i = 1 to Array.length trace - 1 do
    let t = trace.(i - 1) in
    let e =
      List.find (fun e -> e.ed_pid = t.t_pid && e.ed_branch = t.t_branch) nodes.(i - 1).nd_edges
    in
    nodes.(i) <- Option.get e.ed_child
  done;
  nodes

(* Grow the summary of [v] by the entries [ids], firing the virtual race
   pass of every run cut at [v] and propagating to the summaries of each
   such run's own ancestors, to a fixpoint (summaries grow monotonically
   within a finite footprint universe, so this terminates).  A re-fire
   rebuilds the cut run's analysis and root path from its trace, with an
   analyzer of its own: the walk's describes the current run, whose cut
   pass may still follow this call.  [ids]
   never repeats an entry (every caller passes a suffix list or a
   summary), so one bit test per entry finds the fresh ones.  Nearly every
   call brings nothing fresh, so that case returns before the queue
   exists. *)
let add_sum root entries counters bounds v ids =
  if List.exists (fun e -> not (bit_mem v.v_has e)) ids then begin
    let queue = Queue.create () in
    Queue.add (v, ids) queue;
    while not (Queue.is_empty queue) do
      let v, es = Queue.pop queue in
      let fresh = List.filter (fun e -> not (bit_mem v.v_has e)) es in
      if fresh <> [] then begin
        v.v_sum <- v.v_sum @ fresh;
        v.v_has <- List.fold_left bit_add v.v_has fresh;
        List.iter
          (fun sub ->
            let trace = sub.s_trace in
            let z = analyzer () in
            extend_over z trace 0;
            virtual_backtracks counters bounds (root_path root trace) trace z entries fresh;
            List.iter (fun (v', _) -> Queue.add (v', fresh) queue) sub.s_marks)
          v.v_subs
      end
    done
  end

(* [suffixes entries trace div] maps each depth [i >= div] to the distinct
   entries of [trace.(i..)], ordered by last occurrence, at index
   [i - div] — one backward sweep down to [div], and consecutive suffixes
   share their tails. *)
let suffixes entries trace div =
  let len = Array.length trace in
  let suf = Array.make (len - div + 1) [] in
  let seen = ref Bytes.empty in
  for j = len - 1 downto div do
    let id = entries.intern trace.(j).t_pid trace.(j).t_fp in
    if bit_mem !seen id then suf.(j - div) <- suf.(j - div + 1)
    else begin
      seen := bit_add !seen id;
      suf.(j - div) <- id :: suf.(j - div + 1)
    end
  done;
  suf

(* The per-run summary pass: every marked state along the trace learns the
   steps that followed it; a run cut at a covered state [v] additionally
   learns [v]'s summarized continuation (everything below [v] counts as
   below each of its own ancestors too), races its prefix against that
   summary now, and subscribes for entries [v] gains later.

   [div] is the run's divergence depth: its first [div] steps are the
   path of an earlier run, which marked the same states at the same
   depths and so already gave each mark at depth [i < div] every entry of
   [trace.(i .. div-1)].  The distinct entries of [trace.(i..)], by last
   occurrence, are those last occurring in [i .. div-1] followed by the
   suffix from [div]; the first part is not fresh, so such a mark gets the
   suffix from [div] alone — the same fresh entries in the same order.
   Likewise an ancestor whose summary already covers [v]'s gains nothing
   from it, which one bitset test shows. *)
let update_summaries entries counters bounds nodes trace z marks cut ~div =
  let root = nodes.(0) in
  let suf = suffixes entries trace div in
  List.iter (fun (v, i) -> add_sum root entries counters bounds v suf.(max 0 (i - div))) marks;
  match cut with
  | None -> ()
  | Some v ->
    v.v_subs <- { s_trace = trace; s_marks = marks } :: v.v_subs;
    virtual_backtracks counters bounds nodes trace z entries v.v_sum;
    List.iter
      (fun (v', _) ->
        if not (bit_subset v.v_has v'.v_has) then add_sum root entries counters bounds v' v.v_sum)
      marks

(* How many leading steps two traces share: the same [(pid, branch)]
   decisions, as [resume] compares them, take a deterministic runner
   through the same steps. *)
let shared_steps a b =
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i < n && a.(i).t_pid = b.(i).t_pid && a.(i).t_branch = b.(i).t_branch then go (i + 1)
    else i
  in
  go 0

(* The exhaustive walk: [run] executes one run under the oracle [d]. *)
let walk ~bounds ~max_schedules ~run ~f =
  let visited = Hashtbl.create 512 in
  let entries = new_entries () in
  let counters =
    { c_schedules = 0; c_sleep_blocked = 0; c_deduped = 0; c_elided = 0; c_depth = 0 }
  in
  let root = ref None in
  let total = ref 0 in
  let continue_ = ref true in
  let past = ref None in
  (* The previous run's trace, its root path and its race analysis: each
     run keeps what it shares with the previous one and adds the rest. *)
  let last = ref [||] in
  let path = ref [||] in
  let z = analyzer () in
  let exec prefix div_sleep =
    incr total;
    if !total > max_schedules then raise (Schedule_limit max_schedules);
    let d =
      {
        d_bounds = bounds;
        d_visited = visited;
        d_prefix = prefix;
        d_div_sleep = div_sleep;
        d_sleep = (if prefix = [] then div_sleep else []);
        d_resumed = ([||], 0);
        d_trace = [];
        d_depth = 0;
        d_preempts = 0;
        d_last = None;
        d_counts = Hashtbl.create 16;
        d_status = Running;
        d_marks = [];
        d_cut = None;
        d_pending = None;
        d_past = !past;
        d_saves = [];
      }
    in
    past := None;
    (match run d with
    | Some result ->
      counters.c_schedules <- counters.c_schedules + 1;
      if not (f result) then continue_ := false
    | None -> (
      match d.d_status with
      | Sleep_blocked -> counters.c_sleep_blocked <- counters.c_sleep_blocked + 1
      | Deduped -> counters.c_deduped <- counters.c_deduped + 1
      | Bound_blocked | Running -> counters.c_elided <- counters.c_elided + 1));
    let trace = trace_of d in
    counters.c_depth <- max counters.c_depth (Array.length trace);
    (* Only the latest run is kept, and only if its machine saved states:
       runners that never save pay nothing for resuming. *)
    past :=
      if d.d_saves = [] then None
      else Some { p_trace = trace; p_marks = d.d_marks; p_saves = d.d_saves };
    let shared = shared_steps !last trace in
    last := trace;
    let nodes = incorporate root path trace ~shared in
    cut z shared;
    extend_over z trace shared;
    add_backtracks counters bounds nodes trace z;
    if d.d_marks <> [] || d.d_cut <> None then
      update_summaries entries counters bounds nodes trace z d.d_marks d.d_cut
        ~div:(min (max 0 (List.length prefix - 1)) (Array.length trace))
  in
  exec [] [];
  (match !root with
  | None -> ()
  | Some r ->
    let rec loop () =
      if !continue_ then
        match find_next r [] with
        | None -> ()
        | Some (path_rev, node, ((p, _) as decision)) ->
          let prefix = List.rev (decision :: path_rev) in
          let div_sleep = sleep0_of node ~skip:p in
          exec prefix div_sleep;
          (* The divergence decision must have become an edge; if the runner
             bailed before reaching it, drop the todo rather than loop. *)
          if List.mem decision node.nd_todo then begin
            node.nd_todo <- List.filter (fun d' -> d' <> decision) node.nd_todo;
            counters.c_elided <- counters.c_elided + 1
          end;
          loop ()
    in
    loop ());
  {
    schedules = counters.c_schedules;
    sleep_blocked = counters.c_sleep_blocked;
    deduped = counters.c_deduped;
    elided = counters.c_elided;
    max_depth = counters.c_depth;
  }

let explore ?(bounds = no_bounds) ?(max_schedules = 200_000) ~run ~f () =
  walk ~bounds ~max_schedules ~run:(fun d -> run (Dpor d)) ~f

(* ---- the step-machine runner ---- *)

type poll = Scheduler.poll = Enabled of int list | Finished of bool
type 's stepped = { fp : fp; branches : int; absorbed : int list; next : int -> 's }

type ('s, 'k, 'r) machine = {
  reset : unit -> 's;
  poll : 's -> 's * poll;
  exec : 's -> enabled:int list -> int -> 's stepped;
  key : ('s -> 'k) option;
  snapshot : ('s -> unit -> 's) option;
  judge : 's -> bool -> 'r;
}

(* The oracle protocol, once: reset, resume, then choose, commit, absorb,
   mark and save at every step until the machine finishes or the oracle
   aborts the run.  The saves are the machine's snapshot thunks. *)
let drive ?(bounds = no_bounds) ?(max_schedules = 200_000) m ~f () =
  let run d =
    let rec go s =
      match m.poll s with
      | s, Finished completed -> Some (m.judge s completed)
      | s, Enabled enabled -> (
        match choose_dpor d ~enabled with
        | None -> None
        | Some id ->
          let st = m.exec s ~enabled id in
          let s = st.next (commit_dpor d ~fp:st.fp ~branches:st.branches) in
          if st.absorbed <> [] then List.iter (absorb d) st.absorbed;
          (match m.key with Some key -> mark d (key s) | None -> ());
          (match m.snapshot with
          | Some snapshot when d.d_status = Running ->
            d.d_saves <- (d.d_depth, snapshot s) :: d.d_saves
          | _ -> ());
          go s)
    in
    let s = m.reset () in
    go (match resume d with Some back -> back () | None -> s)
  in
  walk ~bounds ~max_schedules ~run ~f
