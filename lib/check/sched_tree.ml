open Lb_runtime

(* Re-exported only for bench/workloads, which builds
   [{ Sched_tree.regs; blocking }] and calls [Sched_tree.footprint]; the
   library itself uses [Race]. *)
type fp = Race.fp = { regs : int list; blocking : bool }

let footprint = Race.footprint

type bounds = { preempt : int option; fair : int option; length : int option }

let no_bounds = { preempt = None; fair = None; length = None }
let bounded = function { preempt = None; fair = None; length = None } -> false | _ -> true

let pp_bounds ppf b =
  let one (name, v) = Option.map (Printf.sprintf "%s<=%d" name) v in
  match List.filter_map one [ ("preempt", b.preempt); ("fair", b.fair); ("length", b.length) ] with
  | [] -> Format.pp_print_string ppf "unbounded"
  | parts -> Format.pp_print_string ppf (String.concat ", " parts)

(* ---- the per-run oracle ---- *)

(* A sleeping process: it was fully explored at some ancestor node and must
   not be rescheduled until a step dependent with its pending one runs. *)
type entry = { sl_pid : int; sl_fp : fp }

let wake sleep fp = List.filter (fun e -> not (Race.dependent e.sl_fp fp)) sleep
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
  mutable d_last : int;  (* the process of the last step; -1 before the first *)
  d_counts : (int, int) Hashtbl.t;  (* steps per process, kept under a fairness bound *)
  d_count : int -> int;  (* reads [d_counts]; built once per run, so [fits] takes it free *)
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

(* Whether a step of [p] after a step of [q] pre-empts [q]: [q] was still
   among the [enabled] there. *)
let preempts q p enabled = q <> p && List.mem q enabled

(* Whether process [p] may take the step at [depth] within the bounds [b]:
   [preempted] pre-emptions precede the step, [last] took the step before it
   (-1: none did), [enabled] are enabled there and [q] took [count q] of
   the steps before it.  It decides both a run's choices and the todos the
   walk inserts (where a reject counts as elided); a run re-checks every
   later step itself. *)
let fits b ~depth ~preempted ~last ~enabled ~count p =
  (match b.length with None -> true | Some l -> depth < l)
  && (match b.preempt with
     | None -> true
     | Some k -> preempted + Bool.to_int (preempts last p enabled) <= k)
  && (match b.fair with
     | None -> true
     | Some dd ->
       let least = List.fold_left (fun m q -> min m (count q)) max_int enabled in
       count p + 1 - least <= dd)

(* Whether [p], one of [enabled], may take [d]'s next step: awake, and
   within the bounds. *)
let may_step d ~enabled p =
  (not (asleep d.d_sleep p))
  && fits d.d_bounds ~depth:d.d_depth ~preempted:d.d_preempts ~last:d.d_last ~enabled
       ~count:d.d_count p

(* The first of a list of processes that may take [d]'s next step, or -1. *)
let rec first_step d ~enabled = function
  | [] -> -1
  | p :: rest -> if may_step d ~enabled p then p else first_step d ~enabled rest

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
    | [] ->
      (* Prefer continuing the previous process: pre-emption-free by
         construction, which keeps bounded exploration cheap. *)
      let pid =
        if List.mem d.d_last enabled && may_step d ~enabled d.d_last then d.d_last
        else first_step d ~enabled enabled
      in
      if pid < 0 then begin
        d.d_status <-
          (if List.for_all (asleep d.d_sleep) enabled then Sleep_blocked else Bound_blocked);
        None
      end
      else begin
        d.d_pending <- Some (pid, enabled, None);
        Some pid
      end
  end

let choose (s : _ sched) ~step ~enabled =
  match s with
  | Sample seed -> Scheduler.random ~seed ~step ~runnable:enabled
  | Dpor d -> choose_dpor d ~enabled

(* Append step [t] to the run's trace and advance the bounds' counters. *)
let advance d t =
  d.d_trace <- t :: d.d_trace;
  if preempts d.d_last t.t_pid t.t_enabled then d.d_preempts <- d.d_preempts + 1;
  d.d_last <- t.t_pid;
  if d.d_bounds.fair <> None then Hashtbl.replace d.d_counts t.t_pid (d.d_count t.t_pid + 1);
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

(* How many leading decisions of [prefix], at most [limit], the trace [a]
   shares: the same [(pid, branch)] decisions take a deterministic runner
   through the same steps. *)
let shared_steps a prefix ~limit =
  let rec go i = function
    | (pid, b) :: rest when i < limit && pid = a.(i).t_pid && b = a.(i).t_branch ->
      go (i + 1) rest
    | _ -> i
  in
  go 0 prefix

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
    let upto =
      shared_steps p.p_trace d.d_prefix
        ~limit:(min (List.length d.d_prefix - 1) (Array.length p.p_trace))
    in
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
          t.t_preempts
          + Bool.to_int (depth > 1 && preempts p.p_trace.(depth - 2).t_pid t.t_pid t.t_enabled);
        d.d_last <- t.t_pid
      end;
      if d.d_bounds.fair <> None then
        for i = 0 to depth - 1 do
          let q = p.p_trace.(i).t_pid in
          Hashtbl.replace d.d_counts q (d.d_count q + 1)
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

(* The steps of [q] among the first [i] of [trace]. *)
let steps_before trace i q =
  let c = ref 0 in
  for j = 0 to i - 1 do
    if trace.(j).t_pid = q then incr c
  done;
  !c

(* Enqueue [p] at trace position [i] unless already decided there; a todo
   outside the bounds is not inserted but counted as elided.  An unbounded
   walk skips [fits], and with it the [count] closure. *)
let plain_add counters bounds nodes trace i p =
  if not (has_decision nodes.(i) p) then begin
    let t = trace.(i) in
    if
      (not (bounded bounds))
      || fits bounds ~depth:i ~preempted:t.t_preempts
           ~last:(if i = 0 then -1 else trace.(i - 1).t_pid)
           ~enabled:t.t_enabled ~count:(steps_before trace i) p
    then push_todo nodes i (p, 0)
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
    if preempts prev p trace.(i).t_enabled then begin
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

(* Request the other process at the earlier step of every reversible race
   of the analyzed trace, in the order of [analysis.races]. *)
let add_backtracks counters bounds nodes trace z =
  let rec requests p = function
    | [] -> ()
    | i :: rest ->
      request counters bounds nodes trace i p;
      requests p rest
  in
  for j = 0 to Race.length z - 1 do
    requests trace.(j).t_pid (Race.races_at z j)
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
      List.iter (fun i -> request counters bounds nodes trace i q) (Race.virtual_races z q fq))
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
    Race.extend z trace.(j).t_pid trace.(j).t_fp
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
            let z = Race.analyzer () in
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
  let z = Race.analyzer () in
  let exec prefix div_sleep =
    incr total;
    if !total > max_schedules then raise (Schedule_limit max_schedules);
    let counts = Hashtbl.create 16 in
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
        d_last = -1;
        d_counts = counts;
        d_count = (fun p -> Option.value (Hashtbl.find_opt counts p) ~default:0);
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
    (* Where the two runs part lies within [prefix]: the divergence
       decision is a todo, so it differs from the previous run's decision
       at its node. *)
    let shared =
      shared_steps !last prefix ~limit:(min (Array.length !last) (Array.length trace))
    in
    last := trace;
    let nodes = incorporate root path trace ~shared in
    Race.cut z shared;
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
