open Lb_memory

type step = {
  pid : int;
  seq : int;
  op : Value.t;
  response : Value.t;
  was_pending : bool;
}

type stats = { states : int; memo_hits : int }

type verdict =
  | Linearizable of { witness : step list; stats : stats }
  | Not_linearizable of { stats : stats; completed : int; bad_prefix : int }
  | Budget_exhausted of { stats : stats; budget : int }

exception Out_of_budget

(* Op [i] of a taken set is bit [i mod word_bits] of word [i / word_bits]. *)
let word_bits = Sys.int_size

let same_state state state' = state' == state || Value.equal state' state

(* Wing–Gong DFS over one history.  Returns the witness or None; raises
   [Out_of_budget] when more than [max_states] distinct search nodes were
   expanded.  Memoization is on failure: a (taken-set, abstract-state) pair
   that already failed to extend to a full witness order never will.  The
   state is interned by [Value.equal]: equal states are exactly those with
   the same printed form (tested).

   A node first tries completed ops that leave the state equal: they move
   the search on without changing the state.  Then it tries the other
   completed ops, then pending ops that move the state, each group in
   history order.  Any order finds a witness when there is one; this one
   expands fewer nodes on read-heavy histories (docs/PERFORMANCE.md,
   section 6).  A pending op that leaves the state equal is never
   taken: pending ops precede nothing, so dropping such a step from a
   witness leaves a witness. *)
let solve ~max_states (spec : Spec.t) (history : History.t) =
  (* The state-interning and memo tables.  The functors are applied here,
     not at the top level: applied when the module loads, they raised the
     peak RSS of a workload that never calls the checker by 6%, through GC
     pacing alone (docs/PERFORMANCE.md, section 6). *)
  let module States = Hashtbl.Make (struct
    type t = Value.t

    let equal = Value.equal
    let hash = Value.hash
  end) in
  let module Keys = Hashtbl.Make (struct
    type t = int array

    let equal (a : t) b = a = b
    let hash (a : t) = Hashtbl.hash (Array.fold_left (fun h w -> (h * 65599) + w) 0 a)
  end) in
  let ops = Array.of_list history in
  let nops = Array.length ops in
  let words = (nops + word_bits - 1) / word_bits in
  let indices keep = List.filter keep (List.init nops Fun.id) |> Array.of_list in
  let is_completed i =
    match ops.(i).History.outcome with History.Completed _ -> true | History.Pending -> false
  in
  let completed = indices is_completed in
  let pending = indices (fun i -> not (is_completed i)) in
  let num_completed = Array.length completed in
  (* [preds.(i)]: the completed ops, other than [i], that responded before
     [i] was invoked.  An untaken op is enabled when all of them are taken
     (Wing–Gong minimality: the candidate is minimal in the real-time
     precedence order).  Pending ops never precede anything — they have no
     response. *)
  let preds =
    Array.init nops (fun i ->
        let inv = ops.(i).History.invoked in
        let p = Array.make words 0 in
        Array.iter
          (fun j ->
            match ops.(j).History.outcome with
            | History.Completed { responded; _ } when j <> i && responded < inv ->
              p.(j / word_bits) <- p.(j / word_bits) lor (1 lsl (j mod word_bits))
            | History.Completed _ | History.Pending -> ())
          completed;
        p)
  in
  (* [key] holds the taken set in its first [words] words and, at a
     lookup, the state id in its last; a failed node stores a copy. *)
  let key = Array.make (words + 1) 0 in
  let flip i = key.(i / word_bits) <- key.(i / word_bits) lxor (1 lsl (i mod word_bits)) in
  let taken i = key.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0 in
  let enabled i =
    let p = preds.(i) in
    let rec go w = w = words || (p.(w) land lnot key.(w) = 0 && go (w + 1)) in
    go 0
  in
  (* A completed op [i] is enabled only if every completed op that
     responded before [i] was invoked is taken, so no op invoked after the
     first untaken completed op responded is.  [first_inv.(k)]: the
     earliest invocation among completed ops [k] on; a node stops
     scanning at the first [k] where it is past that response. *)
  let responded i =
    match ops.(i).History.outcome with
    | History.Completed { responded; _ } -> responded
    | History.Pending -> max_int
  in
  let first_inv = Array.make (num_completed + 1) max_int in
  for k = num_completed - 1 downto 0 do
    first_inv.(k) <- min ops.(completed.(k)).History.invoked first_inv.(k + 1)
  done;
  (* The movers of every node on the current path: a node pushes each
     op [i] it defers, with its [(state', response)], at [top] and pops
     them when it returns, so a node allocates nothing of its own and the
     stack holds no more than the path's enabled ops. *)
  let mover_op = ref (Array.make 8 0) in
  let mover_next = ref (Array.make 8 (Value.Unit, Value.Unit)) in
  let top = ref 0 in
  let push i next =
    let len = Array.length !mover_op in
    if !top = len then begin
      let grow a = Array.append a (Array.make len a.(0)) in
      mover_op := grow !mover_op;
      mover_next := grow !mover_next
    end;
    !mover_op.(!top) <- i;
    !mover_next.(!top) <- next;
    incr top
  in
  (* Both tables start small.  Many searches are short (each [bad_prefix]
     step is one), and a bucket array over 256 words is allocated straight
     on the major heap at every call, where it raises peak RSS. *)
  let ids = States.create 16 in
  let intern state =
    match States.find_opt ids state with
    | Some id -> id
    | None ->
      let id = States.length ids in
      States.add ids state id;
      id
  in
  let memo = Keys.create 16 in
  let states = ref 0 in
  let memo_hits = ref 0 in
  (* The first untaken completed op from the [k]-th on; a node has one
     left.  No op invoked after it responded is enabled. *)
  let rec first_untaken k = if taken completed.(k) then first_untaken (k + 1) else k in
  let rec search state taken_completed =
    if taken_completed = num_completed then Some []
    else begin
      let id = intern state in
      key.(words) <- id;
      if Keys.mem memo key then begin
        incr memo_hits;
        None
      end
      else begin
        incr states;
        if !states > max_states then raise Out_of_budget;
        let base = !top in
        let u = first_untaken 0 in
        let result =
          match scan state taken_completed (responded completed.(u)) u with
          | Some _ as r -> r
          | None -> (
            match movers taken_completed base with
            | Some _ as r -> r
            | None -> pending_from state taken_completed 0)
        in
        top := base;
        if Option.is_none result then begin
          key.(words) <- id;
          Keys.add memo (Array.copy key) ()
        end;
        result
      end
    end
  (* The completed ops from the [k]-th on: a matching op that leaves
     [state] equal is taken at once, one that moves it is pushed. *)
  and scan state taken_completed horizon k =
    if k = num_completed || first_inv.(k) > horizon then None
    else
      let i = completed.(k) in
      if taken i || not (enabled i) then scan state taken_completed horizon (k + 1)
      else
        let ((state', response) as next) = spec.Spec.apply state ops.(i).History.op in
        match ops.(i).History.outcome with
        | History.Completed c when Value.equal c.response response ->
          if same_state state state' then
            match take i state' response ~was_pending:false taken_completed with
            | Some _ as r -> r
            | None -> scan state taken_completed horizon (k + 1)
          else begin
            push i next;
            scan state taken_completed horizon (k + 1)
          end
        | History.Completed _ | History.Pending -> scan state taken_completed horizon (k + 1)
  (* The movers pushed by this node, from stack slot [j] on. *)
  and movers taken_completed j =
    if j = !top then None
    else
      let state', response = !mover_next.(j) in
      match take !mover_op.(j) state' response ~was_pending:false taken_completed with
      | Some _ as r -> r
      | None -> movers taken_completed (j + 1)
  (* The pending ops that move [state], from the [k]-th pending op on.
     They come last, so they are applied only when no completed op
     led to a witness. *)
  and pending_from state taken_completed k =
    if k = Array.length pending then None
    else
      let i = pending.(k) in
      if taken i || not (enabled i) then pending_from state taken_completed (k + 1)
      else
        let state', response = spec.Spec.apply state ops.(i).History.op in
        if same_state state state' then pending_from state taken_completed (k + 1)
        else
          match take i state' response ~was_pending:true taken_completed with
          | Some _ as r -> r
          | None -> pending_from state taken_completed (k + 1)
  and take i state' response ~was_pending taken_completed =
    let o = ops.(i) in
    flip i;
    let rest = search state' (if was_pending then taken_completed else taken_completed + 1) in
    flip i;
    match rest with
    | Some rest ->
      Some
        ({ pid = o.History.pid; seq = o.History.seq; op = o.History.op; response; was_pending }
        :: rest)
    | None -> None
  in
  let witness = search spec.Spec.init 0 in
  (witness, { states = !states; memo_hits = !memo_hits }, num_completed)

(* The first violating prefix: order the completed responses r_1 < ... <
   r_C; the k-th prefix keeps operations completed by r_k, truncates
   operations invoked before r_k but not yet responded to pending, and drops
   the rest.  A prefix of a linearizable history is linearizable, so the
   first failing k certifies exactly where linearizability was lost —
   unless a shorter prefix's search ran out of budget, which the scan
   passes over. *)
let prefix_at history r_k =
  List.filter_map
    (fun (o : History.op) ->
      match o.History.outcome with
      | History.Completed { responded; _ } when responded <= r_k -> Some o
      | History.Completed _ | History.Pending ->
        if o.History.invoked < r_k then Some { o with History.outcome = History.Pending }
        else None)
    history

let bad_prefix ~max_states spec history num_completed =
  let response_times =
    List.filter_map
      (fun (o : History.op) ->
        match o.History.outcome with
        | History.Completed { responded; _ } -> Some responded
        | History.Pending -> None)
      history
    |> List.sort Int.compare
  in
  let rec scan k = function
    | [] -> num_completed
    | r :: rest -> (
      match solve ~max_states spec (prefix_at history r) with
      | None, _, _ -> k
      | Some _, _, _ | (exception Out_of_budget) -> scan (k + 1) rest)
  in
  scan 1 response_times

let check ?(max_states = 200_000) (spec : Spec.t) (history : History.t) =
  match solve ~max_states spec history with
  | Some witness, stats, _ -> Linearizable { witness; stats }
  | None, stats, completed ->
    Not_linearizable
      { stats; completed; bad_prefix = bad_prefix ~max_states spec history completed }
  | exception Out_of_budget ->
    Budget_exhausted { stats = { states = max_states; memo_hits = 0 }; budget = max_states }

let is_linearizable ?max_states spec history =
  match check ?max_states spec history with
  | Linearizable _ -> true
  | Not_linearizable _ | Budget_exhausted _ -> false

let pp_step ppf s =
  Format.fprintf ppf "p%d#%d %a -> %a%s" s.pid s.seq Value.pp s.op Value.pp s.response
    (if s.was_pending then " (pending)" else "")

let pp_verdict ppf = function
  | Linearizable { witness; stats } ->
    Format.fprintf ppf "linearizable (%d ops, %d states)" (List.length witness) stats.states
  | Not_linearizable { stats; completed; bad_prefix } ->
    Format.fprintf ppf "NOT linearizable: first %d of %d responses already violate (%d states)"
      bad_prefix completed stats.states
  | Budget_exhausted { budget; _ } ->
    Format.fprintf ppf "inconclusive: state budget %d exhausted" budget
