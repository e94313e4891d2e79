(* The hardware memory: the paper's LL/SC + VL/swap/move register model
   realized on OCaml 5 [Atomic] cells via the Blelloch–Wei recipe —
   "LL/SC and Atomic Copy: constant-time, space-efficient implementations
   from pointer-width CAS" (PAPERS.md).

   Each register is an [Atomic.t] holding a pointer to an immutable
   {i cell} (a tag plus the value).  Every write — a successful SC, a
   swap, a move landing — installs a {e freshly allocated} cell, so two
   observations of the same pointer mean no write happened in between:
   under a garbage collector a cell's address cannot be recycled while a
   linked reference to it is still live, which removes the ABA hazard
   the tag guards against in manual-memory settings.  The tag is kept
   anyway (monotone per overwritten cell) as a cheap diagnostic and to
   stay recognizably the "tagged indirection" construction.

   LL records the observed cell in a per-process link slot; SC succeeds
   iff [compare_and_set] from that exact cell succeeds.  This gives the
   {e strong} semantics of {!Lb_memory.Memory} — SC succeeds exactly
   when no write intervened since the link — because in the paper's
   model {e every} write (SC, swap, move) clears the register's Pset,
   and here every write replaces the cell pointer.  Programs written
   against the simulator run unchanged; spurious SC failure remains
   {e permitted} by their retry structure, and on this backend it simply
   never happens outside genuine contention.

   Concurrency contract: [apply ~pid] must only be called from the one
   domain that owns [pid].  Link slots and per-pid op counters are
   single-writer; registers are the only shared state, and they are
   touched exclusively through [Atomic]. *)

open Lb_memory

type cell = { tag : int; v : Value.t }

type t = {
  regs : cell Atomic.t array;
  links : cell option array array;  (** [links.(pid).(r)]: pid's LL link into register r. *)
  counts : int array;  (** shared-access counts, one padded slot per pid. *)
  n : int;
  capacity : int;
  default : Value.t;
}

(* One counter per cache line: the per-op counts feed the measured
   cost-per-op deltas, and false sharing between domains would put the
   measurement itself on the contention path. *)
let count_stride = 8

let create ?(default = Value.Unit) ~registers ~n () =
  if n <= 0 then invalid_arg "Hw_memory.create: n must be positive";
  if registers <= 0 then invalid_arg "Hw_memory.create: registers must be positive";
  {
    regs = Array.init registers (fun _ -> Atomic.make { tag = 0; v = default });
    links = Array.init n (fun _ -> Array.make registers None);
    counts = Array.make (n * count_stride) 0;
    n;
    capacity = registers;
    default;
  }

let n t = t.n
let capacity t = t.capacity

let reg t r =
  if r < 0 || r >= t.capacity then
    invalid_arg (Printf.sprintf "Hw_memory: register R%d out of range (capacity %d)" r t.capacity)
  else Array.unsafe_get t.regs r

(* Pre-run initialization only: not linearizable against concurrent
   accesses (it does not clear link slots). *)
let set_init t r v = Atomic.set (reg t r) { tag = 0; v }

let install_layout t layout =
  List.iter (fun (r, v) -> set_init t r v) (Layout.inits layout)

let of_layout ?default layout ~n () =
  let registers = Layout.next_free layout + 8 in
  let t = create ?default ~registers ~n () in
  install_layout t layout;
  t

let peek t r = (Atomic.get (reg t r)).v

let ops_of t ~pid = t.counts.(pid * count_stride)
let total_ops t =
  let sum = ref 0 in
  for pid = 0 to t.n - 1 do
    sum := !sum + ops_of t ~pid
  done;
  !sum

let max_ops t =
  let m = ref 0 in
  for pid = 0 to t.n - 1 do
    if ops_of t ~pid > !m then m := ops_of t ~pid
  done;
  !m

(* One shared-memory operation, executed on pid's own domain.  Response
   shapes mirror lib/memory/memory.ml exactly; the semantic parity is
   pinned differentially in the test suite. *)
let apply t ~pid (inv : Op.invocation) : Op.response =
  let links = Array.unsafe_get t.links pid in
  let response =
    match inv with
    | Op.Ll r ->
      let a = reg t r in
      let c = Atomic.get a in
      links.(r) <- Some c;
      Op.Value c.v
    | Op.Sc (r, v) ->
      let a = reg t r in
      (match links.(r) with
      | None ->
        (* No outstanding link: the simulator's pid-not-in-Pset failure. *)
        Op.Flagged (false, (Atomic.get a).v)
      | Some c ->
        links.(r) <- None;
        if Atomic.compare_and_set a c { tag = c.tag + 1; v } then Op.Flagged (true, c.v)
        else Op.Flagged (false, (Atomic.get a).v))
    | Op.Validate r ->
      let a = reg t r in
      let cur = Atomic.get a in
      let linked = match links.(r) with Some c -> c == cur | None -> false in
      Op.Flagged (linked, cur.v)
    | Op.Swap (r, v) ->
      let a = reg t r in
      let cur = Atomic.get a in
      let old = Atomic.exchange a { tag = cur.tag + 1; v } in
      links.(r) <- None;
      Op.Value old.v
    | Op.Move (src, dst) ->
      if src = dst then raise (Memory.Self_move { pid; reg = src });
      (* Read-then-exchange: not a single atomic copy (Blelloch–Wei's
         full construction); the recorded history is what certifies any
         run that exercises it. *)
      let sv = (Atomic.get (reg t src)).v in
      let a = reg t dst in
      let cur = Atomic.get a in
      ignore (Atomic.exchange a { tag = cur.tag + 1; v = sv });
      links.(dst) <- None;
      Op.Ack
    | Op.Write (r, v) ->
      (* The native backend runs on real hardware: plain stores are applied
         immediately (OCaml atomics are SC), so it models only the SC member
         of the {!Memory_model} axis. *)
      let a = reg t r in
      let cur = Atomic.get a in
      ignore (Atomic.exchange a { tag = cur.tag + 1; v });
      links.(r) <- None;
      Op.Ack
    | Op.Fence -> Op.Ack
  in
  let slot = pid * count_stride in
  Array.unsafe_set t.counts slot (Array.unsafe_get t.counts slot + 1);
  response
