exception Self_move = Semantics.Self_move

type directive = Semantics.directive = Proceed | Fail_sc

type interposer = Semantics.interposer

type tap = pid:int -> Op.invocation -> Op.response -> spurious:bool -> unit

(* Registers are allocated densely from 0 by [Layout], and per-process
   shared-access counts are indexed by pids 0 .. n-1 — so both live in flat
   growable arrays (a single bounds check and load on the hot path, no
   hashing, no probe-then-store double lookup).  Register indices at or
   above [dense_regs_limit] — legal but unheard of in practice — spill into
   a hashtable so the arrays stay proportional to the registers actually
   used. *)
let dense_regs_limit = 1 lsl 20

type t = {
  mutable regs : Semantics.reg option array; (* index = register, < dense_regs_limit *)
  sparse_regs : (int, Semantics.reg) Hashtbl.t; (* registers >= dense_regs_limit *)
  default : Semantics.reg;
  mutable counts : int array; (* index = pid; length grows by doubling *)
  mutable total : int;
  mutable interposer : interposer option;
  mutable tap : tap option;
  model : Memory_model.t;
  mutable buffers : Semantics.buffers;
}

let create ?(default = Value.Unit) ?(model = Memory_model.SC) () =
  {
    regs = Array.make 64 None;
    sparse_regs = Hashtbl.create 4;
    default = (default, Ids.empty);
    counts = Array.make 16 0;
    total = 0;
    interposer = None;
    tap = None;
    model;
    buffers = Semantics.no_buffers;
  }

let model m = m.model

let set_interposer m i = m.interposer <- i
let set_tap m tap = m.tap <- tap

let grow_to_hold a len ~default =
  let n = max 1 (Array.length a) in
  let n = ref n in
  while !n <= len do
    n := 2 * !n
  done;
  let a' = Array.make !n default in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let find_reg m r =
  if r < dense_regs_limit then
    if r < Array.length m.regs then Array.unsafe_get m.regs r else None
  else Hashtbl.find_opt m.sparse_regs r

module Store = struct
  type nonrec t = t

  let model m = m.model
  let interposer m = m.interposer
  let peek m r = match find_reg m r with Some reg -> reg | None -> m.default

  let set m r reg =
    if r < dense_regs_limit then begin
      if r >= Array.length m.regs then m.regs <- grow_to_hold m.regs r ~default:None;
      Array.unsafe_set m.regs r (Some reg)
    end
    else Hashtbl.replace m.sparse_regs r reg;
    m

  (* An operation materialises the register it reads, so [touched] lists
     every register ever operated on. *)
  let load m r =
    match find_reg m r with
    | Some reg -> reg
    | None ->
      ignore (set m r m.default);
      m.default

  let buffers m = m.buffers

  let set_buffers m b =
    m.buffers <- b;
    m
end

module Sem = Semantics.Make (Store)

let set_init m r v = ignore (Sem.init m r v)

let flushable = Sem.flushable
let flush m ~pid ~reg = ignore (Sem.flush m ~pid ~reg)
let drain_all m = ignore (Sem.drain_all m)
let buffers = Sem.buffers
let flush_ids = Sem.flush_ids
let peek = Sem.peek
let pset = Sem.pset

let count m pid =
  m.total <- m.total + 1;
  if pid >= Array.length m.counts then m.counts <- grow_to_hold m.counts pid ~default:0;
  Array.unsafe_set m.counts pid (Array.unsafe_get m.counts pid + 1)

let apply m ~pid invocation =
  let response, _ = Sem.apply m ~pid invocation in
  count m pid;
  (match m.tap with
  | None -> ()
  | Some tap ->
    (* Under strong LL/SC a failed SC's issuer is unlinked, and a failed SC
       changes nothing — so a failed SC whose issuer is still linked failed
       spuriously. *)
    let spurious =
      match (invocation, response) with
      | Op.Sc (r, _), Op.Flagged (false, _) -> Ids.mem pid (pset m r)
      | _ -> false
    in
    tap ~pid invocation response ~spurious);
  response

(* Register values, Psets and buffers are immutable, so a checkpoint copies
   only the cells' slots: the dense registers up to the last materialised
   one and the counts up to the last process that has one. *)
type checkpoint = {
  c_regs : Semantics.reg option array;
  c_sparse : (int * Semantics.reg) list;
  c_counts : int array;
  c_total : int;
  c_buffers : Semantics.buffers;
}

let checkpoint m =
  let regs = ref (Array.length m.regs) in
  while !regs > 0 && Option.is_none m.regs.(!regs - 1) do
    decr regs
  done;
  let pids = ref (Array.length m.counts) in
  while !pids > 0 && m.counts.(!pids - 1) = 0 do
    decr pids
  done;
  {
    c_regs = Array.sub m.regs 0 !regs;
    c_sparse = Hashtbl.fold (fun r reg acc -> (r, reg) :: acc) m.sparse_regs [];
    c_counts = Array.sub m.counts 0 !pids;
    c_total = m.total;
    c_buffers = m.buffers;
  }

let restore m c =
  let regs = Array.length c.c_regs in
  Array.blit c.c_regs 0 m.regs 0 regs;
  Array.fill m.regs regs (Array.length m.regs - regs) None;
  Hashtbl.reset m.sparse_regs;
  List.iter (fun (r, reg) -> Hashtbl.replace m.sparse_regs r reg) c.c_sparse;
  let pids = Array.length c.c_counts in
  Array.blit c.c_counts 0 m.counts 0 pids;
  Array.fill m.counts pids (Array.length m.counts - pids) 0;
  m.total <- c.c_total;
  m.buffers <- c.c_buffers

let fold_regs f m acc =
  let acc = ref acc in
  Array.iteri
    (fun r reg -> match reg with Some reg -> acc := f r reg !acc | None -> ())
    m.regs;
  Hashtbl.fold (fun r reg acc -> f r reg acc) m.sparse_regs !acc

let touched m = fold_regs (fun r _ acc -> r :: acc) m [] |> List.sort Int.compare

let snapshot m = touched m |> List.map (fun r -> (r, Store.peek m r))

let largest_value_size m = fold_regs (fun _ (v, _) acc -> max acc (Value.size v)) m 0

let ops_of m ~pid =
  if pid >= 0 && pid < Array.length m.counts then m.counts.(pid) else 0

let total_ops m = m.total
let max_ops m = Array.fold_left max 0 m.counts
