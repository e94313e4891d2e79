(* Per-operation memory cost, measured on the workload's own operations.

   The traced run records the shared-memory operations its mirror executes
   (pid and invocation, in order), in segments that each start from known
   initial registers, and this module replays them through [Memory.apply]
   and [Pure_memory.apply].  Every pass builds fresh memories outside the
   timed loop; the reported cost is the median over passes.  Replays run
   under SC whatever the workload's model: the point is the cost of one
   [apply], not the outcome. *)

open Lowerbound

type segment = { inits : (int * Value.t) list; ops : (int * Op.invocation) array }

(* Enough operations for a stable per-op figure without holding a whole
   exhaustive walk in memory. *)
let cap = 200_000

type recorder = {
  mutable closed : segment list;  (** newest first. *)
  mutable segment_inits : (int * Value.t) list;
  mutable current : (int * Op.invocation) list;  (** newest first. *)
  mutable len : int;
}

let recorder () = { closed = []; segment_inits = []; current = []; len = 0 }

let close r =
  if r.current <> [] then
    r.closed <- { inits = r.segment_inits; ops = Array.of_list (List.rev r.current) } :: r.closed;
  r.current <- []

(* Later operations replay on a fresh memory holding [inits]. *)
let start r ~inits =
  close r;
  r.segment_inits <- inits

let record r pid inv =
  if r.len < cap then begin
    r.current <- (pid, inv) :: r.current;
    r.len <- r.len + 1
  end

let segments r =
  close r;
  List.rev r.closed

let min_passes = 5
let min_ns = 200_000_000

let ns_per_op segments ~fresh ~apply_all =
  let total = List.fold_left (fun a s -> a + Array.length s.ops) 0 segments in
  if total = 0 then 0.0
  else begin
    let samples = ref [] and spent = ref 0 and passes = ref 0 in
    while !passes < min_passes || !spent < min_ns do
      let memories = List.map (fun (s : segment) -> fresh s.inits) segments in
      let t0 = Spans.now_ns () in
      List.iter2 (fun m s -> apply_all m s.ops) memories segments;
      let dt = Spans.now_ns () - t0 in
      spent := !spent + dt;
      incr passes;
      samples := (float_of_int dt /. float_of_int total) :: !samples
    done;
    Stats.median !samples
  end

let memory_ns segments =
  ns_per_op segments
    ~fresh:(fun inits ->
      let m = Memory.create () in
      List.iter (fun (r, v) -> Memory.set_init m r v) inits;
      m)
    ~apply_all:(fun m ops -> Array.iter (fun (pid, inv) -> ignore (Memory.apply m ~pid inv)) ops)

let pure_memory_ns segments =
  ns_per_op segments
    ~fresh:(fun inits -> Pure_memory.create ~inits ())
    ~apply_all:(fun m ops ->
      ignore (Array.fold_left (fun m (pid, inv) -> snd (Pure_memory.apply m ~pid inv)) m ops))
