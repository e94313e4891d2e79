open Lb_memory

type fp = { regs : int list; blocking : bool }

let dependent a b =
  a.blocking || b.blocking || List.exists (fun r -> List.mem r b.regs) a.regs

let footprint = function
  | Op.Ll r | Op.Sc (r, _) | Op.Validate r | Op.Swap (r, _) | Op.Write (r, _) -> [ r ]
  | Op.Move (src, dst) -> [ src; dst ]
  | Op.Fence -> []

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

let length z = z.z_len
let races_at z j = z.z_races.(j)

let analysis z =
  let races = ref [] in
  for j = z.z_len - 1 downto 0 do
    races := List.map (fun i -> (i, j)) z.z_races.(j) @ !races
  done;
  { hb = hb_of z; races = !races; virtual_races = virtual_races z }
