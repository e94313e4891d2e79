open Lb_memory
open Lb_runtime
open Program.Syntax

let levels n =
  let n = max n 2 in
  let rec go l pow = if pow >= n then l else go (l + 1) (pow * 2) in
  go 0 1

let worst_case ~n = (8 * levels n) + 9

let create layout ~n spec =
  if n <= 0 then invalid_arg "Adt_tree.create: n must be positive";
  let height = levels n in
  let m = 1 lsl height in
  (* Heap layout: internal nodes 1 .. m-1; leaf i sits at heap index m + i.
     Index 0 of [internal] is unused. *)
  let internal =
    Array.init m (fun j -> if j = 0 then -1 else Layout.alloc layout ~init:Codec.Dset.empty)
  in
  let leaves = Layout.alloc_array layout ~len:m ~init:Codec.Dset.empty in
  let root_rec = Layout.alloc layout ~init:(Codec.Root.initial spec.Lb_objects.Spec.init) in
  let reg_of_heap j = if j < m then internal.(j) else leaves.(j - m) in
  (* One merge attempt at internal node [j]: fold both children into it. *)
  let merge_once j =
    let* current = Program.ll internal.(j) in
    let* left = Program.read (reg_of_heap (2 * j)) in
    let* right = Program.read (reg_of_heap ((2 * j) + 1)) in
    let merged = Codec.Dset.union current (Codec.Dset.union left right) in
    let* _ok = Program.sc_flag internal.(j) merged in
    Program.return ()
  in
  let absorb_once () =
    let* current = Program.ll root_rec in
    let* pending = Program.read internal.(1) in
    let record = Codec.Root.update spec current (Codec.Dset.decode pending) in
    let* _ok = Program.sc_flag root_rec record in
    Program.return ()
  in
  let apply ~pid ~seq op =
    if pid < 0 || pid >= n then invalid_arg (Printf.sprintf "adt-tree: pid %d out of range" pid);
    let desc = { Codec.Desc.pid; seq; op } in
    let key = Codec.Desc.key desc in
    (* Publish at the leaf: the leaf is single-writer, so validate-then-swap
       cannot lose concurrent updates. *)
    let* image = Program.read leaves.(pid) in
    let* _old = Program.swap leaves.(pid) (Codec.Dset.add image desc) in
    (* Climb the tree, two merge attempts per node. *)
    let rec climb j =
      if j < 1 then Program.return ()
      else
        let* () = merge_once j in
        let* () = merge_once j in
        climb (j / 2)
    in
    let* () = climb ((m + pid) / 2) in
    let* () = absorb_once () in
    let* () = absorb_once () in
    let* final = Program.read root_rec in
    match Codec.Root.find_response (Codec.Root.decode final) ~key with
    | Some response -> Program.return response
    | None ->
      failwith
        (Printf.sprintf "adt-tree: response for (p%d, #%d) missing after two absorb attempts"
           pid seq)
  in
  { Iface.apply; snapshot = Iface.stateless }

let construction = { Iface.name = "adt-tree"; oblivious = true; worst_case; create }
