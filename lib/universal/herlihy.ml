open Lb_memory
open Lb_runtime
open Program.Syntax

let worst_case ~n = (2 * n) + 6

let create layout ~n spec =
  if n <= 0 then invalid_arg "Herlihy.create: n must be positive";
  let announce = Layout.alloc_array layout ~len:n ~init:Codec.Dset.empty in
  let root_rec = Layout.alloc layout ~init:(Codec.Root.initial spec.Lb_objects.Spec.init) in
  let collect () =
    Program.fold_list
      (fun acc reg ->
        let* published = Program.read reg in
        Program.return (List.rev_append (Codec.Dset.decode published) acc))
      [] (Array.to_list announce)
  in
  let attempt () =
    let* current = Program.ll root_rec in
    let* descs = collect () in
    let* _ok = Program.sc_flag root_rec (Codec.Root.update spec current descs) in
    Program.return ()
  in
  let apply ~pid ~seq op =
    if pid < 0 || pid >= n then invalid_arg (Printf.sprintf "herlihy: pid %d out of range" pid);
    let desc = { Codec.Desc.pid; seq; op } in
    let key = Codec.Desc.key desc in
    (* The announce register only ever needs the latest descriptor: a process
       issues operation [seq + 1] only after operation [seq]'s response was
       installed in the root record, so overwriting cannot lose anything. *)
    let* _old = Program.swap announce.(pid) (Codec.Dset.singleton desc) in
    let* () = attempt () in
    let* () = attempt () in
    let* final = Program.read root_rec in
    match Codec.Root.find_response (Codec.Root.decode final) ~key with
    | Some response -> Program.return response
    | None ->
      failwith
        (Printf.sprintf "herlihy: response for (p%d, #%d) missing after two attempts" pid seq)
  in
  { Iface.apply; snapshot = Iface.stateless }

let construction = { Iface.name = "herlihy"; oblivious = true; worst_case; create }
