open Lb_universal

let all =
  [ Adt_tree.construction; Herlihy.construction; Consensus_list.construction; Direct.fetch_inc ]

let find name = List.find_opt (fun (c : Iface.t) -> c.Iface.name = name) all
