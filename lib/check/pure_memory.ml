open Lb_memory

module Regs = Map.Make (Int)

type t = {
  default : Semantics.reg;
  model : Memory_model.t;
  regs : Semantics.reg Regs.t;
  buffers : Semantics.buffers;
}

module Store = struct
  type nonrec t = t

  let model t = t.model
  let interposer _ = None
  let peek t r = Option.value ~default:t.default (Regs.find_opt r t.regs)
  let load = peek
  let set t r reg = { t with regs = Regs.add r reg t.regs }
  let buffers t = t.buffers
  let set_buffers t buffers = { t with buffers }
end

include Semantics.Make (Store)

let create ?(default = Value.Unit) ?(model = Memory_model.SC) ~inits () =
  List.fold_left
    (fun t (r, v) -> init t r v)
    { default = (default, Ids.empty); model; regs = Regs.empty; buffers = Semantics.no_buffers }
    inits

let model t = t.model

let canonical t =
  let default, _ = t.default in
  Regs.bindings t.regs
  |> List.filter (fun (_, (v, ps)) -> not (v = default && Ids.is_empty ps))

(* Canonical state must distinguish a buffered-but-unflushed write from both
   "no write" and "write visible": two states that agree on shared registers
   but differ in a buffer diverge once the buffer flushes, so collapsing
   them (as [canonical] alone would) makes dedup unsound under TSO/PSO. *)
let canonical_full t = (canonical t, buffers t)
