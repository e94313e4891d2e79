open Lb_memory
open Lb_runtime

type handle = {
  apply : pid:int -> seq:int -> Value.t -> Value.t Program.t;
  snapshot : unit -> unit -> unit;
}

let stateless () = ignore

type t = {
  name : string;
  oblivious : bool;
  worst_case : n:int -> int;
  create : Layout.t -> n:int -> Lb_objects.Spec.t -> handle;
}
