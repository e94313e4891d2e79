type t = (string, int ref) Hashtbl.t

let create () : t = Hashtbl.create 32

(* Domain-local, so pool workers (Lb_exec.Pool) each publish into their own
   registry and the sequential single-domain behaviour is unchanged. *)
let ambient = Domain.DLS.new_key create
let current () = Domain.DLS.get ambient

let with_registry t f =
  let previous = Domain.DLS.get ambient in
  Domain.DLS.set ambient t;
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient previous) f

let incr ?(by = 1) t name =
  match Hashtbl.find_opt t name with
  | None -> Hashtbl.add t name (ref by)
  | Some r -> r := !r + by

let counter_value t name = match Hashtbl.find_opt t name with None -> 0 | Some r -> !r

let merge ~into src = Hashtbl.iter (fun name r -> incr ~by:!r into name) src
