open Lb_memory
open Lb_runtime
open Program.Syntax

let compare_and_swap layout ~init =
  let reg = Layout.alloc layout ~init in
  let apply ~pid:_ ~seq:_ op =
    let expected, new_ = Value.to_pair op in
    let* v = Program.ll reg in
    if not (Value.equal v expected) then
      Program.return (Value.pair (Value.bool false) v)
    else
      let* ok, u = Program.sc reg new_ in
      if ok then Program.return (Value.pair (Value.bool true) v)
      else if not (Value.equal u expected) then
        (* Another process changed the value after our LL; at its change the
           state differed from [expected], so failing there is a legal
           linearization. *)
        Program.return (Value.pair (Value.bool false) u)
      else failwith "direct CAS: distinct-values precondition violated (ABA)"
  in
  { Iface.apply; snapshot = Iface.stateless }

(* The spec argument is ignored: this construction *is* fetch&increment. *)
let fetch_inc_create layout ~n (_spec : Lb_objects.Spec.t) =
  let reg = Layout.alloc layout ~init:(Value.Int 0) in
  let max_attempts = (2 * n) + 4 in
  let apply ~pid:_ ~seq:_ op =
    (match op with
    | Value.Unit -> ()
    | _ -> invalid_arg "direct: operation must be Unit");
    Program.retry_until ~max_attempts (fun () ->
        let* v = Program.ll reg in
        let* ok = Program.sc_flag reg (Value.Int (Value.to_int v + 1)) in
        Program.return (if ok then Some v else None))
  in
  { Iface.apply; snapshot = Iface.stateless }

let fetch_inc =
  {
    Iface.name = "direct";
    oblivious = false;
    worst_case = (fun ~n -> 2 * ((2 * n) + 4));
    create = fetch_inc_create;
  }
