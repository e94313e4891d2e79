open Lb_memory
open Lb_runtime
open Lb_universal
open Program.Syntax

(* The direct LL/SC retry loop as a certifiable target.  It is only
   lock-free, so unlike the universal constructions it can legitimately give
   up under adversity; [Retry.bounded] makes the give-up a reported failure
   (with its retry count) instead of a crash.  The spec argument is ignored:
   this target *is* fetch&increment — the non-oblivious contrast to the
   universal constructions. *)
let direct_create layout ~n (_spec : Lb_objects.Spec.t) =
  let reg = Layout.alloc layout ~init:(Value.Int 0) in
  let max_attempts = (2 * n) + 4 in
  let apply ~pid:_ ~seq:_ op =
    (match op with
    | Value.Unit -> ()
    | _ -> invalid_arg "direct: operation must be Unit");
    let* outcome =
      Retry.bounded ~max_attempts (fun ~attempt:_ ->
          let* v = Program.ll reg in
          let* ok = Program.sc_flag reg (Value.Int (Value.to_int v + 1)) in
          Program.return (if ok then Some v else None))
    in
    Program.return (Retry.exn_or ~label:"direct fetch&inc" outcome)
  in
  { Iface.name = "direct"; oblivious = false; n; apply; snapshot = Iface.stateless }

let direct =
  {
    Iface.name = "direct";
    oblivious = false;
    worst_case = (fun ~n -> 2 * ((2 * n) + 4));
    create = direct_create;
  }

let all = [ Adt_tree.construction; Herlihy.construction; Consensus_list.construction; direct ]

let find name = List.find_opt (fun (c : Iface.t) -> c.Iface.name = name) all
