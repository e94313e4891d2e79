include Lb_objects.History

let of_events ?(restarted = []) (events : Lb_observe.Event.stamped list) =
  let module E = Lb_observe.Event in
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun (s : E.stamped) ->
      match s.E.event with
      | E.Op_invoked { pid; seq; op } ->
        if not (Hashtbl.mem tbl (pid, seq)) then begin
          Hashtbl.replace tbl (pid, seq) (pending_op ~pid ~seq ~op ~invoked:s.E.at);
          order := (pid, seq) :: !order
        end
      | E.Op_completed { pid; seq; response; _ } ->
        (match Hashtbl.find_opt tbl (pid, seq) with
        | Some o ->
          Hashtbl.replace tbl (pid, seq)
            { o with outcome = Completed { response; responded = s.E.at } }
        | None -> ())
      | E.Op_failed _ | _ -> ())
    events;
  let base = List.rev_map (fun key -> Hashtbl.find tbl key) !order in
  by_invocation (base @ ghosts ~restarted base)
