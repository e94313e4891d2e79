open Lb_memory

type outcome =
  | Completed of { response : Value.t; responded : int }
  | Pending

type op = {
  pid : int;
  seq : int;
  op : Value.t;
  invoked : int;
  outcome : outcome;
  ghost : bool;
}

type t = op list

let completed_op ~pid ~seq ~op ~response ~invoked ~responded =
  if responded < invoked then invalid_arg "History.completed_op: responded before invoked";
  { pid; seq; op; invoked; outcome = Completed { response; responded }; ghost = false }

let pending_op ~pid ~seq ~op ~invoked = { pid; seq; op; invoked; outcome = Pending; ghost = false }

let completed t =
  List.filter (fun o -> match o.outcome with Completed _ -> true | Pending -> false) t

let pending t =
  List.filter (fun o -> match o.outcome with Pending -> true | Completed _ -> false) t

let by_invocation t = List.sort (fun a b -> Int.compare a.invoked b.invoked) t

(* A restarted (pid, seq) may have applied its effect before the crash wiped
   the process's volatile state: the re-invocation then applies it again.
   Each restart therefore contributes one extra *optional* occurrence of the
   same operation — a ghost pending op the checker may (but need not)
   linearize.  The ghost is anchored at the original invocation time: the
   lost attempt ran somewhere between invocation and the recorded outcome. *)
let ghosts ~restarted ops =
  List.filter_map
    (fun (pid, seq) ->
      List.find_opt (fun o -> o.pid = pid && o.seq = seq && not o.ghost) ops
      |> Option.map (fun o -> { o with outcome = Pending; ghost = true }))
    restarted

let pp_op ppf o =
  let status =
    match o.outcome with
    | Completed { response; _ } -> Format.asprintf "-> %a" Value.pp response
    | Pending -> if o.ghost then "pending (restart ghost)" else "pending"
  in
  Format.fprintf ppf "p%d#%d %a @%d %s" o.pid o.seq Value.pp o.op o.invoked status

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter (fun o -> Format.fprintf ppf "%a@ " pp_op o) t;
  Format.fprintf ppf "@]"
