open Lb_memory
open Lb_adversary

type issue =
  | Bad_return of int * int
  | Nobody_returned_one
  | Premature_one of { winner : int; round : int; silent : Ids.t }

let check (run : int All_run.t) =
  let issues = ref [] in
  List.iter
    (fun (pid, v) -> if v <> 0 && v <> 1 then issues := Bad_return (pid, v) :: !issues)
    run.All_run.results;
  if
    run.All_run.outcome = All_run.Terminating
    && not (List.exists (fun (_, v) -> v = 1) run.All_run.results)
  then issues := Nobody_returned_one :: !issues;
  (* Condition 3, at round granularity. *)
  List.iter
    (fun (round : int Round.t) ->
      let procs = round.Round.procs in
      let pids = List.init (Array.length procs) Fun.id in
      let one_returners = List.filter (fun pid -> procs.(pid).Round.result = Some 1) pids in
      let silent =
        Ids.of_list
          (List.filter (fun pid -> procs.(pid).Round.tosses = 0 && procs.(pid).Round.ops = 0) pids)
      in
      match one_returners with
      | winner :: _ when not (Ids.is_empty silent) ->
        if
          not
            (List.exists
               (function Premature_one _ -> true | Bad_return _ | Nobody_returned_one -> false)
               !issues)
        then issues := Premature_one { winner; round = round.Round.index; silent } :: !issues
      | _ -> ())
    run.All_run.rounds;
  List.rev !issues

let pp_issue ppf = function
  | Bad_return (pid, v) -> Format.fprintf ppf "p%d returned %d (not 0/1)" pid v
  | Nobody_returned_one -> Format.pp_print_string ppf "terminating run but nobody returned 1"
  | Premature_one { winner; round; silent } ->
    Format.fprintf ppf "p%d returned 1 by round %d while %a never took a step" winner round
      Ids.pp silent
