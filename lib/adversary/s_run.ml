open Lb_memory
open Lb_secretive
open Lb_runtime

type 'a t = { s : Ids.t; rounds : 'a Round.t list; results : (int * 'a) list }

let execute ~n ~program_of ?(assignment = Coin.constant 0) ?(inits = []) ~s ~all_run ~upsets () =
  let engine = Engine.start ~n ~program_of ~assignment ~inits in
  List.iter
    (fun (all_round : 'a Round.t) ->
      let r = all_round.Round.index in
      let select pid = Ids.subset (Upsets.of_process upsets ~r:(r - 1) ~pid) s in
      let move_order spec =
        let wanted = Move_spec.procs spec in
        let movers = Ids.of_list wanted in
        let sigma = List.filter (fun p -> Ids.mem p movers) all_round.Round.sigma in
        if List.sort Int.compare sigma <> wanted then
          failwith
            (Printf.sprintf
               "S_run: round %d move group is not a subset of the (All,A)-run's (Claim A.3)" r);
        sigma
      in
      ignore (Engine.exec_round engine ~select ~move_order))
    all_run.All_run.rounds;
  { s; rounds = Engine.rounds engine; results = Engine.results engine }

let round t r =
  if r < 1 then invalid_arg (Printf.sprintf "S_run.round: no round %d" r);
  match List.nth_opt t.rounds (r - 1) with
  | Some round -> round
  | None -> invalid_arg (Printf.sprintf "S_run.round: no round %d" r)

let num_rounds t = List.length t.rounds

(* Toss and operation counts are cumulative, so the last round's
   observables already record everyone who ever stepped. *)
let steppers t =
  match List.rev t.rounds with
  | [] -> Ids.empty
  | last :: _ ->
    let procs = last.Round.procs in
    let stepped pid = procs.(pid).Round.ops > 0 || procs.(pid).Round.tosses > 0 in
    Ids.of_list (List.filter stepped (List.init (Array.length procs) Fun.id))
