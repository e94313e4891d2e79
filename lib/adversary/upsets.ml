open Lb_memory
open Lb_secretive

type layer = { procs : Ids.t array; regs : (int, Ids.t) Hashtbl.t }

type t = { n : int; layers : layer array (* index = round, 0 .. rounds *) }

let reg_up layer reg = Option.value ~default:Ids.empty (Hashtbl.find_opt layer.regs reg)

(* One application of the update rules: previous layer + round record -> next
   layer. *)
let step prev (round : 'a Round.t) =
  let sm = Source_movers.eval round.Round.move_spec round.Round.sigma in
  let moved_into reg = Source_movers.movers_len sm reg > 0 in
  (* UP-of-source ∪ UPs-of-movers for a register that received a move. *)
  let move_knowledge reg =
    let source = Source_movers.source sm reg in
    List.fold_left
      (fun acc q -> Ids.union acc prev.procs.(q))
      (reg_up prev source)
      (Source_movers.movers sm reg)
  in
  (* One pass groups the events by target register; register rules first,
     since process rule 7 (unsuccessful SC) reads UP(R, r). *)
  let groups = Round.by_register round in
  let regs = Hashtbl.copy prev.regs in
  List.iter
    (fun (reg, evs) ->
      match Round.sc_winner evs with
      | Some p -> Hashtbl.replace regs reg prev.procs.(p)
      | None -> (
        match List.rev (Round.swappers_in evs) with
        | last :: _ -> Hashtbl.replace regs reg prev.procs.(last)
        | [] -> if moved_into reg then Hashtbl.replace regs reg (move_knowledge reg)))
    groups;
  let next = { procs = Array.copy prev.procs; regs } in
  (* Process rules: each process executes at most one event per round, so
     walking the groups visits it at most once.  [previous] is the last
     swapper on the group's register so far, in execution order. *)
  let rec visit previous = function
    | [] -> ()
    | e :: evs ->
      let p = e.Round.pid in
      let up = prev.procs.(p) in
      let joined =
        match e.Round.invocation, e.Round.response with
        | (Op.Ll reg | Op.Validate reg), _ -> Ids.union up (reg_up prev reg)
        | Op.Move _, _ -> up
        | Op.Swap (reg, _), _ -> (
          match previous with
          | None ->
            if moved_into reg then Ids.union up (move_knowledge reg)
            else Ids.union up (reg_up prev reg)
          | Some q ->
            (* p swaps immediately after the previous swapper q. *)
            Ids.union up prev.procs.(q))
        | Op.Sc (reg, _), Op.Flagged (true, _) -> Ids.union up (reg_up prev reg)
        | Op.Sc (reg, _), Op.Flagged (false, _) -> Ids.union up (reg_up next reg)
        | Op.Sc _, (Op.Value _ | Op.Ack) -> assert false
        | (Op.Write _ | Op.Fence), _ ->
          (* Weak-memory extensions: neither reads shared state, so no
             knowledge joins.  The round adversary never issues them. *)
          up
      in
      (* Keep the old pointer when nothing changed: layers share structure,
         which matters on long runs (memory is otherwise O(n * rounds^2)). *)
      next.procs.(p) <- (if Ids.equal joined up then up else joined);
      visit (match e.Round.invocation with Op.Swap _ -> Some p | _ -> previous) evs
  in
  List.iter (fun (_, evs) -> visit None evs) groups;
  next

let compute ~n rounds =
  let layer0 =
    { procs = Array.init n (fun p -> Ids.singleton p); regs = Hashtbl.create 16 }
  in
  let layers = Array.make (List.length rounds + 1) layer0 in
  List.iteri (fun i round -> layers.(i + 1) <- step layers.(i) round) rounds;
  { n; layers }

let rounds t = Array.length t.layers - 1

let layer t r =
  if r < 0 || r >= Array.length t.layers then
    invalid_arg (Printf.sprintf "Upsets: round %d out of range" r);
  t.layers.(r)

let of_process t ~r ~pid =
  let layer = layer t r in
  if pid < 0 || pid >= t.n then invalid_arg (Printf.sprintf "Upsets: pid %d out of range" pid);
  layer.procs.(pid)

let of_register t ~r ~reg = reg_up (layer t r) reg

let max_size t ~r =
  let layer = layer t r in
  let m = Array.fold_left (fun acc s -> max acc (Ids.cardinal s)) 0 layer.procs in
  Hashtbl.fold (fun _ s acc -> max acc (Ids.cardinal s)) layer.regs m

let lemma_5_1_holds t =
  let rec pow4 r = if r = 0 then 1 else if r >= 16 then max_int else 4 * pow4 (r - 1) in
  let rec check r = r > rounds t || (max_size t ~r <= pow4 r && check (r + 1)) in
  check 0
