type reg = Value.t * Ids.t

exception Self_move of { pid : int; reg : int }

let () =
  Printexc.register_printer (function
    | Self_move { pid; reg } ->
      Some
        (Printf.sprintf
           "Memory.Self_move: p%d issued move(R%d, R%d) — self-moves are excluded from the model"
           pid reg reg)
    | _ -> None)

type directive = Proceed | Fail_sc

type interposer = pid:int -> Op.invocation -> directive

module Pids = Map.Make (Int)

(* pid -> entries, oldest first; an empty buffer has no binding. *)
type buffers = (int * Value.t) list Pids.t

let no_buffers = Pids.empty

let flush_id ~n (pid, reg) = n * (1 + reg) + pid
let flush_of_id ~n id = (id mod n, (id / n) - 1)

let check_reg r =
  if r < 0 then invalid_arg (Printf.sprintf "Memory: negative register index %d" r)

module type STORE = sig
  type t

  val model : t -> Memory_model.t
  val interposer : t -> interposer option
  val peek : t -> int -> reg
  val load : t -> int -> reg
  val set : t -> int -> reg -> t
  val buffers : t -> buffers
  val set_buffers : t -> buffers -> t
end

module Make (S : STORE) = struct
  let buffer s pid = Option.value ~default:[] (Pids.find_opt pid (S.buffers s))

  let set_buffer s pid entries =
    let b = S.buffers s in
    S.set_buffers s (if entries = [] then Pids.remove pid b else Pids.add pid entries b)

  (* A flushed (or immediate) store: the value lands, the Pset clears. *)
  let store s (r, v) = S.set s r (v, Ids.empty)

  let drain s ~pid =
    match buffer s pid with
    | [] -> s
    | entries -> set_buffer (List.fold_left store s entries) pid []

  let drain_all s = Pids.fold (fun pid _ s -> drain s ~pid) (S.buffers s) s

  let buffers s = Pids.bindings (S.buffers s)

  let buffered_regs s ~pid = List.sort_uniq Int.compare (List.map fst (buffer s pid))

  let flushable s =
    match S.model s with
    | Memory_model.SC -> []
    | Memory_model.TSO ->
      List.map (fun (pid, entries) -> (pid, fst (List.hd entries))) (buffers s)
    | Memory_model.PSO ->
      List.concat_map
        (fun (pid, _) -> List.map (fun r -> (pid, r)) (buffered_regs s ~pid))
        (buffers s)

  let flush_ids s ~n = List.map (flush_id ~n) (flushable s)

  let flush s ~pid ~reg =
    let v, rest =
      match (S.model s, buffer s pid) with
      | Memory_model.SC, _ -> invalid_arg "Memory.flush: no store buffers under SC"
      | Memory_model.TSO, (r, v) :: rest when r = reg -> (v, rest)
      | Memory_model.TSO, (r, _) :: _ ->
        invalid_arg
          (Printf.sprintf "Memory.flush: TSO head of p%d's buffer is R%d, not R%d" pid r reg)
      | Memory_model.TSO, [] ->
        invalid_arg (Printf.sprintf "Memory.flush: p%d's buffer is empty" pid)
      | Memory_model.PSO, entries ->
        (* The oldest entry for [reg]; entries for other registers keep
           their relative order. *)
        let rec remove_first acc = function
          | [] ->
            invalid_arg
              (Printf.sprintf "Memory.flush: p%d has no buffered write to R%d" pid reg)
          | (r, v) :: rest when r = reg -> (v, List.rev_append acc rest)
          | entry :: rest -> remove_first (entry :: acc) rest
        in
        remove_first [] entries
    in
    set_buffer (store s (reg, v)) pid rest

  (* The owner's view of a register: its newest buffered write, if any. *)
  let buffered_value s ~pid r =
    List.fold_left (fun acc (r', v) -> if r' = r then Some v else acc) None (buffer s pid)

  let apply s ~pid inv =
    if pid < 0 then invalid_arg (Printf.sprintf "Memory: negative process id %d" pid);
    (match inv with
    | Op.Move (src, dst) ->
      if src = dst then raise (Self_move { pid; reg = src });
      check_reg src;
      check_reg dst
    | Op.Ll r | Op.Sc (r, _) | Op.Validate r | Op.Swap (r, _) | Op.Write (r, _) -> check_reg r
    | Op.Fence -> ());
    let relaxed = Memory_model.relaxed (S.model s) in
    let s = if relaxed && Op.fences inv then drain s ~pid else s in
    match inv with
    | Op.Ll r ->
      let v, ps = S.load s r in
      (Op.Value v, S.set s r (v, Ids.add pid ps))
    | Op.Sc (r, nv) ->
      let v, ps = S.load s r in
      let spurious =
        match S.interposer s with None -> false | Some f -> f ~pid inv = Fail_sc
      in
      if (not spurious) && Ids.mem pid ps then (Op.Flagged (true, v), store s (r, nv))
      else (Op.Flagged (false, v), s)
    | Op.Validate r ->
      let v, ps = S.load s r in
      let v =
        if relaxed then Option.value ~default:v (buffered_value s ~pid r) else v
      in
      (Op.Flagged (Ids.mem pid ps, v), s)
    | Op.Swap (r, nv) ->
      let v, _ = S.load s r in
      (Op.Value v, store s (r, nv))
    | Op.Move (src, dst) ->
      let v, _ = S.load s src in
      (Op.Ack, store s (dst, v))
    | Op.Write (r, v) ->
      if relaxed then (Op.Ack, set_buffer s pid (buffer s pid @ [ (r, v) ]))
      else (Op.Ack, store s (r, v))
    | Op.Fence -> (Op.Ack, s)

  let init s r v =
    check_reg r;
    store s (r, v)

  let peek s r =
    check_reg r;
    fst (S.peek s r)

  let pset s r =
    check_reg r;
    snd (S.peek s r)
end
