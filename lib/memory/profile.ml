type register_stats = {
  reg : int;
  accesses : int;
  ll : int;
  sc_success : int;
  sc_fail : int;
  validates : int;
  swaps : int;
  writes : int;
  moves_in : int;
  moves_out : int;
}

type t = {
  total : int;
  per_kind : (Op.kind * int) list;
  sc_success_rate : float;
  registers : register_stats list;
  hottest : int option;
  distinct_processes : int;
}

let empty_stats reg =
  {
    reg;
    accesses = 0;
    ll = 0;
    sc_success = 0;
    sc_fail = 0;
    validates = 0;
    swaps = 0;
    writes = 0;
    moves_in = 0;
    moves_out = 0;
  }

let of_accesses accesses =
  let table = Hashtbl.create 32 in
  let pids = Hashtbl.create 16 in
  let update reg f =
    let stats = Option.value ~default:(empty_stats reg) (Hashtbl.find_opt table reg) in
    Hashtbl.replace table reg (f { stats with accesses = stats.accesses + 1 })
  in
  let kind_counts = Hashtbl.create 4 in
  let bump_kind k =
    Hashtbl.replace kind_counts k (1 + Option.value ~default:0 (Hashtbl.find_opt kind_counts k))
  in
  let sc_total = ref 0 and sc_ok = ref 0 in
  List.iter
    (fun (pid, invocation, response) ->
      Hashtbl.replace pids pid ();
      bump_kind (Op.kind invocation);
      match invocation, response with
      | Op.Ll r, _ -> update r (fun s -> { s with ll = s.ll + 1 })
      | Op.Validate r, _ -> update r (fun s -> { s with validates = s.validates + 1 })
      | Op.Swap (r, _), _ -> update r (fun s -> { s with swaps = s.swaps + 1 })
      | Op.Sc (r, _), Op.Flagged (ok, _) ->
        incr sc_total;
        if ok then incr sc_ok;
        if ok then update r (fun s -> { s with sc_success = s.sc_success + 1 })
        else update r (fun s -> { s with sc_fail = s.sc_fail + 1 })
      | Op.Sc _, (Op.Value _ | Op.Ack) -> assert false
      | Op.Write (r, _), _ -> update r (fun s -> { s with writes = s.writes + 1 })
      | Op.Fence, _ -> ()
      | Op.Move (src, dst), _ ->
        update src (fun s -> { s with moves_out = s.moves_out + 1 });
        (* The destination write is part of the same operation; count the
           access against the source only, but record the incoming move. *)
        let stats = Option.value ~default:(empty_stats dst) (Hashtbl.find_opt table dst) in
        Hashtbl.replace table dst { stats with moves_in = stats.moves_in + 1 })
    accesses;
  let registers =
    Hashtbl.fold (fun _ stats acc -> stats :: acc) table []
    |> List.sort (fun a b -> compare (b.accesses, a.reg) (a.accesses, b.reg))
  in
  {
    total = List.length accesses;
    per_kind =
      List.map
        (fun k -> (k, Option.value ~default:0 (Hashtbl.find_opt kind_counts k)))
        [ Op.Read; Op.Move_kind; Op.Swap_kind; Op.Sc_kind; Op.Write_kind; Op.Fence_kind ];
    sc_success_rate =
      (if !sc_total = 0 then 1.0 else float_of_int !sc_ok /. float_of_int !sc_total);
    registers;
    hottest = (match registers with [] -> None | top :: _ -> Some top.reg);
    distinct_processes = Hashtbl.length pids;
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>%d shared-memory operations by %d processes@ " t.total
    t.distinct_processes;
  List.iter
    (fun (k, count) -> Format.fprintf ppf "%a: %d;@ " Op.pp_kind k count)
    t.per_kind;
  Format.fprintf ppf "SC success rate: %.2f@ " t.sc_success_rate;
  Format.fprintf ppf "top registers:";
  List.iteri
    (fun i s ->
      if i < 8 then
        Format.fprintf ppf
          "@   R%-4d %5d accesses (LL %d, SC ok %d / fail %d, val %d, swap %d, write %d, \
           moves in %d / out %d)"
          s.reg s.accesses s.ll s.sc_success s.sc_fail s.validates s.swaps s.writes
          s.moves_in s.moves_out)
    t.registers;
  Format.fprintf ppf "@]"
