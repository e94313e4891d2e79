open Lb_memory

type failure = {
  round : int;
  subject : [ `Process of int | `Register of int ];
  reason : string;
}

(* A register no event ever touched reads as the memory's default. *)
let untouched = (Value.Unit, Ids.empty)

(* The events process [pid] executed in the given round, as an option. *)
let event_agrees all_round s_round pid =
  match Round.event_of all_round pid, Round.event_of s_round pid with
  | None, None -> true
  | Some a, Some b ->
    Op.equal_invocation a.Round.invocation b.Round.invocation
    && Op.equal_response a.Round.response b.Round.response
  | Some _, None | None, Some _ -> false

let check ~n ~all_run ~s_run ~upsets =
  let failures = ref [] in
  let fail round subject reason = failures := { round; subject; reason } :: !failures in
  let s = s_run.S_run.s in
  let in_s up = Ids.subset up s in
  let check_round r (all_round : _ Round.t) (s_round : _ Round.t) =
    (* Processes with UP(p, r) ⊆ S, computed once per round — the register
       checks below re-use the list (and, lazily, the set). *)
    let in_s_pids =
      List.filter (fun pid -> in_s (Upsets.of_process upsets ~r ~pid)) (List.init n Fun.id)
    in
    let in_s_set = lazy (Ids.of_list in_s_pids) in
    List.iter
      (fun pid ->
        let oa = Round.obs all_round pid and ob = Round.obs s_round pid in
        if oa.Round.tosses <> ob.Round.tosses then
          fail r (`Process pid)
            (Printf.sprintf "numtosses differ: %d (All) vs %d (S)" oa.Round.tosses
               ob.Round.tosses);
        if oa.Round.ops <> ob.Round.ops then
          fail r (`Process pid)
            (Printf.sprintf "shared-op counts differ: %d (All) vs %d (S)" oa.Round.ops
               ob.Round.ops);
        (match oa.Round.result, ob.Round.result with
        | Some _, Some _ | None, None -> ()
        | Some _, None -> fail r (`Process pid) "terminated in (All,A)-run but not in (S,A)-run"
        | None, Some _ -> fail r (`Process pid) "terminated in (S,A)-run but not in (All,A)-run");
        if not (event_agrees all_round s_round pid) then
          fail r (`Process pid) "round events (invocation/response) differ")
      in_s_pids;
    (* Registers with UP(R, r) ⊆ S, over every register touched by either
       run.  Only in-S processes' Pset bits count, and they are enumerated
       one by one only when the in-S parts of the two Psets differ. *)
    let check_reg reg (va, pa) (vb, pb) =
      if in_s (Upsets.of_register upsets ~r ~reg) then begin
        if not (Value.equal va vb) then
          fail r (`Register reg)
            (Printf.sprintf "values differ: %s (All) vs %s (S)" (Value.to_string va)
               (Value.to_string vb));
        if
          not
            (Ids.equal pa pb
            || Ids.equal (Ids.inter pa (Lazy.force in_s_set)) (Ids.inter pb (Lazy.force in_s_set))
            )
        then
          List.iter
            (fun q ->
              if Ids.mem q pa <> Ids.mem q pb then
                fail r (`Register reg)
                  (Printf.sprintf "Pset membership of p%d differs: %b (All) vs %b (S)" q
                     (Ids.mem q pa) (Ids.mem q pb)))
            in_s_pids
      end
    in
    (* Both snapshots are strictly ascending by register: one merge visits
       the union in order. *)
    let rec walk xs ys =
      match xs, ys with
      | [], [] -> ()
      | (ra, sa) :: xs', (rb, sb) :: ys' when ra = rb ->
        check_reg ra sa sb;
        walk xs' ys'
      | (ra, sa) :: xs', (rb, _) :: _ when ra < rb ->
        check_reg ra sa untouched;
        walk xs' ys
      | (ra, sa) :: xs', [] ->
        check_reg ra sa untouched;
        walk xs' ys
      | _, (rb, sb) :: ys' ->
        check_reg rb untouched sb;
        walk xs ys'
    in
    walk all_round.Round.regs s_round.Round.regs
  in
  Round.iter_paired check_round all_run.All_run.rounds s_run.S_run.rounds;
  List.rev !failures

let pp_failure ppf { round; subject; reason } =
  let pp_subject ppf = function
    | `Process p -> Format.fprintf ppf "p%d" p
    | `Register r -> Format.fprintf ppf "R%d" r
  in
  Format.fprintf ppf "round %d, %a: %s" round pp_subject subject reason
