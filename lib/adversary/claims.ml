open Lb_memory
open Lb_secretive

type failure = { claim : string; round : int; detail : string }

let check ~n ~all_run ~s_run ~upsets =
  let failures = ref [] in
  let fail claim round detail = failures := { claim; round; detail } :: !failures in
  let s = s_run.S_run.s in
  let in_s up = Ids.subset up s in
  let check_round r (all_round : _ Round.t) (s_round : _ Round.t) =
    let up_prev pid = Upsets.of_process upsets ~r:(r - 1) ~pid in
    (* A.1: toss counts of in-S processes agree at end of round r (tosses
       only happen in phase 1). *)
    for pid = 0 to n - 1 do
      if in_s (up_prev pid) then begin
        let ta = (Round.obs all_round pid).Round.tosses
        and ts = (Round.obs s_round pid).Round.tosses in
        if ta <> ts then
          fail "A.1" r (Printf.sprintf "p%d tosses: %d (All) vs %d (S)" pid ta ts)
      end
    done;
    (* A.2. *)
    for pid = 0 to n - 1 do
      let ea = Round.event_of all_round pid and es = Round.event_of s_round pid in
      if not (in_s (up_prev pid)) then begin
        match es with
        | Some _ ->
          fail "A.2(1)" r (Printf.sprintf "p%d stepped in (S,A)-run despite UP ⊄ S" pid)
        | None -> ()
      end
      else
        match ea, es with
        | None, Some _ ->
          fail "A.2(2)" r (Printf.sprintf "p%d idle in (All,A)-run but stepped in (S,A)-run" pid)
        | Some a, Some b ->
          if not (Op.equal_invocation a.Round.invocation b.Round.invocation) then
            fail "A.2(3)" r
              (Format.asprintf "p%d operations differ: %a vs %a" pid Op.pp_invocation
                 a.Round.invocation Op.pp_invocation b.Round.invocation)
        | (None | Some _), None -> ()
      (* an in-S process may legitimately be idle in the S-run only when it
         is idle (or terminated) in the All-run as well — the Some/None case
         above; None/None is fine. *)
    done;
    (* A.3: move groups. *)
    let g2 = Ids.of_list (Move_spec.procs all_round.Round.move_spec) in
    List.iter
      (fun p ->
        if not (Ids.mem p g2) then
          fail "A.3" r (Printf.sprintf "p%d moves in (S,A)-run but not in (All,A)-run" p))
      (Move_spec.procs s_round.Round.move_spec);
    (* Register-level claims, over registers touched in either run. *)
    let touched =
      List.sort_uniq Int.compare
        (List.concat_map
           (fun (round : 'a Round.t) ->
             List.concat_map (fun e -> Op.registers e.Round.invocation) round.Round.events)
           [ all_round; s_round ])
    in
    (* Both rounds' events grouped by register, consumed in step with the
       ascending [touched]. *)
    let group_at cursor reg =
      let rec skip = function (r, _) :: rest when r < reg -> skip rest | l -> l in
      cursor := skip !cursor;
      match !cursor with (r, evs) :: _ when r = reg -> evs | _ -> []
    in
    let all_groups = ref (Round.by_register all_round)
    and s_groups = ref (Round.by_register s_round) in
    List.iter
      (fun reg ->
        let all_evs = group_at all_groups reg and s_evs = group_at s_groups reg in
        let up_r = Upsets.of_register upsets ~r ~reg in
        let up_r_prev = Upsets.of_register upsets ~r:(r - 1) ~reg in
        (match Round.sc_winner all_evs with
        | Some winner ->
          (* A.4. *)
          if not (Ids.subset up_r_prev up_r) then
            fail "A.4" r
              (Format.asprintf "R%d: UP(R, r-1) = %a ⊄ UP(R, r) = %a" reg Ids.pp up_r_prev
                 Ids.pp up_r);
          (* A.6. *)
          if in_s up_r then begin
            match Round.sc_winner s_evs with
            | Some winner' when winner' = winner -> ()
            | Some winner' ->
              fail "A.6" r
                (Printf.sprintf "R%d: winner p%d (All) vs p%d (S)" reg winner winner')
            | None ->
              fail "A.6" r (Printf.sprintf "R%d: p%d's SC succeeds only in (All,A)-run" reg winner)
          end
        | None ->
          (* A.9. *)
          if in_s up_r then begin
            match Round.sc_winner s_evs with
            | Some winner ->
              fail "A.9" r
                (Printf.sprintf "R%d: p%d's SC succeeds only in (S,A)-run" reg winner)
            | None -> ()
          end);
        (* A.5: any SC-attempting process with UP(p, r) ⊆ S forces
           UP(R, r) ⊆ S. *)
        List.iter
          (fun e ->
            match e.Round.invocation with
            | Op.Sc (reg', _) when reg' = reg ->
              if
                in_s (Upsets.of_process upsets ~r ~pid:e.Round.pid) && not (in_s up_r)
              then
                fail "A.5" r
                  (Format.asprintf "R%d: p%d SCs with UP(p) ⊆ S but UP(R, r) = %a ⊄ S" reg
                     e.Round.pid Ids.pp up_r)
            | _ -> ())
          all_evs)
      touched
  in
  Round.iter_paired check_round all_run.All_run.rounds s_run.S_run.rounds;
  List.rev !failures

let pp_failure ppf { claim; round; detail } =
  Format.fprintf ppf "claim %s, round %d: %s" claim round detail
