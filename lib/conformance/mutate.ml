open Lb_memory
open Lb_runtime
open Lb_universal

type t = { name : string; description : string }

let all =
  [
    {
      name = "drop-sc-validation";
      description =
        "every SC is replaced by an unconditional Swap reported as a successful SC — the \
         construction commits without checking its link";
    };
    {
      name = "stale-ll";
      description =
        "within one operation, re-LLs of a register are served the first value from a local \
         cache (via a non-linking Validate) — the operation acts on a stale snapshot";
    };
    {
      name = "lost-sc-write";
      description =
        "every SC becomes a Validate: it reports success whenever the link is intact but never \
         writes — the committed state transition is silently lost";
    };
    {
      name = "lost-swap-write";
      description = "every Swap reads the register (Validate) but never writes its value";
    };
  ]

let find name = List.find_opt (fun m -> m.name = name) all

(* Rewrite a free-monad program operation by operation: [rule st inv]
   yields the invocation actually issued and a post-map of its response,
   which also gives the rule's state for the rest of the program.  The
   state is threaded through the continuations, so a rewritten program is
   a value: resuming it twice gives the same run twice. *)
let rec rewrite rule st (p : 'a Program.t) : 'a Program.t =
  match p with
  | Program.Return _ -> p
  | Program.Toss k -> Program.Toss (fun o -> rewrite rule st (k o))
  | Program.Op (inv, k) ->
    let inv', post = rule st inv in
    Program.Op
      ( inv',
        fun resp ->
          let st', resp' = post resp in
          rewrite rule st' (k resp') )

module Regs = Map.Make (Int)

(* How many rewrites fired: [total] over every run, [run] along the
   current run (see [wrap]'s snapshot). *)
type tally = { mutable total : int; mutable run : int }

let fire tally =
  tally.total <- tally.total + 1;
  tally.run <- tally.run + 1

let stateless_rule tally f =
  rewrite
    (fun () inv ->
      match f inv with
      | Some (inv', post) ->
        fire tally;
        (inv', fun resp -> ((), post resp))
      | None -> (inv, fun resp -> ((), resp)))
    ()

(* [stale-ll] caches, per operation, the first value each register was
   LL'd at; the cache is the rule's threaded state, empty for each
   [apply]. *)
let mutation t tally : Value.t Program.t -> Value.t Program.t =
  match t.name with
  | "drop-sc-validation" ->
    stateless_rule tally (function
      | Op.Sc (r, v) ->
        Some
          ( Op.Swap (r, v),
            function Op.Value u -> Op.Flagged (true, u) | (Op.Flagged _ | Op.Ack) as resp -> resp )
      | _ -> None)
  | "stale-ll" ->
    rewrite
      (fun cache inv ->
        match inv with
        | Op.Ll r when Regs.mem r cache ->
          fire tally;
          (Op.Validate r, fun _ -> (cache, Op.Value (Regs.find r cache)))
        | Op.Ll r ->
          ( inv,
            fun resp ->
              match resp with
              | Op.Value v -> (Regs.add r v cache, resp)
              | Op.Flagged _ | Op.Ack -> (cache, resp) )
        | _ -> (inv, fun resp -> (cache, resp)))
      Regs.empty
  | "lost-sc-write" ->
    stateless_rule tally (function Op.Sc (r, _) -> Some (Op.Validate r, Fun.id) | _ -> None)
  | "lost-swap-write" ->
    stateless_rule tally (function
      | Op.Swap (r, _) ->
        Some
          ( Op.Validate r,
            function Op.Flagged (_, u) -> Op.Value u | (Op.Value _ | Op.Ack) as resp -> resp )
      | _ -> None)
  | other -> invalid_arg (Printf.sprintf "Mutate.mutation: unknown mutant %S" other)

(* The tally counts executed rewrites, as if every run replayed from the
   start: restoring a snapshot taken further along the current run credits
   the rewrites a resumed run skips; restoring an earlier one (a new run
   rewinding to the start) credits nothing, since those rewrites were
   made. *)
let wrap t (c : Iface.t) =
  let tally = { total = 0; run = 0 } in
  let mutate = mutation t tally in
  let create layout ~n spec =
    let h = c.Iface.create layout ~n spec in
    let snapshot () =
      let inner = h.Iface.snapshot () and run = tally.run in
      fun () ->
        inner ();
        tally.total <- tally.total + max 0 (run - tally.run);
        tally.run <- run
    in
    { Iface.apply = (fun ~pid ~seq op -> mutate (h.Iface.apply ~pid ~seq op)); snapshot }
  in
  ({ c with Iface.name = c.Iface.name ^ "+" ^ t.name; create }, fun () -> tally.total)
