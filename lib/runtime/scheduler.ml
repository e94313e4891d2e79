type choice = step:int -> runnable:int list -> int option
type poll = Enabled of int list | Finished of bool

let round_robin ~step ~runnable =
  match runnable with
  | [] -> None
  | _ :: _ -> Some (List.nth runnable (step mod List.length runnable))

let random ~seed ~step ~runnable =
  match runnable with
  | [] -> None
  | _ :: _ ->
    let k = Coin.hash ~seed ~pid:0 ~idx:step mod List.length runnable in
    Some (List.nth runnable k)

let fixed sequence =
  let remaining = ref sequence in
  fun ~step:_ ~runnable ->
    (* Drop entries until one is runnable; consume it. *)
    let rec go () =
      match !remaining with
      | [] -> None
      | pid :: rest ->
        remaining := rest;
        if List.mem pid runnable then Some pid else go ()
    in
    go ()
