open Lb_memory

type run_outcome = All_terminated | Out_of_fuel | Stalled

type t =
  | Shared_access of {
      pid : int;
      invocation : Op.invocation;
      response : Op.response;
      spurious : bool;
    }
  | Coin_toss of { pid : int; idx : int; outcome : int }
  | Sched of { step : int; chosen : int; runnable : int list }
  | Round of { index : int }
  | Crash of { pid : int; step : int }
  | Recovery of { pid : int; step : int }
  | Op_invoked of { pid : int; seq : int; op : Value.t }
  | Op_completed of { pid : int; seq : int; op : Value.t; response : Value.t; cost : int }
  | Op_failed of { pid : int; seq : int; op : Value.t; reason : string; cost : int }
  | Run_end of {
      outcome : run_outcome;
      steps : int;
      ops : (int * int) list;
      unfinished : int list;
    }

type stamped = { at : int; event : t }

let kind = function
  | Shared_access _ -> "access"
  | Coin_toss _ -> "toss"
  | Sched _ -> "sched"
  | Round _ -> "round"
  | Crash _ -> "crash"
  | Recovery _ -> "recovery"
  | Op_invoked _ -> "invoke"
  | Op_completed _ -> "complete"
  | Op_failed _ -> "give-up"
  | Run_end _ -> "end"

let kinds =
  [ "access"; "toss"; "sched"; "round"; "crash"; "recovery"; "invoke"; "complete";
    "give-up"; "end" ]

let equal_outcome (a : run_outcome) b = a = b

let equal a b =
  match (a, b) with
  | Shared_access a, Shared_access b ->
    a.pid = b.pid
    && Op.equal_invocation a.invocation b.invocation
    && Op.equal_response a.response b.response
    && a.spurious = b.spurious
  | Coin_toss a, Coin_toss b -> a.pid = b.pid && a.idx = b.idx && a.outcome = b.outcome
  | Sched a, Sched b -> a.step = b.step && a.chosen = b.chosen && a.runnable = b.runnable
  | Round a, Round b -> a.index = b.index
  | Crash a, Crash b -> a.pid = b.pid && a.step = b.step
  | Recovery a, Recovery b -> a.pid = b.pid && a.step = b.step
  | Op_invoked a, Op_invoked b -> a.pid = b.pid && a.seq = b.seq && Value.equal a.op b.op
  | Op_completed a, Op_completed b ->
    a.pid = b.pid && a.seq = b.seq && Value.equal a.op b.op
    && Value.equal a.response b.response && a.cost = b.cost
  | Op_failed a, Op_failed b ->
    a.pid = b.pid && a.seq = b.seq && Value.equal a.op b.op
    && String.equal a.reason b.reason && a.cost = b.cost
  | Run_end a, Run_end b ->
    equal_outcome a.outcome b.outcome && a.steps = b.steps && a.ops = b.ops
    && a.unfinished = b.unfinished
  | ( ( Shared_access _ | Coin_toss _ | Sched _ | Round _ | Crash _ | Recovery _
      | Op_invoked _ | Op_completed _ | Op_failed _ | Run_end _ ),
      _ ) ->
    false

let equal_stamped a b = a.at = b.at && equal a.event b.event

(* ---- JSON codec ---- *)

(* Values serialise as tagged arrays — compact and unambiguous:
   ["u"] | ["b", bool] | ["i", int] | ["s", str] | ["p", v, v]
   | ["l", v...] | ["v", width, "0101..."] (bits, MSB first). *)
let rec json_of_value : Value.t -> Json.t = function
  | Value.Unit -> Json.Arr [ Json.Str "u" ]
  | Value.Bool b -> Json.Arr [ Json.Str "b"; Json.Bool b ]
  | Value.Int i -> Json.Arr [ Json.Str "i"; Json.Int i ]
  | Value.Str s -> Json.Arr [ Json.Str "s"; Json.Str s ]
  | Value.Pair (a, b) -> Json.Arr [ Json.Str "p"; json_of_value a; json_of_value b ]
  | Value.List l -> Json.Arr (Json.Str "l" :: List.map json_of_value l)
  | Value.Bits v ->
    let w = Bitvec.width v in
    let s = String.init w (fun i -> if Bitvec.get v (w - 1 - i) then '1' else '0') in
    Json.Arr [ Json.Str "v"; Json.Int w; Json.Str s ]

let rec value_of_json j =
  let ( let* ) = Result.bind in
  match j with
  | Json.Arr (Json.Str "u" :: []) -> Ok Value.Unit
  | Json.Arr [ Json.Str "b"; Json.Bool b ] -> Ok (Value.Bool b)
  | Json.Arr [ Json.Str "i"; Json.Int i ] -> Ok (Value.Int i)
  | Json.Arr [ Json.Str "s"; Json.Str s ] -> Ok (Value.Str s)
  | Json.Arr [ Json.Str "p"; a; b ] ->
    let* a = value_of_json a in
    let* b = value_of_json b in
    Ok (Value.Pair (a, b))
  | Json.Arr (Json.Str "l" :: items) ->
    let* items =
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          let* v = value_of_json item in
          Ok (v :: acc))
        (Ok []) items
    in
    Ok (Value.List (List.rev items))
  | Json.Arr [ Json.Str "v"; Json.Int w; Json.Str s ] ->
    if String.length s <> w || w <= 0 then Error "bad bits encoding"
    else begin
      let v = ref (Bitvec.zero w) in
      (try
         String.iteri
           (fun i c ->
             match c with
             | '1' -> v := Bitvec.set !v (w - 1 - i) true
             | '0' -> ()
             | _ -> raise Exit)
           s;
         Ok (Value.Bits !v)
       with Exit -> Error "bad bits digit")
    end
  | _ -> Error "bad value encoding"

let json_of_invocation : Op.invocation -> Json.t = function
  | Op.Ll r -> Json.Obj [ ("op", Json.Str "ll"); ("reg", Json.Int r) ]
  | Op.Sc (r, v) ->
    Json.Obj [ ("op", Json.Str "sc"); ("reg", Json.Int r); ("value", json_of_value v) ]
  | Op.Validate r -> Json.Obj [ ("op", Json.Str "validate"); ("reg", Json.Int r) ]
  | Op.Swap (r, v) ->
    Json.Obj [ ("op", Json.Str "swap"); ("reg", Json.Int r); ("value", json_of_value v) ]
  | Op.Move (src, dst) ->
    Json.Obj [ ("op", Json.Str "move"); ("src", Json.Int src); ("dst", Json.Int dst) ]
  | Op.Write (r, v) ->
    Json.Obj [ ("op", Json.Str "write"); ("reg", Json.Int r); ("value", json_of_value v) ]
  | Op.Fence -> Json.Obj [ ("op", Json.Str "fence") ]

let invocation_of_json j =
  let ( let* ) = Result.bind in
  let int_field k =
    match Option.bind (Json.member k j) Json.to_int_opt with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "invocation: missing int field %S" k)
  in
  let value_field k =
    match Json.member k j with
    | Some v -> value_of_json v
    | None -> Error (Printf.sprintf "invocation: missing field %S" k)
  in
  match Option.bind (Json.member "op" j) Json.to_str_opt with
  | Some "ll" ->
    let* r = int_field "reg" in
    Ok (Op.Ll r)
  | Some "sc" ->
    let* r = int_field "reg" in
    let* v = value_field "value" in
    Ok (Op.Sc (r, v))
  | Some "validate" ->
    let* r = int_field "reg" in
    Ok (Op.Validate r)
  | Some "swap" ->
    let* r = int_field "reg" in
    let* v = value_field "value" in
    Ok (Op.Swap (r, v))
  | Some "move" ->
    let* src = int_field "src" in
    let* dst = int_field "dst" in
    Ok (Op.Move (src, dst))
  | Some "write" ->
    let* r = int_field "reg" in
    let* v = value_field "value" in
    Ok (Op.Write (r, v))
  | Some "fence" -> Ok Op.Fence
  | Some other -> Error (Printf.sprintf "invocation: unknown op %S" other)
  | None -> Error "invocation: missing op tag"

let json_of_response : Op.response -> Json.t = function
  | Op.Value v -> Json.Obj [ ("value", json_of_value v) ]
  | Op.Flagged (b, v) -> Json.Obj [ ("flag", Json.Bool b); ("value", json_of_value v) ]
  | Op.Ack -> Json.Str "ack"

let response_of_json j =
  let ( let* ) = Result.bind in
  match j with
  | Json.Str "ack" -> Ok Op.Ack
  | Json.Obj _ -> (
    let* v =
      match Json.member "value" j with
      | Some v -> value_of_json v
      | None -> Error "response: missing value"
    in
    match Option.bind (Json.member "flag" j) Json.to_bool_opt with
    | Some b -> Ok (Op.Flagged (b, v))
    | None -> Ok (Op.Value v))
  | _ -> Error "response: bad shape"

let outcome_string = function
  | All_terminated -> "all-terminated"
  | Out_of_fuel -> "out-of-fuel"
  | Stalled -> "stalled"

let outcome_of_string = function
  | "all-terminated" -> Ok All_terminated
  | "out-of-fuel" -> Ok Out_of_fuel
  | "stalled" -> Ok Stalled
  | s -> Error (Printf.sprintf "unknown outcome %S" s)

let ints l = Json.Arr (List.map (fun i -> Json.Int i) l)

let pairs l =
  Json.Arr (List.map (fun (a, b) -> Json.Arr [ Json.Int a; Json.Int b ]) l)

let to_json { at; event } =
  let fields =
    match event with
    | Shared_access { pid; invocation; response; spurious } ->
      [ ("pid", Json.Int pid);
        ("invocation", json_of_invocation invocation);
        ("response", json_of_response response) ]
      @ if spurious then [ ("spurious", Json.Bool true) ] else []
    | Coin_toss { pid; idx; outcome } ->
      [ ("pid", Json.Int pid); ("idx", Json.Int idx); ("outcome", Json.Int outcome) ]
    | Sched { step; chosen; runnable } ->
      [ ("step", Json.Int step); ("chosen", Json.Int chosen); ("runnable", ints runnable) ]
    | Round { index } -> [ ("index", Json.Int index) ]
    | Crash { pid; step } -> [ ("pid", Json.Int pid); ("step", Json.Int step) ]
    | Recovery { pid; step } -> [ ("pid", Json.Int pid); ("step", Json.Int step) ]
    | Op_invoked { pid; seq; op } ->
      [ ("pid", Json.Int pid); ("seq", Json.Int seq); ("opv", json_of_value op) ]
    | Op_completed { pid; seq; op; response; cost } ->
      [ ("pid", Json.Int pid); ("seq", Json.Int seq); ("opv", json_of_value op);
        ("response", json_of_value response); ("cost", Json.Int cost) ]
    | Op_failed { pid; seq; op; reason; cost } ->
      [ ("pid", Json.Int pid); ("seq", Json.Int seq); ("opv", json_of_value op);
        ("reason", Json.Str reason); ("cost", Json.Int cost) ]
    | Run_end { outcome; steps; ops; unfinished } ->
      [ ("outcome", Json.Str (outcome_string outcome)); ("steps", Json.Int steps);
        ("ops", pairs ops); ("unfinished", ints unfinished) ]
  in
  Json.Obj (("at", Json.Int at) :: ("kind", Json.Str (kind event)) :: fields)

let of_json j =
  let ( let* ) = Result.bind in
  let int_field k =
    match Option.bind (Json.member k j) Json.to_int_opt with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "event: missing int field %S" k)
  in
  let str_field k =
    match Option.bind (Json.member k j) Json.to_str_opt with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "event: missing string field %S" k)
  in
  let value_field k =
    match Json.member k j with
    | Some v -> value_of_json v
    | None -> Error (Printf.sprintf "event: missing field %S" k)
  in
  let ints_field k =
    match Option.bind (Json.member k j) Json.to_list_opt with
    | None -> Error (Printf.sprintf "event: missing list field %S" k)
    | Some items ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          match Json.to_int_opt item with
          | Some i -> Ok (i :: acc)
          | None -> Error (Printf.sprintf "event: non-int in %S" k))
        (Ok []) items
      |> Result.map List.rev
  in
  let pairs_field k =
    match Option.bind (Json.member k j) Json.to_list_opt with
    | None -> Error (Printf.sprintf "event: missing list field %S" k)
    | Some items ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          match item with
          | Json.Arr [ Json.Int a; Json.Int b ] -> Ok ((a, b) :: acc)
          | _ -> Error (Printf.sprintf "event: non-pair in %S" k))
        (Ok []) items
      |> Result.map List.rev
  in
  let* at = int_field "at" in
  let* kind = str_field "kind" in
  let* event =
    match kind with
    | "access" ->
      let* pid = int_field "pid" in
      let* invocation =
        match Json.member "invocation" j with
        | Some inv -> invocation_of_json inv
        | None -> Error "event: missing invocation"
      in
      let* response =
        match Json.member "response" j with
        | Some r -> response_of_json r
        | None -> Error "event: missing response"
      in
      let spurious =
        Option.value ~default:false (Option.bind (Json.member "spurious" j) Json.to_bool_opt)
      in
      Ok (Shared_access { pid; invocation; response; spurious })
    | "toss" ->
      let* pid = int_field "pid" in
      let* idx = int_field "idx" in
      let* outcome = int_field "outcome" in
      Ok (Coin_toss { pid; idx; outcome })
    | "sched" ->
      let* step = int_field "step" in
      let* chosen = int_field "chosen" in
      let* runnable = ints_field "runnable" in
      Ok (Sched { step; chosen; runnable })
    | "round" ->
      let* index = int_field "index" in
      Ok (Round { index })
    | "crash" ->
      let* pid = int_field "pid" in
      let* step = int_field "step" in
      Ok (Crash { pid; step })
    | "recovery" ->
      let* pid = int_field "pid" in
      let* step = int_field "step" in
      Ok (Recovery { pid; step })
    | "invoke" ->
      let* pid = int_field "pid" in
      let* seq = int_field "seq" in
      let* op = value_field "opv" in
      Ok (Op_invoked { pid; seq; op })
    | "complete" ->
      let* pid = int_field "pid" in
      let* seq = int_field "seq" in
      let* op = value_field "opv" in
      let* response = value_field "response" in
      let* cost = int_field "cost" in
      Ok (Op_completed { pid; seq; op; response; cost })
    | "give-up" ->
      let* pid = int_field "pid" in
      let* seq = int_field "seq" in
      let* op = value_field "opv" in
      let* reason = str_field "reason" in
      let* cost = int_field "cost" in
      Ok (Op_failed { pid; seq; op; reason; cost })
    | "end" ->
      let* outcome = Result.bind (str_field "outcome") outcome_of_string in
      let* steps = int_field "steps" in
      let* ops = pairs_field "ops" in
      let* unfinished = ints_field "unfinished" in
      Ok (Run_end { outcome; steps; ops; unfinished })
    | other -> Error (Printf.sprintf "event: unknown kind %S" other)
  in
  Ok { at; event }

(* ---- printing ---- *)

let pp_pids ppf pids =
  Format.fprintf ppf "{%s}" (String.concat ", " (List.map (Printf.sprintf "p%d") pids))

let pp ppf event =
  let tag = kind event in
  match event with
  | Shared_access { pid; invocation; response; spurious } ->
    Format.fprintf ppf "%-8s p%d %a -> %a%s" tag pid Op.pp_invocation invocation
      Op.pp_response response
      (if spurious then " (spurious)" else "")
  | Coin_toss { pid; idx; outcome } ->
    Format.fprintf ppf "%-8s p%d toss #%d -> %d" tag pid idx outcome
  | Sched { step; chosen; runnable } ->
    Format.fprintf ppf "%-8s step %d: p%d of %a" tag step chosen pp_pids runnable
  | Round { index } -> Format.fprintf ppf "%-8s -- round %d --" tag index
  | Crash { pid; step } -> Format.fprintf ppf "%-8s p%d at step %d" tag pid step
  | Recovery { pid; step } -> Format.fprintf ppf "%-8s p%d at step %d" tag pid step
  | Op_invoked { pid; seq; op } ->
    Format.fprintf ppf "%-8s p%d op #%d %a" tag pid seq Value.pp op
  | Op_completed { pid; seq; op; response; cost } ->
    Format.fprintf ppf "%-8s p%d op #%d %a -> %a (cost %d)" tag pid seq Value.pp op
      Value.pp response cost
  | Op_failed { pid; seq; op; reason; cost } ->
    Format.fprintf ppf "%-8s p%d op #%d %a: %s (cost %d)" tag pid seq Value.pp op reason
      cost
  | Run_end { outcome; steps; ops; unfinished } ->
    Format.fprintf ppf "%-8s %s after %d steps; ops:" tag (outcome_string outcome) steps;
    List.iter (fun (pid, k) -> Format.fprintf ppf " p%d=%d" pid k) ops;
    if unfinished <> [] then Format.fprintf ppf "; unfinished: %a" pp_pids unfinished

let pp_stamped ppf { at; event } = Format.fprintf ppf "[%6d] %a" at pp event
