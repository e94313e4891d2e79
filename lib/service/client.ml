open Lb_observe

type error =
  | Connect of { socket : string; reason : string }
  | Send of string
  | Timeout of float
  | Closed
  | Bad_line of { line : string; reason : string }
  | Unknown_key of { key : string; line : string }

let clip line = if String.length line <= 120 then line else String.sub line 0 117 ^ "..."

let error_message = function
  | Connect { socket; reason } -> Printf.sprintf "cannot connect to %s: %s" socket reason
  | Send reason -> Printf.sprintf "send failed: %s" reason
  | Timeout s -> Printf.sprintf "timed out after %.1fs" s
  | Closed -> "server closed the connection early"
  | Bad_line { line; reason } ->
    Printf.sprintf "bad response line %S: %s" (clip line) reason
  | Unknown_key { key; line } ->
    Printf.sprintf "response key %S matches no request in the batch (%s)" key (clip line)

let pp_error ppf e = Format.pp_print_string ppf (error_message e)

let connect socket =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd -> (
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Unix.error_message e))

let call ~socket ?(timeout_s = 60.0) lines =
  match connect socket with
  | Error reason -> Error (Connect { socket; reason })
  | Ok fd -> (
    let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
    (
      let payload =
        String.concat "" (List.map (fun json -> Json.to_string json ^ "\n") lines)
      in
      match Unix.write_substring fd payload 0 (String.length payload) with
      | exception Unix.Unix_error (e, _, _) ->
        finally ();
        Error (Send (Unix.error_message e))
      | _ ->
        let deadline = Unix.gettimeofday () +. timeout_s in
        let wanted = List.length lines in
        let buf = Buffer.create 4096 in
        let failed = ref None in
        let count_newlines () =
          let n = ref 0 in
          String.iter (fun c -> if c = '\n' then incr n) (Buffer.contents buf);
          !n
        in
        while !failed = None && count_newlines () < wanted do
          let remaining = deadline -. Unix.gettimeofday () in
          if remaining <= 0.0 then failed := Some (Timeout timeout_s)
          else
            match Unix.select [ fd ] [] [] remaining with
            | [], _, _ -> failed := Some (Timeout timeout_s)
            | _ -> (
              let bytes = Bytes.create 65536 in
              match Unix.read fd bytes 0 (Bytes.length bytes) with
              | 0 -> failed := Some Closed
              | n -> Buffer.add_subbytes buf bytes 0 n
              | exception Unix.Unix_error (e, _, _) ->
                failed := Some (Send (Unix.error_message e)))
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        done;
        finally ();
        (match !failed with
        | Some e -> Error e
        | None ->
          (* A truncated tail (no trailing newline yet when the count was
             satisfied) is kept: only complete lines were counted, so every
             kept line is exactly one server reply. *)
          let raw =
            String.split_on_char '\n' (Buffer.contents buf)
            |> List.filter (fun l -> String.trim l <> "")
          in
          let rec parse_all acc = function
            | [] -> Ok (List.rev acc)
            | line :: rest -> (
              match Json.parse line with
              | Ok json -> parse_all (json :: acc) rest
              | Error reason -> Error (Bad_line { line; reason }))
          in
          (match parse_all [] raw with
          | Error e -> Error e
          | Ok parsed -> Ok (List.filteri (fun i _ -> i < wanted) parsed)))))

let reply_key reply = Option.bind (Json.member "key" reply) Json.to_str_opt

let validate_keys ~requests replies =
  let keys = List.map Request.key requests in
  let stray =
    List.find_opt
      (fun reply ->
        match reply_key reply with Some k -> not (List.mem k keys) | None -> false)
      replies
  in
  match stray with
  | Some reply ->
    let key = Option.value ~default:"?" (reply_key reply) in
    Error (Unknown_key { key; line = Json.to_string reply })
  | None -> Ok replies

let request ~socket ?timeout_s requests =
  match call ~socket ?timeout_s (List.map Request.to_json requests) with
  | Error e -> Error e
  | Ok replies -> validate_keys ~requests replies

let wait_ready ~socket ?(attempts = 100) ?(interval_s = 0.05) () =
  let ping = Json.Obj [ ("op", Json.Str "ping") ] in
  let rec go k =
    if k = 0 then false
    else
      match call ~socket ~timeout_s:1.0 [ ping ] with
      | Ok _ -> true
      | Error _ ->
        Unix.sleepf interval_s;
        go (k - 1)
  in
  go attempts
