open Lb_observe

type stats = { served : int; batches : int; clients : int }

type client = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (** bytes received but not yet terminated by '\n'. *)
}

(* Split the complete lines off a client's receive buffer, leaving any
   trailing partial line in place. *)
let drain_lines client =
  let data = Buffer.contents client.buf in
  let lines = ref [] and start = ref 0 in
  String.iteri
    (fun i c ->
      if c = '\n' then begin
        lines := String.sub data !start (i - !start) :: !lines;
        start := i + 1
      end)
    data;
  Buffer.clear client.buf;
  Buffer.add_substring client.buf data !start (String.length data - !start);
  List.rev !lines

(* Write the whole string, however many syscalls it takes.  [single_write]
   rather than [write]: the latter loops internally and can report fewer
   bytes than it wrote when interrupted mid-loop, which is unrecoverable —
   with single_write a short count is exactly the unwritten suffix. *)
let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    match Unix.single_write_substring fd s !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let write_line fd json =
  let line = Json.to_string json ^ "\n" in
  try write_all fd line
  with Unix.Unix_error _ -> () (* client gone mid-reply: drop, keep serving *)

let error_response msg =
  Json.Obj [ ("status", Json.Str "error"); ("error", Json.Str msg) ]

let bind socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    if Sys.file_exists socket then Unix.unlink socket;
    Unix.bind fd (Unix.ADDR_UNIX socket);
    Unix.listen fd 64;
    fd
  with exn ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise exn

let serve ~socket ~executor ?max_requests ?(log = fun _ -> ()) () =
  let listen_fd = bind socket in
  (* Ignore SIGPIPE (a vanished client must not kill the server) and turn
     SIGINT/SIGTERM into a graceful-stop flag, restoring all three
     afterwards so in-process callers (tests) keep their handlers. *)
  let stop = ref false in
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let on_stop = Sys.Signal_handle (fun _ -> stop := true) in
  let old_int = Sys.signal Sys.sigint on_stop in
  let old_term = Sys.signal Sys.sigterm on_stop in
  let clients = ref [] in
  let served = ref 0 and batches = ref 0 and accepted = ref 0 in
  let close_client c =
    clients := List.filter (fun c' -> c'.fd != c.fd) !clients;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  in
  let handle_line c line queue =
    if String.trim line = "" then queue
    else
      match Json.parse line with
      | Error msg ->
        write_line c.fd (error_response ("bad request line: " ^ msg));
        queue
      | Ok json -> (
        match Option.bind (Json.member "op" json) Json.to_str_opt with
        | Some "ping" ->
          write_line c.fd (Json.Obj [ ("status", Json.Str "ok"); ("op", Json.Str "ping") ]);
          queue
        | Some "metrics" ->
          write_line c.fd
            (Json.Obj
               [
                 ("status", Json.Str "ok");
                 ("op", Json.Str "metrics");
                 ("data", Metrics.to_json (Metrics.current ()));
               ]);
          queue
        | Some "shutdown" ->
          write_line c.fd (Json.Obj [ ("status", Json.Str "ok"); ("op", Json.Str "shutdown") ]);
          stop := true;
          queue
        | Some other ->
          write_line c.fd (error_response (Printf.sprintf "unknown op %S" other));
          queue
        | None -> (
          match Request.of_json json with
          | Ok request -> (c, request) :: queue
          | Error msg ->
            write_line c.fd (error_response msg);
            queue))
  in
  (* One cleanup path for every exit — shutdown, signal, or an exception
     out of the loop: the server never leaks its socket file, its signal
     handlers or its journal channel. *)
  let finally () =
    List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !clients;
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    (try Sys.remove socket with Sys_error _ -> ());
    Cache.close (Executor.cache executor);
    Sys.set_signal Sys.sigpipe old_pipe;
    Sys.set_signal Sys.sigint old_int;
    Sys.set_signal Sys.sigterm old_term
  in
  log (Printf.sprintf "listening on %s" socket);
  Fun.protect ~finally (fun () ->
      while not !stop do
        let fds = listen_fd :: List.map (fun c -> c.fd) !clients in
        let readable =
          (* The timeout bounds how long a signal waits to be noticed. *)
          match Unix.select fds [] [] 0.25 with
          | readable, _, _ -> readable
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
        in
        (* Accept new connections. *)
        if List.memq listen_fd readable then begin
          match Unix.accept listen_fd with
          | fd, _ ->
            incr accepted;
            clients := { fd; buf = Buffer.create 256 } :: !clients
          | exception Unix.Unix_error _ -> ()
        end;
        (* Read every ready client; collect the batch.  Requests queue in
           (client, arrival) order so responses can be written back per
           client in the order its requests were sent. *)
        let queue = ref [] in
        List.iter
          (fun c ->
            if List.memq c.fd readable then begin
              let bytes = Bytes.create 65536 in
              match Unix.read c.fd bytes 0 (Bytes.length bytes) with
              | 0 -> close_client c
              | n ->
                Buffer.add_subbytes c.buf bytes 0 n;
                List.iter (fun line -> queue := handle_line c line !queue) (drain_lines c)
              | exception Unix.Unix_error _ -> close_client c
            end)
          !clients;
        let queue = List.rev !queue in
        if queue <> [] then begin
          incr batches;
          (* [run_batch] journals every stored result before any reply is
             written below, so an acknowledged result is already on disk. *)
          let responses = Executor.run_batch executor (List.map snd queue) in
          Cache.sync (Executor.cache executor);
          List.iter2
            (fun (c, _) resp -> write_line c.fd (Executor.response_to_json resp))
            queue responses;
          served := !served + List.length responses;
          log
            (Printf.sprintf "batch of %d (%d served total, cache %d/%d)" (List.length queue)
               !served
               (Cache.length (Executor.cache executor))
               (Cache.capacity (Executor.cache executor)));
          match max_requests with
          | Some limit when !served >= limit -> stop := true
          | _ -> ()
        end
      done);
  log (Printf.sprintf "shutdown after %d requests in %d batches" !served !batches);
  { served = !served; batches = !batches; clients = !accepted }
