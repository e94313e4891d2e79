(* The experiment service layer (lib/service): request content hashing,
   the LRU + JSONL result cache, the batching executor (cache hits,
   in-flight dedup, error isolation, timeouts) and the Unix-socket server
   under concurrent clients.

   The load-bearing properties:
   - the content hash is a function of the computation, not its encoding —
     invariant under JSON field reordering and under the jobs knob;
   - a cache round-trip (store -> journal -> reload -> serve) yields the
     byte-identical payload a fresh computation produces;
   - a batch computes each distinct uncached key exactly once, whatever
     mix of duplicates and cache hits surrounds it. *)

open Lb_service
module Json = Lb_observe.Json
module Metrics = Lb_observe.Metrics

let prop ?(count = 200) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* ---- generators ---- *)

let gen_request =
  QCheck.Gen.(
    let* jobs = 1 -- 4 in
    let* spec =
      oneof
        [
          (let* id = oneofl [ "e1"; "e5"; "e7"; "e14"; "nonsense" ] in
           let* quick = bool in
           return (Request.experiment ~quick id));
          (let* target = oneofl [ "direct"; "adt-tree"; "naive-collect" ] in
           let* plan = oneofl [ "crash-stop"; "spurious-sc"; "chaos" ] in
           let* n = 2 -- 16 in
           let* ops = 1 -- 3 in
           let* seed = 0 -- 99 in
           return (Request.certify ~n ~ops ~seed ~target ~plan ()));
          (let* target = oneofl [ "herlihy"; "direct" ] in
           let* otype =
             oneof [ oneofl [ "fetch-inc"; "queue" ]; string_size ~gen:printable (1 -- 12) ]
           in
           let* schedules = 1 -- 300 in
           let* seed = 0 -- 99 in
           return (Request.conform ~otype ~schedules ~seed ~target ()));
        ]
    in
    return (Request.with_jobs spec jobs))

let arb_request = QCheck.make ~print:Request.describe gen_request

(* Small arbitrary JSON payloads for cache round-trips. *)
let gen_payload =
  QCheck.Gen.(
    let* pass = bool in
    let* n = 0 -- 1000 in
    let* s = string_size ~gen:printable (0 -- 20) in
    let* xs = list_size (0 -- 5) (0 -- 50) in
    return
      (Json.Obj
         [
           ("pass", Json.Bool pass);
           ("n", Json.Int n);
           ("title", Json.Str s);
           ("rows", Json.Arr (List.map (fun x -> Json.Int x) xs));
         ]))

(* ---- request hashing ---- *)

let t_roundtrip =
  prop "of_json (to_json r) = r" arb_request (fun r ->
      Request.of_json (Request.to_json r) = Ok r)

let t_key_ignores_jobs =
  prop "key invariant under jobs" arb_request (fun r ->
      Request.key r = Request.key (Request.with_jobs r 7)
      && Request.equal r (Request.with_jobs r 7))

let t_key_ignores_field_order =
  prop "key invariant under JSON field reordering (+ jobs)"
    (QCheck.make
       ~print:(fun (r, _) -> Request.describe r)
       QCheck.Gen.(
         let* r = gen_request in
         let* fields =
           match Request.to_json r with
           | Json.Obj fields -> shuffle_l fields
           | _ -> return []
         in
         return (r, fields)))
    (fun (r, shuffled) ->
      let shuffled =
        (* Also perturb the jobs value, not just its position. *)
        List.map
          (function "jobs", _ -> ("jobs", Json.Int 5) | field -> field)
          shuffled
      in
      match Request.of_json (Json.Obj shuffled) with
      | Ok r' -> Request.key r' = Request.key r
      | Error _ -> false)

let t_distinct_requests_distinct_keys () =
  let keys =
    List.map Request.key
      [
        Request.experiment "e1";
        Request.experiment ~quick:true "e1";
        Request.experiment "e2";
        Request.certify ~target:"direct" ~plan:"crash-stop" ();
        Request.certify ~target:"direct" ~plan:"chaos" ();
        Request.certify ~target:"direct" ~plan:"crash-stop" ~seed:2 ();
      ]
  in
  Alcotest.(check int)
    "six distinct computations, six distinct keys" 6
    (List.length (List.sort_uniq compare keys))

(* Cache keys pinned to the values the server has always computed: a
   journal on disk is only warm while these stay put. *)
let t_golden_keys () =
  List.iter
    (fun (expected, r) -> Alcotest.(check string) (Request.describe r) expected (Request.key r))
    [
      ("685f684c3e19f850bb8fe99e352ce926", Request.experiment ~quick:true "e1");
      ("b69245a0e5ac4eed33e25ded20892a1a", Request.certify ~target:"direct" ~plan:"crash-stop" ());
      ("8ffbb580b5ff25ba93cac4d0431dd658", Request.conform ~target:"herlihy" ());
    ]

let t_of_json_defaults () =
  match Json.parse {|{"kind":"certify","plan":"chaos","target":"direct"}|} with
  | Error msg -> Alcotest.fail msg
  | Ok json ->
    Alcotest.(check bool)
      "omitted fields take their defaults" true
      (Request.of_json json = Ok (Request.certify ~target:"direct" ~plan:"chaos" ()))

(* ---- cache ---- *)

let payload_a = Json.Obj [ ("v", Json.Int 1) ]
let payload_b = Json.Obj [ ("v", Json.Int 2) ]
let payload_c = Json.Obj [ ("v", Json.Int 3) ]

let t_cache_hit_miss () =
  let cache = Cache.create ~capacity:4 () in
  Alcotest.(check bool) "miss before store" true (Cache.find cache "k1" = None);
  Cache.store cache ~key:"k1" ~request:Json.Null payload_a;
  Alcotest.(check bool) "hit after store" true (Cache.find cache "k1" = Some payload_a);
  Cache.store cache ~key:"k1" ~request:Json.Null payload_b;
  Alcotest.(check bool) "store refreshes" true (Cache.find cache "k1" = Some payload_b);
  Alcotest.(check int) "refresh does not grow" 1 (Cache.length cache)

let t_cache_lru_eviction () =
  let cache = Cache.create ~capacity:2 () in
  Cache.store cache ~key:"a" ~request:Json.Null payload_a;
  Cache.store cache ~key:"b" ~request:Json.Null payload_b;
  ignore (Cache.find cache "a");
  (* "b" is now least recently used; storing "c" must evict it. *)
  Cache.store cache ~key:"c" ~request:Json.Null payload_c;
  Alcotest.(check bool) "recently used survives" true (Cache.mem cache "a");
  Alcotest.(check bool) "LRU evicted" false (Cache.mem cache "b");
  Alcotest.(check bool) "new entry present" true (Cache.mem cache "c");
  Alcotest.(check int) "one eviction" 1 (Cache.evictions cache)

let with_temp_file f =
  let path = Filename.temp_file "lbsvc_cache" ".jsonl" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let t_cache_journal_reload () =
  with_temp_file (fun path ->
      Sys.remove path;
      let cache = Cache.create ~capacity:8 ~path () in
      Cache.store cache ~key:"k1" ~request:Json.Null payload_a;
      Cache.store cache ~key:"k2" ~request:Json.Null payload_b;
      Cache.store cache ~key:"k1" ~request:Json.Null payload_c;
      Cache.close cache;
      let reloaded = Cache.create ~capacity:8 ~path () in
      Alcotest.(check int) "three journal lines replayed" 3 (Cache.loaded reloaded);
      Alcotest.(check int) "no corruption" 0 (Cache.corrupt reloaded);
      Alcotest.(check int) "two live keys" 2 (Cache.length reloaded);
      Alcotest.(check bool) "last store of k1 wins" true
        (Cache.find reloaded "k1" = Some payload_c);
      Alcotest.(check bool) "k2 survives" true (Cache.find reloaded "k2" = Some payload_b);
      Cache.close reloaded)

let t_cache_corrupt_recovery () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc
        ({|{"key":"good1","request":null,"response":{"v":1}}|} ^ "\n"
        ^ "this is not json\n"
        ^ {|{"no_key_field":true,"response":{"v":9}}|} ^ "\n"
        ^ {|{"key":"good2","request":null,"response":{"v":2}}|} ^ "\n"
        ^ {|{"key":"trunc","request":null,"resp|});
      (* no trailing newline: a crash mid-append *)
      close_out oc;
      let cache = Cache.create ~capacity:8 ~path () in
      Alcotest.(check int) "two good lines" 2 (Cache.loaded cache);
      Alcotest.(check int) "three damaged lines skipped" 3 (Cache.corrupt cache);
      Alcotest.(check bool) "good entries served" true
        (Cache.find cache "good1" = Some payload_a && Cache.find cache "good2" = Some payload_b);
      (* The survivor of a damaged journal must still accept stores. *)
      Cache.store cache ~key:"k3" ~request:Json.Null payload_c;
      Cache.close cache;
      let reloaded = Cache.create ~capacity:8 ~path () in
      Alcotest.(check bool) "append after damage round-trips" true
        (Cache.find reloaded "k3" = Some payload_c);
      Cache.close reloaded)

let t_cache_roundtrip_byte_identical =
  prop ~count:100 "journal round-trip is byte-identical"
    (QCheck.make ~print:Json.to_string gen_payload)
    (fun payload ->
      with_temp_file (fun path ->
          Sys.remove path;
          let cache = Cache.create ~path () in
          Cache.store cache ~key:"k" ~request:Json.Null payload;
          Cache.close cache;
          let reloaded = Cache.create ~path () in
          let found = Cache.find reloaded "k" in
          Cache.close reloaded;
          match found with
          | Some payload' -> Json.to_string payload' = Json.to_string payload
          | None -> false))

(* ---- executor ---- *)

(* A deterministic toy computation that counts its invocations. *)
let counting_compute calls ~jobs:_ (r : Request.t) =
  incr calls;
  Ok (Json.Obj [ ("echo", Json.Str (Request.describe r)) ])

let r1 = Request.experiment "e1"
let r2 = Request.experiment "e2"

let t_executor_dedup_and_cache () =
  let calls = ref 0 in
  let registry = Metrics.create () in
  Metrics.with_registry registry (fun () ->
      let cache = Cache.create () in
      let executor = Executor.create ~cache ~compute:(counting_compute calls) () in
      let responses = Executor.run_batch executor [ r1; r1; r2 ] in
      Alcotest.(check int) "three responses" 3 (List.length responses);
      Alcotest.(check int) "two computations for three requests" 2 !calls;
      (match responses with
      | [ a; b; c ] ->
        Alcotest.(check bool) "first r1 computed" false (a.Executor.cached || a.Executor.deduped);
        Alcotest.(check bool) "second r1 deduped in flight" true b.Executor.deduped;
        Alcotest.(check bool) "r2 computed" false (c.Executor.cached || c.Executor.deduped);
        Alcotest.(check bool) "dup payload identical" true (a.Executor.outcome = b.Executor.outcome)
      | _ -> Alcotest.fail "wrong arity");
      (* Second batch: everything cached, no further computation. *)
      let responses = Executor.run_batch executor [ r1; r2 ] in
      Alcotest.(check int) "no recomputation" 2 !calls;
      Alcotest.(check bool) "both served from cache" true
        (List.for_all (fun r -> r.Executor.cached) responses);
      Alcotest.(check int) "hits" 2 (Metrics.counter_value registry "service.hits");
      Alcotest.(check int) "misses" 2 (Metrics.counter_value registry "service.misses");
      Alcotest.(check int) "dedups" 1 (Metrics.counter_value registry "service.dedup_inflight");
      Alcotest.(check int) "requests" 5 (Metrics.counter_value registry "service.requests"))

let t_executor_error_isolation () =
  let compute ~jobs:_ (r : Request.t) =
    match r.Request.spec with
    | Request.Experiment { id = "e1"; _ } -> failwith "boom"
    | _ -> Ok Json.Null
  in
  let registry = Metrics.create () in
  Metrics.with_registry registry (fun () ->
      let cache = Cache.create () in
      let executor = Executor.create ~cache ~compute () in
      match Executor.run_batch executor [ r1; r2 ] with
      | [ a; b ] ->
        (match a.Executor.outcome with
        | Executor.Error msg ->
          Alcotest.(check bool) "exception captured" true
            (Astring_contains.contains msg "boom")
        | _ -> Alcotest.fail "expected an error outcome");
        Alcotest.(check bool) "sibling request unaffected" true
          (b.Executor.outcome = Executor.Ok Json.Null);
        Alcotest.(check int) "errors counted" 1 (Metrics.counter_value registry "service.errors");
        Alcotest.(check bool) "failed result not cached" false
          (Cache.mem cache a.Executor.key)
      | _ -> Alcotest.fail "wrong arity")

let t_executor_timeout () =
  let compute ~jobs:_ (r : Request.t) =
    match r.Request.spec with
    | Request.Experiment { id = "e1"; _ } ->
      (* Allocate so the SIGALRM poll point is reached promptly. *)
      let rec spin acc = if Sys.opaque_identity !acc < 0 then Ok Json.Null else spin (ref (!acc + 1)) in
      spin (ref 0)
    | _ -> Ok Json.Null
  in
  let registry = Metrics.create () in
  Metrics.with_registry registry (fun () ->
      let cache = Cache.create () in
      let executor = Executor.create ~timeout_s:0.2 ~cache ~compute () in
      match Executor.run_batch executor [ r1; r2 ] with
      | [ a; b ] ->
        Alcotest.(check bool) "runaway request timed out" true
          (a.Executor.outcome = Executor.Timeout);
        Alcotest.(check bool) "sibling still served" true
          (b.Executor.outcome = Executor.Ok Json.Null);
        Alcotest.(check int) "timeout counted" 1
          (Metrics.counter_value registry "service.timeouts")
      | _ -> Alcotest.fail "wrong arity")

(* Cache round-trip against the real catalog: save -> reload -> serve must
   be byte-identical to a fresh computation (quick e1 keeps it fast). *)
let t_catalog_roundtrip_byte_identical () =
  let req = Request.experiment ~quick:true "e1" in
  let fresh =
    match Catalog.compute ~jobs:1 req with
    | Ok payload -> Json.to_string payload
    | Error msg -> Alcotest.fail msg
  in
  with_temp_file (fun path ->
      Sys.remove path;
      let cache = Cache.create ~path () in
      let executor = Executor.create ~cache ~compute:Catalog.compute () in
      ignore (Executor.run_batch executor [ req ]);
      Cache.close cache;
      let cache = Cache.create ~path () in
      let executor = Executor.create ~cache ~compute:Catalog.compute () in
      match Executor.run_batch executor [ req ] with
      | [ { Executor.cached = true; outcome = Executor.Ok payload; _ } ] ->
        Alcotest.(check string) "reloaded-cache serve = fresh computation" fresh
          (Json.to_string payload);
        Cache.close cache
      | _ -> Alcotest.fail "expected one cache hit after reload")

let t_catalog_unknown () =
  (match Catalog.compute ~jobs:1 (Request.experiment "e99") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown experiment must be an error");
  match Catalog.compute ~jobs:1 (Request.certify ~target:"direct" ~plan:"no-such-plan" ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown plan must be an error"

(* ---- the server under concurrent clients ---- *)

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let send_line fd json =
  let line = Json.to_string json ^ "\n" in
  ignore (Unix.write_substring fd line 0 (String.length line))

let recv_lines fd wanted =
  let buf = Buffer.create 1024 in
  let deadline = Unix.gettimeofday () +. 30.0 in
  let count () =
    let n = ref 0 in
    String.iter (fun c -> if c = '\n' then incr n) (Buffer.contents buf);
    !n
  in
  while count () < wanted && Unix.gettimeofday () < deadline do
    match Unix.select [ fd ] [] [] 1.0 with
    | [], _, _ -> ()
    | _ ->
      let bytes = Bytes.create 65536 in
      let n = Unix.read fd bytes 0 (Bytes.length bytes) in
      if n = 0 then raise Exit else Buffer.add_subbytes buf bytes 0 n
  done;
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l -> match Json.parse l with Ok j -> j | Error e -> failwith e)

let status_of json =
  Option.value ~default:"?" (Option.bind (Json.member "status" json) Json.to_str_opt)

let fresh_socket () =
  let tmp = Filename.temp_file "lbsvc_srv" "" in
  Sys.remove tmp;
  tmp ^ ".sock"

(* Run a toy-compute server on [cache] in its own domain (Unix.fork is off
   the table: the exec suite has already spawned domains by the time this
   suite runs); joining the domain yields [serve]'s stats or the exception
   it raised.  The server domain gets a fresh metrics registry — the DLS
   default is one global registry, which the parent's earlier tests have
   already written service.* counts into. *)
let spawn_server ~socket ~cache ?log () =
  Domain.spawn (fun () ->
      Metrics.with_registry (Metrics.create ()) (fun () ->
          let calls = ref 0 in
          let executor = Executor.create ~cache ~compute:(counting_compute calls) () in
          match Server.serve ~socket ~executor ?log () with
          | stats -> Ok stats
          | exception e -> Error e))

let shutdown = Json.Obj [ ("op", Json.Str "shutdown") ]

(* A toy server on a scratch socket for the duration of [body]. *)
let with_toy_server ?(cache = Cache.create ~capacity:64 ()) body =
  let socket = fresh_socket () in
  let server = spawn_server ~socket ~cache () in
  let finally () =
    ignore (Client.call ~socket ~timeout_s:2.0 [ shutdown ]);
    ignore (Domain.join server);
    if Sys.file_exists socket then Sys.remove socket
  in
  Fun.protect ~finally (fun () ->
      Alcotest.(check bool) "server came up" true (Client.wait_ready ~socket ());
      body socket)

(* A counter from the live server's metrics registry (0 when absent). *)
let server_counter socket name =
  match Client.call ~socket ~timeout_s:5.0 [ Json.Obj [ ("op", Json.Str "metrics") ] ] with
  | Ok [ response ] -> (
    match
      Option.bind (Json.member "data" response) (fun d ->
          Option.bind (Json.member "counters" d) (fun c ->
              Option.bind (Json.member name c) Json.to_int_opt))
    with
    | Some v -> v
    | None -> 0)
  | Ok _ | Error _ -> Alcotest.fail "metrics fetch failed"

(* Fire a randomized mix of requests from several simultaneously connected
   clients (duplicates included, written before any responses are read, so
   the server coalesces across clients), and check every response plus the
   hit/miss/dedup accounting. *)
let t_server_concurrent_fuzz () =
  with_toy_server (fun socket ->
        let pool =
          [|
            Request.experiment "e1"; Request.experiment "e2";
            Request.certify ~target:"direct" ~plan:"crash-stop" ();
          |]
        in
        let rand = Random.State.make [| 0xC0FFEE |] in
        let total = ref 0 in
        for _round = 1 to 3 do
          (* Connect all clients first, write every request, then read: the
             requests are genuinely in flight together. *)
          let clients =
            List.init 3 (fun _ ->
                let fd = connect socket in
                let reqs =
                  List.init
                    (1 + Random.State.int rand 4)
                    (fun _ -> pool.(Random.State.int rand (Array.length pool)))
                in
                List.iter (fun r -> send_line fd (Request.to_json r)) reqs;
                total := !total + List.length reqs;
                (fd, reqs))
          in
          List.iter
            (fun (fd, reqs) ->
              let responses = recv_lines fd (List.length reqs) in
              Alcotest.(check int) "one response per request" (List.length reqs)
                (List.length responses);
              List.iter2
                (fun req response ->
                  Alcotest.(check string) "status ok" "ok" (status_of response);
                  let echoed =
                    Option.bind (Json.member "data" response) (Json.member "echo")
                  in
                  Alcotest.(check bool) "payload echoes the request" true
                    (echoed = Some (Json.Str (Request.describe req))))
                reqs responses;
              Unix.close fd)
            clients
        done;
        (* The accounting must balance: every request was a hit, a fresh
           computation, or an in-flight dedup; distinct keys bound misses. *)
        let counter = server_counter socket in
        let hits = counter "service.hits"
        and misses = counter "service.misses"
        and dedups = counter "service.dedup_inflight" in
        Alcotest.(check int) "hits + misses + dedups = requests" !total (hits + misses + dedups);
        Alcotest.(check bool) "each distinct key computed at most once" true (misses <= 3);
        Alcotest.(check int) "no errors" 0 (counter "service.errors"))

let t_server_rejects_garbage () =
  with_toy_server (fun socket ->
      let fd = connect socket in
      ignore (Unix.write_substring fd "not json at all\n" 0 16);
      send_line fd (Json.Obj [ ("kind", Json.Str "experiment") ]);
      (* missing id *)
      send_line fd (Request.to_json r1);
      let responses = recv_lines fd 3 in
      (match List.map status_of responses with
      | [ "error"; "error"; "ok" ] -> ()
      | other ->
        Alcotest.fail
          (Printf.sprintf "expected error;error;ok, got %s" (String.concat ";" other)));
      Unix.close fd)

(* Every exit from [serve] takes the same cleanup path: a [log] callback
   that raises on the batch line unwinds the loop after the reply went
   out, and the socket file is gone and the journal closed afterwards. *)
exception Log_boom

let t_serve_raise_cleans_up () =
  with_temp_file (fun path ->
      Sys.remove path;
      let socket = fresh_socket () in
      let cache = Cache.create ~path () in
      let log line = if String.starts_with ~prefix:"batch of" line then raise Log_boom in
      let server = spawn_server ~socket ~cache ~log () in
      Alcotest.(check bool) "server came up" true (Client.wait_ready ~socket ());
      (match Client.request ~socket ~timeout_s:5.0 [ r1 ] with
      | Ok [ reply ] -> Alcotest.(check string) "reply written before the raise" "ok" (status_of reply)
      | Ok _ | Error _ -> Alcotest.fail "expected one reply");
      (match Domain.join server with
      | Error Log_boom -> ()
      | Error e -> Alcotest.fail ("unexpected exception " ^ Printexc.to_string e)
      | Ok _ -> Alcotest.fail "serve should have re-raised");
      Alcotest.(check bool) "socket file unlinked" false (Sys.file_exists socket);
      let journal () = In_channel.with_open_bin path In_channel.input_all in
      let before = journal () in
      Cache.store cache ~key:"after" ~request:Json.Null payload_a;
      Alcotest.(check string) "journal closed: a later store is not journalled" before
        (journal ()))

(* Journal before reply: by the time a client holds a reply, the result's
   journal line is already on disk.  The cache is fsync-armed, so the
   batch-boundary [Cache.sync] runs for real on this path. *)
let t_reply_already_journalled () =
  with_temp_file (fun path ->
      Sys.remove path;
      with_toy_server ~cache:(Cache.create ~path ~fsync:true ()) (fun socket ->
          match Client.request ~socket ~timeout_s:5.0 [ r1 ] with
          | Ok [ reply ] -> (
            match Option.bind (Json.member "key" reply) Json.to_str_opt with
            | Some key ->
              let journal = In_channel.with_open_bin path In_channel.input_all in
              Alcotest.(check bool) "the acknowledged key is already journalled" true
                (Astring_contains.contains journal key)
            | None -> Alcotest.fail "reply carries no key")
          | Ok _ | Error _ -> Alcotest.fail "expected one reply"))

(* ---- client resilience against malformed servers ---- *)

(* A single-shot fake server: accept one connection, drain whatever the
   client wrote (until a newline or the peer stops sending), run [script]
   on the connection, close.  Lets each test scripts an arbitrary broken
   reply without touching the real server. *)
let with_fake_server script body =
  let tmp = Filename.temp_file "lbsvc_fake" "" in
  Sys.remove tmp;
  let socket = tmp ^ ".sock" in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX socket);
  Unix.listen listener 1;
  let server =
    Domain.spawn (fun () ->
        try
          let fd, _ = Unix.accept listener in
          let bytes = Bytes.create 4096 in
          let rec drain () =
            match Unix.read fd bytes 0 (Bytes.length bytes) with
            | 0 -> ()
            | n -> if not (Bytes.contains (Bytes.sub bytes 0 n) '\n') then drain ()
            | exception Unix.Unix_error _ -> ()
          in
          drain ();
          (try script fd with _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ())
        with _ -> ())
  in
  let finally () =
    Domain.join server;
    (try Unix.close listener with Unix.Unix_error _ -> ());
    if Sys.file_exists socket then Sys.remove socket
  in
  Fun.protect ~finally (fun () -> body socket)

let raw fd s = ignore (Unix.write_substring fd s 0 (String.length s))
let ping = Json.Obj [ ("op", Json.Str "ping") ]

let t_client_truncated_reply () =
  with_fake_server
    (fun fd -> raw fd "{\"status\":\"ok\",\"da")
    (fun socket ->
      match Client.call ~socket ~timeout_s:5.0 [ ping ] with
      | Error Client.Closed -> ()
      | Error e ->
        Alcotest.fail ("expected Closed, got " ^ Client.error_message e)
      | Ok _ -> Alcotest.fail "truncated reply must not parse as a response")

let t_client_non_json_reply () =
  with_fake_server
    (fun fd -> raw fd "this is not json\n")
    (fun socket ->
      match Client.call ~socket ~timeout_s:5.0 [ ping ] with
      | Error (Client.Bad_line { line; _ }) ->
        Alcotest.(check string) "offending line preserved" "this is not json" line
      | Error e ->
        Alcotest.fail ("expected Bad_line, got " ^ Client.error_message e)
      | Ok _ -> Alcotest.fail "non-JSON reply must not parse as a response")

let t_client_unknown_key_reply () =
  with_fake_server
    (fun fd -> raw fd "{\"key\":\"deadbeef\",\"status\":\"ok\"}\n")
    (fun socket ->
      match Client.request ~socket ~timeout_s:5.0 [ Request.experiment "e1" ] with
      | Error (Client.Unknown_key { key; _ }) ->
        Alcotest.(check string) "stray key reported" "deadbeef" key
      | Error e ->
        Alcotest.fail ("expected Unknown_key, got " ^ Client.error_message e)
      | Ok _ -> Alcotest.fail "a reply keyed by an unknown hash must be rejected")

let t_client_timeout_and_connect () =
  (* A server that accepts and then never replies -> Timeout. *)
  with_fake_server
    (fun _fd -> Unix.sleepf 0.3)
    (fun socket ->
      match Client.call ~socket ~timeout_s:0.1 [ ping ] with
      | Error (Client.Timeout s) -> Alcotest.(check (float 1e-9)) "deadline echoed" 0.1 s
      | Error e -> Alcotest.fail ("expected Timeout, got " ^ Client.error_message e)
      | Ok _ -> Alcotest.fail "a mute server cannot satisfy the call");
  (* No socket at all -> Connect, not an exception. *)
  match Client.call ~socket:"/nonexistent/lbsvc.sock" ~timeout_s:1.0 [ ping ] with
  | Error (Client.Connect _) -> ()
  | Error e -> Alcotest.fail ("expected Connect, got " ^ Client.error_message e)
  | Ok _ -> Alcotest.fail "connecting to a missing socket cannot succeed"

(* Seeded fuzz: whatever bytes the server sends back, the client returns a
   typed result — it never raises and never hangs past its deadline. *)
let t_client_garbage_fuzz () =
  let rand = Random.State.make [| 0xBADF00D |] in
  for _case = 1 to 12 do
    let len = Random.State.int rand 80 in
    let reply =
      String.init len (fun _ -> Char.chr (32 + Random.State.int rand 95))
      ^ if Random.State.bool rand then "\n" else ""
    in
    with_fake_server
      (fun fd -> raw fd reply)
      (fun socket ->
        match Client.call ~socket ~timeout_s:5.0 [ ping ] with
        | Ok _ | Error _ -> ()
        | exception e ->
          Alcotest.fail
            (Printf.sprintf "client raised %s on reply %S" (Printexc.to_string e) reply))
  done

(* ---- robustness: short writes, torn journals ---- *)

(* Regression for the short-write bug: write_line must deliver a reply far
   larger than the socket's send buffer intact, however many write
   syscalls that takes.  A concurrent reader domain drains the other end
   so the blocking writes can make progress. *)
let t_write_line_short_writes () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.setsockopt_int a Unix.SO_SNDBUF 4096 with Unix.Unix_error _ -> ());
  let blob = String.concat "" (List.init 8000 (fun i -> Printf.sprintf "x%d" i)) in
  let json = Json.Obj [ ("status", Json.Str "ok"); ("blob", Json.Str blob) ] in
  let expected = Json.to_string json ^ "\n" in
  let reader =
    Domain.spawn (fun () ->
        let buf = Buffer.create (String.length expected) in
        let bytes = Bytes.create 65536 in
        let rec go () =
          if Buffer.length buf < String.length expected then
            match Unix.read b bytes 0 (Bytes.length bytes) with
            | 0 -> ()
            | n ->
              Buffer.add_subbytes buf bytes 0 n;
              go ()
        in
        go ();
        Buffer.contents buf)
  in
  Server.write_line a json;
  Unix.close a;
  let got = Domain.join reader in
  Unix.close b;
  Alcotest.(check int) "every byte delivered" (String.length expected) (String.length got);
  Alcotest.(check bool) "byte-identical line" true (String.equal got expected)

(* Property: tearing the journal's final record (a crash mid-append) loses
   at most that one record — every earlier entry reloads, nothing raises,
   and the survivor still accepts appends. *)
let t_cache_truncated_tail =
  prop ~count:50 "torn final journal record loses at most that record"
    (QCheck.make
       QCheck.Gen.(
         let* payloads = list_size (1 -- 5) gen_payload in
         let* cut = 2 -- 10_000 in
         return (payloads, cut)))
    (fun (payloads, cut) ->
      with_temp_file (fun path ->
          Sys.remove path;
          let cache = Cache.create ~path ~fsync:true () in
          List.iteri
            (fun i p -> Cache.store cache ~key:(Printf.sprintf "k%d" i) ~request:Json.Null p)
            payloads;
          Cache.sync cache;
          Cache.close cache;
          let contents = In_channel.with_open_bin path In_channel.input_all in
          let len = String.length contents in
          (* Bytes of the final record including its newline. *)
          let last_line_len =
            match String.rindex_from_opt contents (len - 2) '\n' with
            | Some nl -> len - nl - 1
            | None -> len
          in
          (* Tear off the trailing newline plus at least one byte of the
             record — possibly the whole record. *)
          let torn = 2 + (cut mod (max 1 (last_line_len - 1))) in
          Unix.truncate path (max 0 (len - torn));
          let n = List.length payloads in
          let reloaded = Cache.create ~path () in
          let earlier_ok =
            List.for_all
              (fun i ->
                Cache.find reloaded (Printf.sprintf "k%d" i)
                = Some (List.nth payloads i))
              (List.init (n - 1) Fun.id)
          in
          let corrupt_ok = Cache.corrupt reloaded <= 1 in
          (* The survivor must still journal appends cleanly. *)
          Cache.store reloaded ~key:"fresh" ~request:Json.Null payload_a;
          Cache.close reloaded;
          let again = Cache.create ~path () in
          let append_ok = Cache.find again "fresh" = Some payload_a in
          Cache.close again;
          earlier_ok && corrupt_ok && append_ok))

let t_client_out_of_order_replies () =
  (* Replies for a batch arriving in the wrong order are still accepted —
     responses are keyed, and key-set validation is what the client pins. *)
  let ra = Request.experiment "ooo-a" and rb = Request.experiment "ooo-b" in
  with_fake_server
    (fun fd ->
      raw fd
        (Printf.sprintf "{\"key\":%S,\"status\":\"ok\"}\n{\"key\":%S,\"status\":\"ok\"}\n"
           (Request.key rb) (Request.key ra)))
    (fun socket ->
      match Client.request ~socket ~timeout_s:5.0 [ ra; rb ] with
      | Ok replies -> Alcotest.(check int) "both keyed replies accepted" 2 (List.length replies)
      | Error e -> Alcotest.fail ("expected acceptance: " ^ Client.error_message e))

(* Idempotency under resends: a client that lost a reply and resends an
   already-executed request gets the cached result — the content key makes
   the resend a cache hit, never a second execution.  misses = 1 is the
   proof. *)
let t_client_never_double_executes () =
  with_toy_server (fun socket ->
      let req = Request.experiment "idempotent" in
      for _ = 1 to 3 do
        match Client.request ~socket ~timeout_s:5.0 [ req ] with
        | Ok [ reply ] -> Alcotest.(check string) "served" "ok" (status_of reply)
        | Ok _ | Error _ -> Alcotest.fail "expected one reply"
      done;
      Alcotest.(check int) "executed exactly once despite resends" 1
        (server_counter socket "service.misses");
      Alcotest.(check int) "resends served from the cache" 2
        (server_counter socket "service.hits"))

let suite =
  [
    Alcotest.test_case "request: distinct requests, distinct keys" `Quick
      t_distinct_requests_distinct_keys;
    Alcotest.test_case "request: of_json fills defaults" `Quick t_of_json_defaults;
    Alcotest.test_case "request: cache keys match their golden values" `Quick t_golden_keys;
    t_roundtrip;
    t_key_ignores_jobs;
    t_key_ignores_field_order;
    Alcotest.test_case "cache: hit/miss/refresh" `Quick t_cache_hit_miss;
    Alcotest.test_case "cache: LRU eviction" `Quick t_cache_lru_eviction;
    Alcotest.test_case "cache: journal reload" `Quick t_cache_journal_reload;
    Alcotest.test_case "cache: corrupt journal recovery" `Quick t_cache_corrupt_recovery;
    t_cache_roundtrip_byte_identical;
    Alcotest.test_case "executor: in-flight dedup + cache" `Quick t_executor_dedup_and_cache;
    Alcotest.test_case "executor: one poisoned request cannot sink a batch" `Quick
      t_executor_error_isolation;
    Alcotest.test_case "executor: per-request timeout (sequential)" `Quick t_executor_timeout;
    Alcotest.test_case "catalog: save -> reload -> serve = fresh computation" `Slow
      t_catalog_roundtrip_byte_identical;
    Alcotest.test_case "catalog: unknown ids are errors, not crashes" `Quick t_catalog_unknown;
    Alcotest.test_case "server: concurrent client fuzz" `Slow t_server_concurrent_fuzz;
    Alcotest.test_case "server: malformed lines get error responses" `Quick
      t_server_rejects_garbage;
    Alcotest.test_case "server: an exception out of the loop still cleans up" `Quick
      t_serve_raise_cleans_up;
    Alcotest.test_case "server: an acknowledged result is already journalled" `Quick
      t_reply_already_journalled;
    Alcotest.test_case "client: truncated reply is a typed error" `Quick
      t_client_truncated_reply;
    Alcotest.test_case "client: non-JSON reply is a typed error" `Quick
      t_client_non_json_reply;
    Alcotest.test_case "client: unknown reply key is a typed error" `Quick
      t_client_unknown_key_reply;
    Alcotest.test_case "client: timeout and connect failures are typed" `Quick
      t_client_timeout_and_connect;
    Alcotest.test_case "client: garbage reply fuzz never raises" `Quick t_client_garbage_fuzz;
    Alcotest.test_case "server: write_line survives a tiny send buffer" `Quick
      t_write_line_short_writes;
    t_cache_truncated_tail;
    Alcotest.test_case "client: out-of-order keyed replies are accepted" `Quick
      t_client_out_of_order_replies;
    Alcotest.test_case "client: resends never double-execute (cache proves it)" `Quick
      t_client_never_double_executes;
  ]
