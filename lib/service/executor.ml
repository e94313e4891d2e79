open Lb_observe

type t = {
  jobs : int;
  timeout_s : float option;
  cache_ : Cache.t;
  compute : jobs:int -> Request.t -> (Json.t, string) result;
}

let create ?(jobs = 1) ?timeout_s ~cache ~compute () =
  let jobs = if jobs = 0 then Lb_exec.Pool.default_jobs () else jobs in
  if jobs < 0 then invalid_arg (Printf.sprintf "Executor: negative jobs %d" jobs);
  { jobs; timeout_s; cache_ = cache; compute }

type outcome = Ok of Json.t | Error of string | Timeout

type response = {
  request : Request.t;
  key : string;
  outcome : outcome;
  cached : bool;
  deduped : bool;
  elapsed_s : float;
}

exception Timed_out

(* A SIGALRM deadline around one sequential computation.  Only armed when
   the executor runs at jobs = 1: a signal raised while the pool is joining
   helper domains would abandon them mid-merge, so parallel executors treat
   the timeout as advisory (see the .mli). *)
let with_deadline seconds f =
  match seconds with
  | None -> f ()
  | Some s when s <= 0.0 -> f ()
  | Some s ->
    let previous =
      Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Timed_out))
    in
    let disarm () =
      ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_value = 0.0; it_interval = 0.0 });
      Sys.set_signal Sys.sigalrm previous
    in
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_value = s; it_interval = 0.0 });
    Fun.protect ~finally:disarm f

let metric name = "service." ^ name

let run_batch t requests =
  let m = Metrics.current () in
  let total = List.length requests in
  Metrics.incr ~by:total m (metric "requests");
  Metrics.set_gauge m (metric "queue_depth") (float_of_int total);
  let keyed = List.map (fun r -> (Request.key r, r)) requests in
  (* Classify in request order: cache hit / first miss of a key / in-flight
     duplicate of an earlier miss. *)
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let classified =
    List.map
      (fun (key, r) ->
        match Cache.find t.cache_ key with
        | Some payload -> (key, r, `Hit payload)
        | None ->
          if Hashtbl.mem seen key then (key, r, `Dup)
          else begin
            Hashtbl.add seen key ();
            (key, r, `Miss)
          end)
      keyed
  in
  let misses =
    List.filter_map (fun (key, r, c) -> if c = `Miss then Some (key, r) else None) classified
  in
  (* The computation's own fan-out: honour the request's jobs hint only when
     the executor is sequential — nested pools stay sequential inside. *)
  let inner_jobs (r : Request.t) = if t.jobs = 1 then max 1 r.Request.jobs else 1 in
  let deadline = if t.jobs = 1 then t.timeout_s else None in
  let computed =
    Lb_exec.Pool.map ~jobs:t.jobs
      (fun (key, r) ->
        let t0 = Unix.gettimeofday () in
        let outcome =
          try
            with_deadline deadline (fun () ->
                match t.compute ~jobs:(inner_jobs r) r with
                | Stdlib.Ok payload -> Ok payload
                | Stdlib.Error msg -> Error msg)
          with
          | Timed_out -> Timeout
          | exn -> Error (Printexc.to_string exn)
        in
        (key, outcome, Unix.gettimeofday () -. t0))
      misses
  in
  List.iter
    (fun (key, outcome, _) ->
      match outcome with
      | Ok payload ->
        let request =
          match List.assoc_opt key keyed with
          | Some r -> Request.to_json r
          | None -> Json.Null
        in
        Cache.store t.cache_ ~key ~request payload
      | Error _ | Timeout -> ())
    computed;
  let responses =
    List.map
      (fun (key, r, c) ->
        match c with
        | `Hit payload ->
          Metrics.incr m (metric "hits");
          { request = r; key; outcome = Ok payload; cached = true; deduped = false;
            elapsed_s = 0.0 }
        | `Miss | `Dup -> (
          let deduped = c = `Dup in
          if deduped then Metrics.incr m (metric "dedup_inflight")
          else Metrics.incr m (metric "misses");
          match List.find_opt (fun (k, _, _) -> k = key) computed with
          | Some (_, outcome, elapsed) ->
            (match outcome with
            | Ok _ -> ()
            | Error _ -> Metrics.incr m (metric "errors")
            | Timeout -> Metrics.incr m (metric "timeouts"));
            { request = r; key; outcome; cached = false; deduped;
              elapsed_s = (if deduped then 0.0 else elapsed) }
          | None ->
            (* Unreachable: every miss key is in [computed]. *)
            Metrics.incr m (metric "errors");
            { request = r; key; outcome = Error "internal: lost computation"; cached = false;
              deduped; elapsed_s = 0.0 }))
      classified
  in
  List.iter
    (fun resp -> Metrics.observe m (metric "latency_ms") (resp.elapsed_s *. 1000.0))
    responses;
  Metrics.set_gauge m (metric "queue_depth") 0.0;
  responses

let response_to_json resp =
  let status, tail =
    match resp.outcome with
    | Ok payload -> ("ok", [ ("data", payload) ])
    | Error msg -> ("error", [ ("error", Json.Str msg) ])
    | Timeout -> ("timeout", [])
  in
  Json.Obj
    ([
       ("status", Json.Str status);
       ("key", Json.Str resp.key);
       ("cached", Json.Bool resp.cached);
       ("deduped", Json.Bool resp.deduped);
       ("elapsed_s", Json.Float resp.elapsed_s);
       ("request", Request.to_json resp.request);
     ]
    @ tail)

let cache t = t.cache_
