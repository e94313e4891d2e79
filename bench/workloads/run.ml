(* The repository benchmark: five single-process verification workloads.

   Usage (from the repository root):
     dune exec bench/workloads/run.exe -- --workload NAME --seed N [--seconds S] [--trace 0|1]
         one workload in this process; the last stdout line is the JSON result
     dune exec bench/workloads/run.exe -- --all [--seed N] [--seconds S] [--trace 0|1]
         every workload, each in its own child process, one at a time; prints
         every metric and appends a snapshot to BENCH_workloads.json
     dune exec bench/workloads/run.exe -- --compare A.json B.json
         judge the last snapshot of B against the last of A under the bounds
         of BENCHMARK.json

   Nothing here spawns a domain: every workload runs single-threaded, with
   no worker pool, one process at a time.  See README.md. *)

open Bench_workloads
open Lowerbound

let default_seconds = 20

let usage () =
  prerr_endline
    "usage: run.exe --workload NAME --seed N [--seconds S] [--trace 0|1]\n\
    \       run.exe --all [--seed N] [--seconds S] [--trace 0|1]\n\
    \       run.exe --compare A.json B.json";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
  exit 2

type mode = One of string | All | Compare of string * string

type opts = { mode : mode option; seed : int; seconds : int; trace : bool }

let parse argv =
  let int s = match int_of_string_opt s with Some k -> k | None -> usage () in
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest -> go { o with mode = Some (One w) } rest
    | "--all" :: rest -> go { o with mode = Some All } rest
    | "--compare" :: a :: b :: rest -> go { o with mode = Some (Compare (a, b)) } rest
    | "--seed" :: s :: rest -> go { o with seed = int s } rest
    | "--seconds" :: s :: rest -> go { o with seconds = int s } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { o with trace = t = "1" } rest
    | _ -> usage ()
  in
  let o = go { mode = None; seed = 1; seconds = default_seconds; trace = false } argv in
  if o.seconds < 1 then usage ();
  o

let one name ~seed ~seconds ~trace =
  match Workloads.find name with
  | None -> usage ()
  | Some w ->
    let r = Measure.run w ~seed ~seconds ~trace in
    Measure.print r;
    Format.printf "detail: %s@." (Json.to_string (Measure.detail r));
    print_endline (Json.to_string (Measure.result_line r));
    exit (if r.Measure.failures = [] then 0 else 1)

(* The commit being measured, when the checkout is a git repository. *)
let commit () =
  let read path =
    try
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Some (String.trim (input_line ic)))
    with Sys_error _ | End_of_file -> None
  in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head ->
    read (Filename.concat ".git" (String.sub head 5 (String.length head - 5)))
  | other -> other

(* Runs one child and returns its parsed detail line (echoing its output). *)
let child name ~seed ~seconds ~trace =
  let args =
    [|
      Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed; "--seconds";
      string_of_int seconds; "--trace"; (if trace then "1" else "0");
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let detail = ref None in
  (try
     while true do
       let line = input_line ic in
       print_endline line;
       if String.starts_with ~prefix:"detail: " line then
         detail := Result.to_option (Json.parse (String.sub line 8 (String.length line - 8)))
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (status = Unix.WEXITED 0, !detail)

let all ~seed ~seconds ~trace =
  let results =
    List.map
      (fun (w : Workloads.t) ->
        let ok, detail = child w.Workloads.name ~seed ~seconds ~trace in
        (w.Workloads.name, ok && detail <> None, detail))
      Workloads.all
  in
  let iterations d = Option.bind (Json.member "iterations" d) Json.to_int_opt in
  let meta =
    [
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("seed", Json.Int seed);
      ("seconds", Json.Int seconds);
      ("trace", Json.Bool trace);
      ("jobs", Json.Int 1);
      ( "iterations",
        Json.Obj
          (List.map
             (fun (name, _, d) ->
               let k = Option.bind d iterations in
               (name, Option.fold ~none:Json.Null ~some:(fun k -> Json.Int k) k))
             results) );
    ]
    @ match commit () with Some c -> [ ("commit", Json.Str c) ] | None -> []
  in
  let data =
    Json.Obj
      [
        ( "workloads",
          Json.Arr (List.filter_map (fun (_, _, d) -> d) results) );
      ]
  in
  let path = Bench_out.append ~suite:"workloads" ~meta data in
  Format.printf "@.(appended a snapshot to %s)@." path;
  List.iter
    (fun (name, ok, _) -> Format.printf "%-26s %s@." name (if ok then "ok" else "FAILED"))
    results;
  exit (if List.for_all (fun (_, ok, _) -> ok) results then 0 else 1)

let compare_snapshots a b =
  let load path =
    match In_channel.with_open_bin path In_channel.input_all |> Json.parse with
    | Ok j -> j
    | Error e -> failwith (Printf.sprintf "%s: %s" path e)
    | exception Sys_error e -> failwith e
  in
  let last path =
    match Json.to_list_opt (load path) with
    | Some (_ :: _ as l) -> List.nth l (List.length l - 1)
    | _ -> failwith (path ^ ": no snapshot")
  in
  let bounds =
    match Compare.bounds_of_benchmark (load "BENCHMARK.json") with
    | Ok b -> b
    | Error e -> failwith e
  in
  let rows = Compare.rows bounds ~base:(last a) ~cur:(last b) in
  Format.printf "A = %s, B = %s@.%a" a b Compare.pp_table rows;
  exit (if List.exists (fun r -> r.Compare.verdict = Compare.Regressed) rows then 1 else 0)

let () =
  let o = parse (List.tl (Array.to_list Sys.argv)) in
  match o.mode with
  | Some (One name) -> one name ~seed:o.seed ~seconds:o.seconds ~trace:o.trace
  | Some All -> all ~seed:o.seed ~seconds:o.seconds ~trace:o.trace
  | Some (Compare (a, b)) -> compare_snapshots a b
  | None -> usage ()
