(* Comparing two benchmark snapshots under the bounds of BENCHMARK.json.

   For each workload and end-to-end metric, the change is judged against
   the metric's bound: the relative bound from BENCHMARK.json, or an
   absolute floor where one is set here, whichever allows more.  When
   either side's IQR is wider than that allowance the runs cannot tell a
   change from noise, and the row is "unresolved". *)

open Lowerbound

type verdict = Unchanged | Regressed | Improved | Unresolved

let verdict_name = function
  | Unchanged -> "ok"
  | Regressed -> "REGRESSED"
  | Improved -> "improved"
  | Unresolved -> "unresolved"

type bound = { metric : string; lower_is_better : bool; rel : float; abs : float }

(* Set-up is milliseconds or less, where scheduling noise alone exceeds any
   relative bound. *)
let abs_floor = function "setup_s" -> 0.05 | _ -> 0.0

(* Any increase in the share of failed checks is a regression. *)
let failed_frac = { metric = "failed_frac"; lower_is_better = true; rel = 0.0; abs = 0.0 }

let judge b ~(base : Stats.summary) ~(cur : Stats.summary) =
  let allowed = Float.max (b.rel *. Float.abs base.Stats.median) b.abs in
  let worse =
    if b.lower_is_better then cur.Stats.median -. base.Stats.median
    else base.Stats.median -. cur.Stats.median
  in
  if base.Stats.q3 -. base.Stats.q1 > allowed || cur.Stats.q3 -. cur.Stats.q1 > allowed then
    Unresolved
  else if worse > allowed then Regressed
  else if -.worse > allowed then Improved
  else Unchanged

let bounds_of_benchmark json =
  let entries = Option.bind (Json.member "end_to_end" json) Json.to_list_opt in
  match entries with
  | None -> Error "BENCHMARK.json has no end_to_end list"
  | Some entries ->
    let parse e =
      match
        ( Option.bind (Json.member "name" e) Json.to_str_opt,
          Option.bind (Json.member "better" e) Json.to_str_opt,
          Option.bind (Json.member "bound" e) Json.to_float_opt )
      with
      | Some metric, Some better, Some rel ->
        Some { metric; lower_is_better = better = "lower"; rel; abs = abs_floor metric }
      | _ -> None
    in
    let bounds = List.filter_map parse entries in
    if List.compare_lengths bounds entries <> 0 then Error "malformed end_to_end entry"
    else Ok (bounds @ [ failed_frac ])

type row = {
  workload : string;
  metric : string;
  base : Stats.summary;
  cur : Stats.summary;
  verdict : verdict;
}

let workloads_of snapshot =
  Option.value ~default:[]
    (Option.bind (Json.member "data" snapshot) (fun d ->
         Option.bind (Json.member "workloads" d) Json.to_list_opt))

let name_of w = Option.value ~default:"?" (Option.bind (Json.member "workload" w) Json.to_str_opt)

let summary w metric =
  Option.bind (Json.member "end_to_end" w) (fun e ->
      Option.bind (Json.member metric e) Stats.summary_of_json)

(* Rows for every workload present in both snapshots. *)
let rows bounds ~base ~cur =
  List.concat_map
    (fun bw ->
      let workload = name_of bw in
      match List.find_opt (fun cw -> name_of cw = workload) (workloads_of cur) with
      | None -> []
      | Some cw ->
        List.filter_map
          (fun (b : bound) ->
            match (summary bw b.metric, summary cw b.metric) with
            | Some bs, Some cs ->
              let verdict = judge b ~base:bs ~cur:cs in
              Some { workload; metric = b.metric; base = bs; cur = cs; verdict }
            | _ -> None)
          bounds)
    (workloads_of base)

let pp_row ppf r =
  let change =
    if r.base.Stats.median = 0.0 then 0.0
    else 100.0 *. (r.cur.Stats.median -. r.base.Stats.median) /. r.base.Stats.median
  in
  Format.fprintf ppf "%-24s %-12s %12.6g [%5.1f%%] %12.6g [%5.1f%%] %+7.1f%%  %s" r.workload
    r.metric r.base.Stats.median
    (100.0 *. Stats.rel_iqr r.base)
    r.cur.Stats.median
    (100.0 *. Stats.rel_iqr r.cur)
    change (verdict_name r.verdict)

let pp_table ppf rows =
  Format.fprintf ppf "%-24s %-12s %12s [  IQR ] %12s [  IQR ] %8s  %s@." "workload" "metric"
    "A median" "B median" "change" "verdict";
  List.iter (Format.fprintf ppf "%a@." pp_row) rows
