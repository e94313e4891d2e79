open Lb_runtime

type row = {
  n : int;
  measured_worst : int;
  measured_mean : float;
  predicted : int;
  lower_bound : int;
  largest_register : int;
  linearizable : bool;
}

let ceil_log4 n =
  let rec go r pow = if pow >= n then r else go (r + 1) (pow * 4) in
  go 0 1

let sweep ~construction ~spec_of ~ops_of ?(scheduler = Scheduler.round_robin) ~ns () =
  List.map
    (fun n ->
      let spec = spec_of n in
      let result =
        Harness.run ~construction ~spec ~n ~ops:(fun pid -> ops_of ~n pid) ~scheduler ()
      in
      if not result.Harness.completed then
        failwith (Printf.sprintf "Complexity.sweep: workload at n = %d ran out of fuel" n);
      let linearizable = n > 8 || Harness.check_linearizable ~spec result in
      {
        n;
        measured_worst = result.Harness.max_cost;
        measured_mean = result.Harness.mean_cost;
        predicted = construction.Iface.worst_case ~n;
        lower_bound = ceil_log4 n;
        largest_register = result.Harness.largest_register;
        linearizable;
      })
    ns

let pp_row ppf r =
  Format.fprintf ppf "n = %4d | worst = %5d | mean = %8.2f | predicted <= %5d | log4(n) = %2d | reg size = %6d | lin = %b"
    r.n r.measured_worst r.measured_mean r.predicted r.lower_bound r.largest_register
    r.linearizable

let pp_table ~header ppf rows =
  Format.fprintf ppf "@[<v>%s@ %a@]" header
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_row)
    rows
