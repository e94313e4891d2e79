(* A shared fetch&increment counter three ways.

   The same sequential specification (Counters.fetch_inc) is implemented by
   (1) the O(log n) oblivious combining tree, (2) the O(n) oblivious
   announce-array baseline, and (3) the non-wait-free LL/SC retry loop —
   then exercised by 16 processes performing 4 increments each under a
   random schedule.  Responses must be a permutation of 0..63 in each case;
   the per-operation shared-access costs show the paper's separation.

   Run with: dune exec examples/shared_counter.exe *)

open Lowerbound

let n = 16
let per_process = 4
let spec = Counters.fetch_inc ~bits:62

let report name (result : Harness.result) =
  let responses =
    List.map (fun (s : Harness.op_stat) -> Value.to_int s.Harness.response) result.Harness.stats
    |> List.sort Int.compare
  in
  let expected = List.init (n * per_process) (fun i -> i) in
  Format.printf "%-18s completed=%b correct=%b worst-op-cost=%3d mean=%6.2f register-size<=%d@."
    name result.Harness.completed
    (responses = expected)
    result.Harness.max_cost result.Harness.mean_cost result.Harness.largest_register

let run construction =
  Harness.run ~construction ~spec ~n
    ~ops:(fun _ -> List.init per_process (fun _ -> Value.Unit))
    ~scheduler:(Scheduler.random ~seed:7) ()

let () =
  Format.printf "16 processes x 4 increments, random schedule (seed 7):@.@.";
  List.iter
    (fun (construction : Iface.t) -> report construction.Iface.name (run construction))
    [ Adt_tree.construction; Herlihy.construction ];
  (* The non-oblivious retry loop: cheap solo, unbounded under contention. *)
  report "fetch-inc-retry" (run Direct.fetch_inc);
  Format.printf
    "@.the tree pays 8*ceil(log2 n)+9 = %d always; the baseline pays 2n+6 = %d;@."
    (Adt_tree.construction.Iface.worst_case ~n)
    (Herlihy.construction.Iface.worst_case ~n);
  Format.printf
    "the retry loop is 2 ops solo but its worst case grows with contention —@.\
     and the paper says: below O(log n) you must give up obliviousness.@."
