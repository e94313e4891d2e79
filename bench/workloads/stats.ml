(* Order statistics for benchmark samples.

   Quartiles follow Python's [statistics.quantiles(data, n=4)] (its default
   "exclusive" method), so the spread printed here is the spread an external
   checker computes from the same samples. *)

type summary = { median : float; q1 : float; q3 : float; n : int }

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples"
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (cut 1, cut 3)

let summarize xs =
  let q1, q3 = quartiles xs in
  { median = median xs; q1; q3; n = List.length xs }

(* The IQR as a share of the median: the spread the bounds are judged by. *)
let rel_iqr s = if s.median = 0.0 then 0.0 else (s.q3 -. s.q1) /. Float.abs s.median

let json_of_summary s =
  Lowerbound.Json.(
    Obj [ ("median", Float s.median); ("q1", Float s.q1); ("q3", Float s.q3); ("n", Int s.n) ])

let summary_of_json j =
  let open Lowerbound.Json in
  let f k = Option.bind (member k j) to_float_opt in
  match (f "median", f "q1", f "q3", Option.bind (member "n" j) to_int_opt) with
  | Some median, Some q1, Some q3, Some n -> Some { median; q1; q3; n }
  | _ -> None
