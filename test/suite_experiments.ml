(* End-to-end: the full experiment suite (reduced sweeps) must pass — this
   is the executable form of every lemma and theorem in the paper. *)

let test_quick_suite () =
  List.iter
    (fun (table : Lb_experiments.Table.t) ->
      if not table.Lb_experiments.Table.pass then
        Alcotest.failf "%s (%s) failed:@.%a" table.Lb_experiments.Table.id
          table.Lb_experiments.Table.title Lb_experiments.Table.pp table)
    (Lb_experiments.Experiments.all ~quick:true ())

let test_registry_complete () =
  Alcotest.(check (list string)) "ids"
    [ "e1"; "e2"; "e3"; "e4"; "e5"; "e6"; "e7"; "e8"; "e9"; "e10"; "e11"; "e12"; "e13"; "e14" ]
    Lb_experiments.Experiments.ids;
  List.iter
    (fun quick ->
      List.iter
        (fun id ->
          Alcotest.(check bool) (id ^ " resolvable") true
            (Lb_experiments.Experiments.by_id ~quick id <> None))
        Lb_experiments.Experiments.ids;
      Alcotest.(check bool) "unknown id" true
        (Lb_experiments.Experiments.by_id ~quick "e99" = None))
    [ false; true ]

(* [exp --quick e7] must print the table [exp --quick] prints for E7, not
   the full-size one. *)
let test_by_id_quick () =
  let quick_e7 =
    List.find
      (fun (t : Lb_experiments.Table.t) -> t.Lb_experiments.Table.id = "E7")
      (Lb_experiments.Experiments.all ~quick:true ())
  in
  match Lb_experiments.Experiments.by_id ~quick:true "E7" with
  | None -> Alcotest.fail "e7 not found"
  | Some f ->
    Alcotest.(check string) "same table"
      (Format.asprintf "%a" Lb_experiments.Table.pp quick_e7)
      (Format.asprintf "%a" Lb_experiments.Table.pp (f ()))

(* A table's JSON is a function of the computation: two fresh runs print
   the same bytes, and the printed form parses back to them. *)
let test_table_json_deterministic () =
  let json () =
    match Lb_experiments.Experiments.by_id ~quick:true "e1" with
    | Some f -> Lowerbound.Json.to_string (Lb_experiments.Table.to_json (f ()))
    | None -> Alcotest.fail "e1 not found"
  in
  let first = json () in
  Alcotest.(check string) "two fresh computations" first (json ());
  match Lowerbound.Json.parse first with
  | Ok j -> Alcotest.(check string) "parse -> print" first (Lowerbound.Json.to_string j)
  | Error msg -> Alcotest.fail msg

let test_table_rendering () =
  let table =
    {
      Lb_experiments.Table.id = "T";
      title = "demo";
      header = [ "a"; "bb" ];
      rows = [ [ "1"; "2" ]; [ "333"; "4" ] ];
      notes = [ "a note" ];
      pass = true;
    }
  in
  let rendered = Format.asprintf "%a" Lb_experiments.Table.pp table in
  Alcotest.(check bool) "has banner" true
    (Astring_contains.contains rendered "== T: demo [PASS]");
  Alcotest.(check bool) "has note" true (Astring_contains.contains rendered "note: a note")

let test_chart_rendering () =
  let chart =
    Lb_experiments.Chart.render ~width:16 ~height:5
      [
        { Lb_experiments.Chart.label = "linear"; mark = 'l'; points = [ (2, 2); (4, 4); (8, 8) ] };
        { Lb_experiments.Chart.label = "flat"; mark = 'f'; points = [ (2, 0); (4, 0); (8, 0) ] };
      ]
  in
  Alcotest.(check bool) "has legend" true (Astring_contains.contains chart "l = linear");
  Alcotest.(check bool) "has axis" true (Astring_contains.contains chart "n = 2, 4, 8");
  Alcotest.(check bool) "max label" true (Astring_contains.contains chart "8 |");
  (* Top-right corner is the linear series' maximum. *)
  let first_line = List.hd (String.split_on_char '\n' chart) in
  Alcotest.(check bool) "peak plotted" true
    (String.length first_line > 0 && first_line.[String.length first_line - 1] = 'l');
  Alcotest.check_raises "empty chart" (Invalid_argument "Chart.render: no points") (fun () ->
      ignore (Lb_experiments.Chart.render []))

let suite =
  [
    Alcotest.test_case "chart rendering" `Quick test_chart_rendering;
    Alcotest.test_case "registry complete" `Quick test_registry_complete;
    Alcotest.test_case "table rendering" `Quick test_table_rendering;
    Alcotest.test_case "quick experiment suite passes" `Slow test_quick_suite;
    Alcotest.test_case "by_id honours quick" `Quick test_by_id_quick;
    Alcotest.test_case "table JSON is deterministic and re-parses" `Quick
      test_table_json_deterministic;
  ]
