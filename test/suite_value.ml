(* Tests for Value: the structured, unbounded register contents. *)

open Lowerbound

let value = Alcotest.testable Value.pp Value.equal

let samples =
  [
    Value.Unit;
    Value.Bool true;
    Value.Bool false;
    Value.Int 0;
    Value.Int (-7);
    Value.Int max_int;
    Value.Str "";
    Value.Str "hello";
    Value.Pair (Value.Int 1, Value.Str "x");
    Value.List [];
    Value.List [ Value.Int 1; Value.Int 2 ];
    Value.Bits (Bitvec.ones 17);
    Value.Pair (Value.List [ Value.Unit ], Value.Pair (Value.Bool true, Value.Int 3));
  ]

let test_equal_reflexive () =
  List.iter (fun v -> Alcotest.check value (Value.to_string v) v v) samples

let test_equal_distinct () =
  (* All samples are pairwise distinct. *)
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i <> j then
            Alcotest.(check bool)
              (Printf.sprintf "distinct %d %d" i j)
              false (Value.equal a b))
        samples)
    samples

let test_compare_total_order () =
  (* compare agrees with equal and is antisymmetric and transitive over the
     sample set. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let c = Value.compare a b in
          Alcotest.(check bool) "antisym" true (c = -Value.compare b a);
          Alcotest.(check bool) "equal iff zero" true (Value.equal a b = (c = 0)))
        samples)
    samples;
  let sorted = List.sort Value.compare samples in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          List.iter
            (fun c ->
              if Value.compare a b <= 0 && Value.compare b c <= 0 then
                Alcotest.(check bool) "transitive" true (Value.compare a c <= 0))
            sorted)
        sorted)
    sorted

let test_accessors () =
  Alcotest.(check int) "to_int" 42 (Value.to_int (Value.int 42));
  Alcotest.(check bool) "to_bool" true (Value.to_bool (Value.bool true));
  Alcotest.(check string) "to_str" "s" (Value.to_str (Value.str "s"));
  let a, b = Value.to_pair (Value.pair (Value.int 1) (Value.int 2)) in
  Alcotest.check value "pair fst" (Value.int 1) a;
  Alcotest.check value "pair snd" (Value.int 2) b;
  let x, y, z = Value.to_triple (Value.triple (Value.int 1) (Value.int 2) (Value.int 3)) in
  Alcotest.check value "triple 1" (Value.int 1) x;
  Alcotest.check value "triple 2" (Value.int 2) y;
  Alcotest.check value "triple 3" (Value.int 3) z;
  Alcotest.(check int) "list len" 2 (List.length (Value.to_list (Value.list [ Value.unit; Value.unit ])))

let test_accessor_errors () =
  Alcotest.check_raises "to_int on Str" (Invalid_argument "Value: expected Int, got \"x\"")
    (fun () -> ignore (Value.to_int (Value.str "x")));
  Alcotest.check_raises "to_pair on Unit" (Invalid_argument "Value: expected Pair, got ()")
    (fun () -> ignore (Value.to_pair Value.unit))

let test_size () =
  Alcotest.(check int) "scalar" 1 (Value.size (Value.int 5));
  Alcotest.(check int) "pair" 3 (Value.size (Value.pair Value.unit Value.unit));
  Alcotest.(check int) "list" 3 (Value.size (Value.list [ Value.unit; Value.unit ]));
  Alcotest.(check int) "bits counts words" 16 (Value.size (Value.bits (Bitvec.ones 1000)));
  Alcotest.(check int) "small bits" 1 (Value.size (Value.bits (Bitvec.ones 8)))

let test_pp () =
  Alcotest.(check string) "unit" "()" (Value.to_string Value.unit);
  Alcotest.(check string) "int" "42" (Value.to_string (Value.int 42));
  Alcotest.(check string) "pair" "(1, true)"
    (Value.to_string (Value.pair (Value.int 1) (Value.bool true)))

(* ---- hashing and the printed form ---- *)

(* Random values over a small universe, so that equal and near-equal pairs
   are common: strings over the printer's own punctuation, bit vectors of
   a few widths, nested pairs and lists long enough to reach the printer's
   line breaks. *)
let widths = [ 1; 8; 16; 17; 64 ]

let gen_leaf =
  QCheck.Gen.(
    let str =
      let chars = [ 'a'; '1'; ';'; ','; '['; ']'; '"'; '\n'; ' '; '('; ')'; '\\' ] in
      string_size ~gen:(oneofl chars) (0 -- 4)
    in
    let bits =
      let* width = oneofl widths in
      let* k = 0 -- 5 in
      let+ top = bool in
      Bitvec.set (Bitvec.of_int ~width (k land ((1 lsl min width 3) - 1))) (width - 1) top
    in
    frequency
      [
        (1, return Value.Unit);
        (1, map Value.bool bool);
        (3, map Value.int (-2 -- 2));
        (3, map Value.str str);
        (2, map Value.bits bits);
      ])

let gen_value =
  QCheck.Gen.(
    sized_size (0 -- 4)
    @@ fix (fun self depth ->
           if depth = 0 then gen_leaf
           else
             frequency
               [
                 (2, gen_leaf);
                 (2, map2 Value.pair (self (depth - 1)) (self (depth - 1)));
                 (2, map Value.list (list_size (0 -- 6) (self (depth - 1))));
               ]))

(* A structural copy sharing no node with the original. *)
let rec copy = function
  | (Value.Unit | Value.Bool _ | Value.Int _) as v -> v
  | Value.Str s -> Value.Str (Bytes.to_string (Bytes.of_string s))
  | Value.Pair (a, b) -> Value.Pair (copy a, copy b)
  | Value.List vs -> Value.List (List.map copy vs)
  | Value.Bits b -> Value.Bits (Bitvec.logor b (Bitvec.zero (Bitvec.width b)))

(* The same value with one subtree redrawn as a leaf, replaced by a string
   of its own printed form, or, for a bit vector, resized: often unequal by
   a few characters of the printed form, sometimes equal. *)
let rec tweak v =
  QCheck.Gen.(
    let here = oneof [ gen_leaf; return (Value.Str (Value.to_string v)) ] in
    match v with
    | Value.Pair (a, b) ->
      oneof
        [
          here;
          map (fun a -> Value.Pair (a, b)) (tweak a);
          map (fun b -> Value.Pair (a, b)) (tweak b);
        ]
    | Value.List (_ :: _ as vs) ->
      let redraw =
        let* i = 0 -- (List.length vs - 1) in
        map
          (fun x -> Value.List (List.mapi (fun j y -> if i = j then x else y) vs))
          (tweak (List.nth vs i))
      in
      oneof [ here; redraw ]
    | Value.Bits b ->
      let resized = map (fun width -> Value.Bits (Bitvec.resize b ~width)) (oneofl widths) in
      oneof [ here; resized ]
    | Value.List [] | Value.Unit | Value.Bool _ | Value.Int _ | Value.Str _ -> here)

let arb_value_pair =
  QCheck.make
    ~print:(fun (a, b) -> Printf.sprintf "%s  vs  %s" (Value.to_string a) (Value.to_string b))
    QCheck.Gen.(
      let* a = gen_value in
      let+ b = oneof [ gen_value; return (copy a); tweak a ] in
      (a, b))

(* Property: [hash] agrees with [equal], on fresh copies too. *)
let prop_hash_agrees_with_equal =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"hash agrees with equal" arb_value_pair (fun (a, b) ->
         Value.hash a = Value.hash (copy a)
         && ((not (Value.equal a b)) || Value.hash a = Value.hash b)))

(* Property: two values print alike exactly when they are equal.  The
   linearizability checker interns states by [equal] where it once keyed
   them on the printed form; this is what keeps the two searches identical. *)
let prop_printed_form_iff_equal =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"printed form equal iff equal" arb_value_pair
       (fun (a, b) -> String.equal (Value.to_string a) (Value.to_string b) = Value.equal a b))

let suite =
  [
    Alcotest.test_case "equal reflexive" `Quick test_equal_reflexive;
    Alcotest.test_case "samples pairwise distinct" `Quick test_equal_distinct;
    Alcotest.test_case "compare total order" `Quick test_compare_total_order;
    Alcotest.test_case "accessors" `Quick test_accessors;
    Alcotest.test_case "accessor errors" `Quick test_accessor_errors;
    Alcotest.test_case "size" `Quick test_size;
    Alcotest.test_case "pretty printing" `Quick test_pp;
    prop_hash_agrees_with_equal;
    prop_printed_form_iff_equal;
  ]
