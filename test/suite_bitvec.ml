(* Unit and property tests for the Bitvec substrate: the k-bit words backing
   the paper's n-bit fetch&and / fetch&or / fetch&multiply objects. *)

open Lowerbound

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let bv = Alcotest.testable Bitvec.pp Bitvec.equal

(* Widths that cross limb boundaries (limbs are 16 bits). *)
let widths = [ 1; 2; 7; 15; 16; 17; 31; 32; 33; 48; 61; 62; 63; 64; 65; 100; 128; 200 ]

let test_zero_ones () =
  List.iter
    (fun k ->
      check_int (Printf.sprintf "zero width %d" k) k (Bitvec.width (Bitvec.zero k));
      check "zero is_zero" true (Bitvec.is_zero (Bitvec.zero k));
      check_int (Printf.sprintf "ones popcount %d" k) k (Bitvec.popcount (Bitvec.ones k));
      check "ones not zero" false (Bitvec.is_zero (Bitvec.ones k)))
    widths

let test_of_to_int () =
  List.iter
    (fun v ->
      let b = Bitvec.of_int ~width:62 v in
      Alcotest.(check (option int)) (Printf.sprintf "roundtrip %d" v) (Some v)
        (Bitvec.to_int_opt b))
    [ 0; 1; 2; 255; 65535; 65536; 123456789; max_int / 2 ]

let test_of_int_truncates () =
  (* of_int reduces modulo 2^width. *)
  let b = Bitvec.of_int ~width:4 255 in
  Alcotest.(check (option int)) "255 mod 16" (Some 15) (Bitvec.to_int_opt b);
  let b = Bitvec.of_int ~width:8 256 in
  Alcotest.(check (option int)) "256 mod 256" (Some 0) (Bitvec.to_int_opt b)

let test_get_set () =
  let b = Bitvec.zero 40 in
  let b = Bitvec.set b 0 true in
  let b = Bitvec.set b 17 true in
  let b = Bitvec.set b 39 true in
  check "bit 0" true (Bitvec.get b 0);
  check "bit 17" true (Bitvec.get b 17);
  check "bit 39" true (Bitvec.get b 39);
  check "bit 16" false (Bitvec.get b 16);
  check_int "popcount" 3 (Bitvec.popcount b);
  let b = Bitvec.set b 17 false in
  check "bit 17 cleared" false (Bitvec.get b 17);
  check_int "popcount after clear" 2 (Bitvec.popcount b)

let test_bounds () =
  Alcotest.check_raises "width 0" (Invalid_argument "Bitvec: width 0 must be positive")
    (fun () -> ignore (Bitvec.zero 0));
  Alcotest.check_raises "negative bit" (Invalid_argument "Bitvec: bit -1 out of range for width 8")
    (fun () -> ignore (Bitvec.get (Bitvec.zero 8) (-1)));
  Alcotest.check_raises "bit = width" (Invalid_argument "Bitvec: bit 8 out of range for width 8")
    (fun () -> ignore (Bitvec.get (Bitvec.zero 8) 8))

let test_mismatched_widths () =
  Alcotest.check_raises "add widths" (Invalid_argument "Bitvec.add: widths 8 and 9 differ")
    (fun () -> ignore (Bitvec.add (Bitvec.zero 8) (Bitvec.zero 9)))

let test_add_small () =
  let v a = Bitvec.of_int ~width:8 a in
  Alcotest.check bv "3+5" (v 8) (Bitvec.add (v 3) (v 5));
  Alcotest.check bv "255+1 wraps" (v 0) (Bitvec.add (v 255) (v 1));
  Alcotest.check bv "succ 255" (v 0) (Bitvec.succ (v 255))

let test_mul_small () =
  let v a = Bitvec.of_int ~width:8 a in
  Alcotest.check bv "3*5" (v 15) (Bitvec.mul (v 3) (v 5));
  Alcotest.check bv "16*16 wraps" (v 0) (Bitvec.mul (v 16) (v 16));
  Alcotest.check bv "17*15" (v 255) (Bitvec.mul (v 17) (v 15))

let test_mul_wide () =
  (* Cross-limb carries: with x = 2^64 - 1 in 128 bits, check the identities
     (x+1)·x = x² + x and (x+1)·x = x << 64 (since x+1 = 2^64). *)
  let w = 128 in
  let x = Bitvec.lognot (Bitvec.shift_left (Bitvec.ones w) 64) in
  let lhs = Bitvec.mul (Bitvec.succ x) x in
  Alcotest.check bv "(x+1)x = x^2 + x" lhs (Bitvec.add (Bitvec.mul x x) x);
  Alcotest.check bv "(x+1)x = x<<64" (Bitvec.shift_left x 64) lhs

let test_shift_left () =
  let v = Bitvec.of_int ~width:70 1 in
  let s = Bitvec.shift_left v 69 in
  check "bit 69" true (Bitvec.get s 69);
  check_int "popcount" 1 (Bitvec.popcount s);
  Alcotest.check bv "shift out" (Bitvec.zero 70) (Bitvec.shift_left v 70);
  Alcotest.check bv "shift by 0" v (Bitvec.shift_left v 0)

let test_logic_small () =
  let v a = Bitvec.of_int ~width:8 a in
  Alcotest.check bv "and" (v 0b1000) (Bitvec.logand (v 0b1100) (v 0b1010));
  Alcotest.check bv "or" (v 0b1110) (Bitvec.logor (v 0b1100) (v 0b1010));
  Alcotest.check bv "xor" (v 0b0110) (Bitvec.logxor (v 0b1100) (v 0b1010));
  Alcotest.check bv "not" (v 0b11110011) (Bitvec.lognot (v 0b00001100))

let test_complement_bit () =
  let b = Bitvec.zero 33 in
  let b1 = Bitvec.complement_bit b 32 in
  check "flipped" true (Bitvec.get b1 32);
  Alcotest.check bv "involution" b (Bitvec.complement_bit b1 32)

let test_compare_order () =
  let v a = Bitvec.of_int ~width:32 a in
  check "lt" true (Bitvec.compare (v 3) (v 5) < 0);
  check "gt" true (Bitvec.compare (v 70000) (v 5) > 0);
  check_int "eq" 0 (Bitvec.compare (v 42) (v 42));
  check "width order" true (Bitvec.compare (Bitvec.zero 8) (Bitvec.zero 9) < 0)

let test_to_string () =
  Alcotest.(check string) "small" "0x1f/8" (Bitvec.to_string (Bitvec.of_int ~width:8 31));
  Alcotest.(check string) "zero" "0x0/8" (Bitvec.to_string (Bitvec.zero 8))

(* ---- set-view helpers (the Ids hot path) ---- *)

let test_resize () =
  let b = Bitvec.of_int ~width:8 0b1011 in
  let grown = Bitvec.resize b ~width:40 in
  check_int "grow keeps width" 40 (Bitvec.width grown);
  Alcotest.(check (option int)) "grow zero-pads" (Some 0b1011) (Bitvec.to_int_opt grown);
  let shrunk = Bitvec.resize b ~width:2 in
  Alcotest.(check (option int)) "shrink truncates" (Some 0b11) (Bitvec.to_int_opt shrunk);
  Alcotest.check bv "same width is identity" b (Bitvec.resize b ~width:8)

let test_set_grow () =
  let b = Bitvec.set_grow (Bitvec.zero 1) 70 true in
  check "distant bit set" true (Bitvec.get b 70);
  check "width grew past the bit" true (Bitvec.width b > 70);
  check_int "only that bit" 1 (Bitvec.popcount b);
  (* Within the current width it is plain set. *)
  Alcotest.check bv "no growth needed" (Bitvec.set (Bitvec.zero 8) 3 true)
    (Bitvec.set_grow (Bitvec.zero 8) 3 true)

let test_top_bit () =
  Alcotest.(check (option int)) "zero has none" None (Bitvec.top_bit (Bitvec.zero 64));
  let b = Bitvec.set (Bitvec.set (Bitvec.zero 100) 3 true) 77 true in
  Alcotest.(check (option int)) "highest set index" (Some 77) (Bitvec.top_bit b);
  Alcotest.(check (option int)) "bit 0" (Some 0)
    (Bitvec.top_bit (Bitvec.of_int ~width:33 1))

let test_trim () =
  (* Same bit set at different widths trims to one canonical vector —
     what lets Ids use structural equality. *)
  let at_width w = Bitvec.set (Bitvec.set_grow (Bitvec.zero w) 21 true) 4 true in
  Alcotest.check bv "widths collapse" (Bitvec.trim (at_width 22)) (Bitvec.trim (at_width 200));
  check_int "trimmed width is top_bit + 1" 22 (Bitvec.width (Bitvec.trim (at_width 90)));
  check_int "zero trims to width 1" 1 (Bitvec.width (Bitvec.trim (Bitvec.zero 128)))

let test_fold_set () =
  let b = List.fold_left (fun b i -> Bitvec.set_grow b i true) (Bitvec.zero 1) [ 5; 0; 63; 64; 130 ] in
  Alcotest.(check (list int)) "ascending indices" [ 0; 5; 63; 64; 130 ]
    (List.rev (Bitvec.fold_set (fun i acc -> i :: acc) b []));
  Alcotest.(check (list int)) "empty fold" []
    (Bitvec.fold_set (fun i acc -> i :: acc) (Bitvec.zero 64) [])

(* ---- properties ---- *)

let gen_width = QCheck.Gen.oneofl widths

let arb_pair_same_width =
  QCheck.make
    ~print:(fun (a, b) -> Bitvec.to_string a ^ ", " ^ Bitvec.to_string b)
    QCheck.Gen.(
      gen_width >>= fun w ->
      map2
        (fun s1 s2 ->
          let st1 = Random.State.make [| s1 |] and st2 = Random.State.make [| s2 |] in
          (Bitvec.random st1 ~width:w, Bitvec.random st2 ~width:w))
        int int)

let arb_triple_same_width =
  QCheck.make
    ~print:(fun (a, b, c) ->
      String.concat ", " [ Bitvec.to_string a; Bitvec.to_string b; Bitvec.to_string c ])
    QCheck.Gen.(
      gen_width >>= fun w ->
      map3
        (fun s1 s2 s3 ->
          let r s = Bitvec.random (Random.State.make [| s |]) ~width:w in
          (r s1, r s2, r s3))
        int int int)

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:200 ~name arb f)

let properties =
  [
    prop "add commutes" arb_pair_same_width (fun (a, b) ->
        Bitvec.equal (Bitvec.add a b) (Bitvec.add b a));
    prop "mul commutes" arb_pair_same_width (fun (a, b) ->
        Bitvec.equal (Bitvec.mul a b) (Bitvec.mul b a));
    prop "add associates" arb_triple_same_width (fun (a, b, c) ->
        Bitvec.equal (Bitvec.add a (Bitvec.add b c)) (Bitvec.add (Bitvec.add a b) c));
    prop "mul associates" arb_triple_same_width (fun (a, b, c) ->
        Bitvec.equal (Bitvec.mul a (Bitvec.mul b c)) (Bitvec.mul (Bitvec.mul a b) c));
    prop "mul distributes" arb_triple_same_width (fun (a, b, c) ->
        Bitvec.equal (Bitvec.mul a (Bitvec.add b c))
          (Bitvec.add (Bitvec.mul a b) (Bitvec.mul a c)));
    prop "mul by one" arb_pair_same_width (fun (a, _) ->
        Bitvec.equal a (Bitvec.mul a (Bitvec.one (Bitvec.width a))));
    prop "mul by two is shift" arb_pair_same_width (fun (a, _) ->
        Bitvec.equal
          (Bitvec.mul a (Bitvec.of_int ~width:(Bitvec.width a) 2))
          (Bitvec.shift_left a 1));
    prop "and idempotent" arb_pair_same_width (fun (a, _) ->
        Bitvec.equal a (Bitvec.logand a a));
    prop "de morgan" arb_pair_same_width (fun (a, b) ->
        Bitvec.equal
          (Bitvec.lognot (Bitvec.logand a b))
          (Bitvec.logor (Bitvec.lognot a) (Bitvec.lognot b)));
    prop "double complement" arb_pair_same_width (fun (a, _) ->
        Bitvec.equal a (Bitvec.lognot (Bitvec.lognot a)));
    prop "xor self is zero" arb_pair_same_width (fun (a, _) ->
        Bitvec.is_zero (Bitvec.logxor a a));
    prop "add ones is pred" arb_pair_same_width (fun (a, _) ->
        (* a + (2^k - 1) = a - 1 mod 2^k; adding 1 back recovers a. *)
        Bitvec.equal a (Bitvec.succ (Bitvec.add a (Bitvec.ones (Bitvec.width a)))));
    prop "popcount and/or inclusion-exclusion" arb_pair_same_width (fun (a, b) ->
        Bitvec.popcount (Bitvec.logand a b) + Bitvec.popcount (Bitvec.logor a b)
        = Bitvec.popcount a + Bitvec.popcount b);
    prop "compare antisymmetric" arb_pair_same_width (fun (a, b) ->
        Bitvec.compare a b = -Bitvec.compare b a);
    prop "equal iff compare zero" arb_pair_same_width (fun (a, b) ->
        Bitvec.equal a b = (Bitvec.compare a b = 0));
  ]

(* ---- Ids: the dense/sparse pid-set built on Bitvec ---- *)

module Iset = Set.Make (Int)

(* Id pools: small (always dense), straddling the 2^16 dense limit (forces
   the sparse fallback), and mixed so unions/inters cross representations. *)
let arb_id_lists =
  QCheck.make
    ~print:(fun (a, b) ->
      Printf.sprintf "[%s] [%s]"
        (String.concat ";" (List.map string_of_int a))
        (String.concat ";" (List.map string_of_int b)))
    QCheck.Gen.(
      let id =
        oneof
          [ 0 -- 40; return 65535; 65536 -- 65600; return ((1 lsl 16) - 1); 100_000 -- 100_050 ]
      in
      pair (list_size (0 -- 25) id) (list_size (0 -- 25) id))

let ids_prop name f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name arb_id_lists (fun (a, b) ->
         f (Ids.of_list a, Iset.of_list a) (Ids.of_list b, Iset.of_list b)))

let same ids iset = Ids.elements ids = Iset.elements iset

let ids_properties =
  [
    ids_prop "of_list/elements matches Set" (fun (ia, sa) _ -> same ia sa);
    ids_prop "union matches Set" (fun (ia, sa) (ib, sb) ->
        same (Ids.union ia ib) (Iset.union sa sb));
    ids_prop "inter matches Set" (fun (ia, sa) (ib, sb) ->
        same (Ids.inter ia ib) (Iset.inter sa sb));
    ids_prop "diff matches Set" (fun (ia, sa) (ib, sb) ->
        same (Ids.diff ia ib) (Iset.diff sa sb));
    ids_prop "subset matches Set" (fun (ia, sa) (ib, sb) ->
        Ids.subset ia ib = Iset.subset sa sb);
    ids_prop "equal iff same elements" (fun (ia, sa) (ib, sb) ->
        Ids.equal ia ib = Iset.equal sa sb);
    ids_prop "add/remove/mem match Set" (fun (ia, sa) _ ->
        same (Ids.add 7 ia) (Iset.add 7 sa)
        && same (Ids.remove 7 ia) (Iset.remove 7 sa)
        && Ids.mem 7 ia = Iset.mem 7 sa
        && Ids.cardinal ia = Iset.cardinal sa);
    (* A sparse set's tree shape must not remember insertion order: the
       dedup keys of Explore.iter_dpor compare Psets with [=] and hash them
       with [Ids.hash]. *)
    ids_prop "= and hash ignore insertion order" (fun (ia, _) (ib, _) ->
        let ab = Ids.union ia ib and ba = Ids.union ib ia in
        let rev = Ids.of_list (List.rev (Ids.elements ab)) in
        ab = ba && ab = rev && Ids.hash ab = Ids.hash ba && Ids.hash ab = Ids.hash rev);
    ids_prop "filter/choose/max match Set" (fun (ia, sa) _ ->
        let even x = x mod 2 = 0 in
        same (Ids.filter even ia) (Iset.filter even sa)
        && Ids.choose_opt ia = Iset.min_elt_opt sa
        && Ids.max_elt_opt ia = Iset.max_elt_opt sa);
  ]

let test_ids_canonical () =
  (* The same contents reached along different op sequences — including a
     detour through a sparse id — are structurally equal, so Ids values can
     key Hashtbls via polymorphic equality. *)
  let direct = Ids.of_list [ 1; 4 ] in
  let via_sparse = Ids.remove 100_000 (Ids.of_list [ 4; 100_000; 1 ]) in
  let via_churn = Ids.remove 9 (Ids.add 9 (Ids.add 4 (Ids.singleton 1))) in
  Alcotest.(check bool) "sparse detour" true (direct = via_sparse);
  Alcotest.(check bool) "dense churn" true (direct = via_churn);
  Alcotest.(check bool) "empty after drain" true
    (Ids.remove 70_000 (Ids.singleton 70_000) = Ids.empty);
  Alcotest.check_raises "negative id" (Invalid_argument "Ids: negative process id -3")
    (fun () -> ignore (Ids.add (-3) Ids.empty))

let test_ids_range () =
  Alcotest.(check (list int)) "range 4" [ 0; 1; 2; 3 ] (Ids.elements (Ids.range 4));
  Alcotest.(check (list int)) "range 0" [] (Ids.elements (Ids.range 0));
  Alcotest.(check int) "fold counts" 4 (Ids.fold (fun _ n -> n + 1) (Ids.range 4) 0)

let ids_tests =
  ids_properties
  @ [
      Alcotest.test_case "Ids canonical across representations" `Quick test_ids_canonical;
      Alcotest.test_case "Ids.range" `Quick test_ids_range;
    ]

let suite =
  [
    Alcotest.test_case "zero/ones basics" `Quick test_zero_ones;
    Alcotest.test_case "of_int/to_int roundtrip" `Quick test_of_to_int;
    Alcotest.test_case "of_int truncates" `Quick test_of_int_truncates;
    Alcotest.test_case "get/set" `Quick test_get_set;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    Alcotest.test_case "mismatched widths" `Quick test_mismatched_widths;
    Alcotest.test_case "add small" `Quick test_add_small;
    Alcotest.test_case "mul small" `Quick test_mul_small;
    Alcotest.test_case "mul wide carries" `Quick test_mul_wide;
    Alcotest.test_case "shift_left" `Quick test_shift_left;
    Alcotest.test_case "boolean ops" `Quick test_logic_small;
    Alcotest.test_case "complement_bit" `Quick test_complement_bit;
    Alcotest.test_case "compare order" `Quick test_compare_order;
    Alcotest.test_case "to_string" `Quick test_to_string;
    Alcotest.test_case "resize" `Quick test_resize;
    Alcotest.test_case "set_grow" `Quick test_set_grow;
    Alcotest.test_case "top_bit" `Quick test_top_bit;
    Alcotest.test_case "trim canonicalizes" `Quick test_trim;
    Alcotest.test_case "fold_set" `Quick test_fold_set;
  ]
  @ properties
  @ ids_tests
