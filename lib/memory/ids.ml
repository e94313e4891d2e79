(* Two representations behind one set interface.

   Process ids are almost always drawn from the dense range [0 .. n-1] with
   n at most a few thousand, and Psets churn on every LL/SC — so the common
   case is a small dense set that wants machine-word operations, not an AVL
   tree.  Dense sets are backed by {!Bitvec}; sets containing an element at
   or above [dense_limit] fall back to [Set.Make (Int)].

   Canonical form: a set lives in [Dense] iff every element is below
   [dense_limit], and the bitvec is trimmed (width = max element + 1, width
   1 for the empty set).  The representation is therefore a function of the
   set's contents alone, so structural (polymorphic) equality coincides with
   set equality — which the state-dedup hashing in {!Lb_check.Explore}
   relies on. *)

module S = Set.Make (Int)

let dense_limit = 1 lsl 16

type t = Dense of Bitvec.t | Sparse of S.t

let empty = Dense (Bitvec.zero 1)

let check_element i =
  if i < 0 then invalid_arg (Printf.sprintf "Ids: negative process id %d" i)

let to_set = function
  | Sparse s -> s
  | Dense bv -> Bitvec.fold_set S.add bv S.empty

(* A balanced tree's shape depends on the order its elements were added,
   so every Sparse value is rebuilt from its sorted elements: the shape is
   then a function of the contents. *)
let sparse s = Sparse (S.of_list (S.elements s))

(* Sparse results re-canonicalise: drop back to Dense when every element is
   below the limit again (e.g. after [diff] removed the large ids). *)
let of_set s =
  match S.max_elt_opt s with
  | None -> empty
  | Some m when m < dense_limit ->
    Dense (S.fold (fun i bv -> Bitvec.set_grow bv i true) s (Bitvec.zero 1))
  | Some _ -> sparse s

let is_empty = function Dense bv -> Bitvec.is_zero bv | Sparse _ -> false

let mem i = function
  | Dense bv -> i >= 0 && i < Bitvec.width bv && Bitvec.get bv i
  | Sparse s -> S.mem i s

let add i t =
  check_element i;
  match t with
  | Dense bv when i < dense_limit -> Dense (Bitvec.set_grow bv i true)
  | Dense _ -> sparse (S.add i (to_set t))
  | Sparse s -> sparse (S.add i s)

let remove i t =
  match t with
  | Dense bv -> if mem i t then Dense (Bitvec.trim (Bitvec.set bv i false)) else t
  | Sparse s -> of_set (S.remove i s)

let singleton i = add i empty

let of_list l = List.fold_left (fun t i -> add i t) empty l

let union a b =
  match (a, b) with
  | Dense x, Dense y ->
    let w = max (Bitvec.width x) (Bitvec.width y) in
    Dense (Bitvec.logor (Bitvec.resize x ~width:w) (Bitvec.resize y ~width:w))
  | _ -> of_set (S.union (to_set a) (to_set b))

let inter a b =
  match (a, b) with
  | Dense x, Dense y ->
    let w = min (Bitvec.width x) (Bitvec.width y) in
    Dense (Bitvec.trim (Bitvec.logand (Bitvec.resize x ~width:w) (Bitvec.resize y ~width:w)))
  | _ -> of_set (S.inter (to_set a) (to_set b))

let diff a b =
  match (a, b) with
  | Dense x, Dense y ->
    let w = Bitvec.width x in
    Dense (Bitvec.trim (Bitvec.logand x (Bitvec.lognot (Bitvec.resize y ~width:w))))
  | _ -> of_set (S.diff (to_set a) (to_set b))

let equal a b =
  match (a, b) with
  | Dense x, Dense y -> Bitvec.equal x y
  | Sparse x, Sparse y -> S.equal x y
  | Dense _, Sparse _ | Sparse _, Dense _ -> false (* canonical: max differs *)

let hash = function
  | Dense bv -> Bitvec.hash bv
  | Sparse s -> Hashtbl.hash (S.fold (fun i h -> (h * 65599) + i) s 1)

let subset a b = is_empty (diff a b)

let cardinal = function Dense bv -> Bitvec.popcount bv | Sparse s -> S.cardinal s

let fold f t acc =
  match t with Dense bv -> Bitvec.fold_set f bv acc | Sparse s -> S.fold f s acc

let iter f t = fold (fun i () -> f i) t ()

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let for_all p t = fold (fun i acc -> acc && p i) t true
let exists p t = fold (fun i acc -> acc || p i) t false
let filter p t = fold (fun i acc -> if p i then add i acc else acc) t empty

let choose_opt t = match elements t with [] -> None | i :: _ -> Some i

let max_elt_opt = function
  | Dense bv -> Bitvec.top_bit bv
  | Sparse s -> S.max_elt_opt s

(* An arbitrary total order (canonical representations make it well
   defined); not the lexicographic element order the old [Set.Make]
   representation had, but nothing depends on that. *)
let compare a b =
  match (a, b) with
  | Dense x, Dense y -> Bitvec.compare x y
  | Sparse x, Sparse y -> S.compare x y
  | Dense _, Sparse _ -> -1
  | Sparse _, Dense _ -> 1

let range n =
  if n <= 0 then empty else Dense (Bitvec.ones n)

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (fun ppf i -> Format.fprintf ppf "p%d" i))
    (elements s)

let to_string s = Format.asprintf "%a" pp s
