type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Pair of t * t
  | List of t list
  | Bits of Bitvec.t

let rec equal a b =
  match a, b with
  | Unit, Unit -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Str x, Str y -> String.equal x y
  | Pair (x1, x2), Pair (y1, y2) -> equal x1 y1 && equal x2 y2
  | List xs, List ys -> List.equal equal xs ys
  | Bits x, Bits y -> Bitvec.equal x y
  | (Unit | Bool _ | Int _ | Str _ | Pair _ | List _ | Bits _), _ -> false

(* Constructor rank for the total order across different shapes. *)
let rank = function
  | Unit -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Str _ -> 3
  | Pair _ -> 4
  | List _ -> 5
  | Bits _ -> 6

let rec compare a b =
  match a, b with
  | Unit, Unit -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | Pair (x1, x2), Pair (y1, y2) ->
    let c = compare x1 y1 in
    if c <> 0 then c else compare x2 y2
  | List xs, List ys -> List.compare compare xs ys
  | Bits x, Bits y -> Bitvec.compare x y
  | (Unit | Bool _ | Int _ | Str _ | Pair _ | List _ | Bits _), _ ->
    Int.compare (rank a) (rank b)

(* Each node folds its constructor tag, then its contents, into the
   accumulator; a list also folds an end tag, so nesting shows in the hash. *)
let rec hash_fold h v =
  let mix h x = (h * 65599) + x in
  match v with
  | Unit -> mix h 1
  | Bool b -> mix h (if b then 3 else 2)
  | Int n -> mix (mix h 4) n
  | Str s -> mix (mix h 5) (Hashtbl.hash s)
  | Pair (a, b) -> hash_fold (hash_fold (mix h 6) a) b
  | List vs -> mix (List.fold_left hash_fold (mix h 7) vs) 8
  | Bits b -> mix (mix h 9) (Bitvec.hash b)

let hash v = Hashtbl.hash (hash_fold 0 v)

let rec pp ppf = function
  | Unit -> Format.pp_print_string ppf "()"
  | Bool b -> Format.pp_print_bool ppf b
  | Int n -> Format.pp_print_int ppf n
  | Str s -> Format.fprintf ppf "%S" s
  | Pair (a, b) -> Format.fprintf ppf "@[<hov 1>(%a,@ %a)@]" pp a pp b
  | List vs ->
    Format.fprintf ppf "@[<hov 1>[%a]@]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp)
      vs
  | Bits v -> Bitvec.pp ppf v

let to_string v = Format.asprintf "%a" pp v

let unit = Unit
let bool b = Bool b
let int n = Int n
let str s = Str s
let pair a b = Pair (a, b)
let list vs = List vs
let bits v = Bits v
let triple a b c = Pair (a, Pair (b, c))

let shape_error expected v =
  invalid_arg (Printf.sprintf "Value: expected %s, got %s" expected (to_string v))

let to_bool = function Bool b -> b | v -> shape_error "Bool" v
let to_int = function Int n -> n | v -> shape_error "Int" v
let to_str = function Str s -> s | v -> shape_error "Str" v
let to_pair = function Pair (a, b) -> (a, b) | v -> shape_error "Pair" v
let to_list = function List vs -> vs | v -> shape_error "List" v
let to_bits = function Bits b -> b | v -> shape_error "Bits" v

let to_triple = function
  | Pair (a, Pair (b, c)) -> (a, b, c)
  | v -> shape_error "triple" v

let rec size = function
  | Unit | Bool _ | Int _ | Str _ -> 1
  | Bits b -> max 1 ((Bitvec.width b + 62) / 63)
  | Pair (a, b) -> 1 + size a + size b
  | List vs -> List.fold_left (fun acc v -> acc + size v) 1 vs
