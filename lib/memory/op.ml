type invocation =
  | Ll of int
  | Sc of int * Value.t
  | Validate of int
  | Swap of int * Value.t
  | Move of int * int
  | Write of int * Value.t
  | Fence

type response = Value of Value.t | Flagged of bool * Value.t | Ack

type kind = Read | Move_kind | Swap_kind | Sc_kind | Write_kind | Fence_kind

let kind = function
  | Ll _ | Validate _ -> Read
  | Move _ -> Move_kind
  | Swap _ -> Swap_kind
  | Sc _ -> Sc_kind
  | Write _ -> Write_kind
  | Fence -> Fence_kind

let fences = function
  | Ll _ | Sc _ | Swap _ | Move _ | Fence -> true
  | Validate _ | Write _ -> false

let registers = function
  | Ll r | Validate r | Sc (r, _) | Swap (r, _) | Write (r, _) -> [ r ]
  | Move (src, dst) -> [ src; dst ]
  | Fence -> []

let target = function
  | Ll r | Validate r | Sc (r, _) | Swap (r, _) | Write (r, _) -> r
  | Move (_, dst) -> dst
  | Fence -> invalid_arg "Op.target: Fence names no register"

let equal_invocation a b =
  match a, b with
  | Ll r, Ll r' | Validate r, Validate r' -> r = r'
  | Sc (r, v), Sc (r', v') | Swap (r, v), Swap (r', v') | Write (r, v), Write (r', v') ->
    r = r' && Value.equal v v'
  | Move (s, d), Move (s', d') -> s = s' && d = d'
  | Fence, Fence -> true
  | (Ll _ | Sc _ | Validate _ | Swap _ | Move _ | Write _ | Fence), _ -> false

let equal_response a b =
  match a, b with
  | Value v, Value v' -> Value.equal v v'
  | Flagged (f, v), Flagged (f', v') -> f = f' && Value.equal v v'
  | Ack, Ack -> true
  | (Value _ | Flagged _ | Ack), _ -> false

let pp_invocation ppf = function
  | Ll r -> Format.fprintf ppf "LL(R%d)" r
  | Sc (r, v) -> Format.fprintf ppf "SC(R%d, %a)" r Value.pp v
  | Validate r -> Format.fprintf ppf "validate(R%d)" r
  | Swap (r, v) -> Format.fprintf ppf "swap(R%d, %a)" r Value.pp v
  | Move (src, dst) -> Format.fprintf ppf "move(R%d, R%d)" src dst
  | Write (r, v) -> Format.fprintf ppf "write(R%d, %a)" r Value.pp v
  | Fence -> Format.pp_print_string ppf "fence"

let pp_response ppf = function
  | Value v -> Value.pp ppf v
  | Flagged (f, v) -> Format.fprintf ppf "(%b, %a)" f Value.pp v
  | Ack -> Format.pp_print_string ppf "ack"

let pp_kind ppf k =
  Format.pp_print_string ppf
    (match k with
    | Read -> "LL/validate"
    | Move_kind -> "move"
    | Swap_kind -> "swap"
    | Sc_kind -> "SC"
    | Write_kind -> "write"
    | Fence_kind -> "fence")

let value_of = function
  | Value v | Flagged (_, v) -> v
  | Ack -> invalid_arg "Op.value_of: Ack carries no value"

let flag_of = function
  | Flagged (f, _) -> f
  | Value _ | Ack -> invalid_arg "Op.flag_of: response carries no flag"
