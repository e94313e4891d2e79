open Lb_memory

module Desc = struct
  type t = { pid : int; seq : int; op : Value.t }

  let key d = (d.pid, d.seq)

  let compare a b =
    let c = Int.compare a.pid b.pid in
    if c <> 0 then c else Int.compare a.seq b.seq

  let encode d = Value.triple (Value.Int d.pid) (Value.Int d.seq) d.op

  let decode v =
    let pid, seq, op = Value.to_triple v in
    { pid = Value.to_int pid; seq = Value.to_int seq; op }
end

module Dset = struct
  let empty = Value.List []
  let singleton d = Value.List [ Desc.encode d ]
  let decode v = List.map Desc.decode (Value.to_list v)

  (* Key order on encoded descriptors, read in place. *)
  let compare_encoded x y =
    match x, y with
    | ( Value.Pair (Value.Int p, Value.Pair (Value.Int s, _)),
        Value.Pair (Value.Int p', Value.Pair (Value.Int s', _)) ) ->
      let c = Int.compare p p' in
      if c <> 0 then c else Int.compare s s'
    | _ -> Desc.compare (Desc.decode x) (Desc.decode y)

  (* Merge two sorted duplicate-free lists of encoded descriptors, keeping
     the encodings themselves: a set built by [union] shares its descriptors
     with the sets it was built from. *)
  let rec merge xs ys =
    match xs, ys with
    | [], rest | rest, [] -> rest
    | x :: xs', y :: ys' ->
      let c = compare_encoded x y in
      if c < 0 then x :: merge xs' ys
      else if c > 0 then y :: merge xs ys'
      else x :: merge xs' ys'

  (* When [b] adds nothing to [a], the union is [a] itself. *)
  let union a b =
    let xs = Value.to_list a in
    let merged = merge xs (Value.to_list b) in
    if List.compare_lengths merged xs = 0 then a else Value.List merged

  let add a d = union a (singleton d)

  let subset a b =
    let keys v = List.map Desc.key (decode v) in
    let kb = keys b in
    List.for_all (fun k -> List.mem k kb) (keys a)

  let cardinal v = List.length (Value.to_list v)
  let mem v key = List.exists (fun d -> Desc.key d = key) (decode v)
end

module Root = struct
  type t = { state : Value.t; responses : ((int * int) * Value.t) list }

  let encode_key (pid, seq) = Value.Pair (Value.Int pid, Value.Int seq)

  let decode_key v =
    let pid, seq = Value.to_pair v in
    (Value.to_int pid, Value.to_int seq)

  let encode t =
    Value.Pair
      ( t.state,
        Value.List (List.map (fun (k, resp) -> Value.Pair (encode_key k, resp)) t.responses) )

  let decode v =
    let state, responses = Value.to_pair v in
    {
      state;
      responses =
        List.map
          (fun entry ->
            let k, resp = Value.to_pair entry in
            (decode_key k, resp))
          (Value.to_list responses);
    }

  let initial state = encode { state; responses = [] }

  let compare_key (p, s) (p', s') =
    let c = Int.compare p p' in
    if c <> 0 then c else Int.compare s s'

  let find_response t ~key = List.assoc_opt key t.responses
  let is_done t ~key = List.mem_assoc key t.responses

  let entry_key = function
    | Value.Pair (Value.Pair (Value.Int pid, Value.Int seq), _) -> (pid, seq)
    | v -> decode_key (fst (Value.to_pair v))

  (* One merge of the sorted descriptors into the encoded response map.  A
     descriptor is applied unless its key already has a response — either in
     the map or, for a repeated descriptor, just added by the merge.  Old
     entries keep their encodings; a record that gains nothing shares [v]'s
     whole response list. *)
  let update spec v descs =
    let state, responses = Value.to_pair v in
    let answered key = function e :: _ -> compare_key (entry_key e) key = 0 | [] -> false in
    let rec go state rev_prefix applied entries = function
      | [] ->
        if applied then Value.Pair (state, Value.List (List.rev_append rev_prefix entries))
        else Value.Pair (state, responses)
      | (d : Desc.t) :: rest as descs -> (
        let key = Desc.key d in
        match entries with
        | e :: entries' when compare_key (entry_key e) key < 0 ->
          go state (e :: rev_prefix) applied entries' descs
        | _ when answered key entries || answered key rev_prefix ->
          go state rev_prefix applied entries rest
        | _ ->
          let state', response = spec.Lb_objects.Spec.apply state d.op in
          go state' (Value.Pair (encode_key key, response) :: rev_prefix) true entries rest)
    in
    go state [] false (Value.to_list responses) (List.sort Desc.compare descs)
end
