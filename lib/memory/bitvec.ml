(* Bit vectors on 16-bit limbs, least significant limb first.  The limb size
   is chosen so that schoolbook multiplication can accumulate partial products
   of an entire row in a native [int] without overflow: each partial product
   is < 2^32 and rows have far fewer than 2^30 limbs in practice. *)

let limb_bits = 16
let limb_mask = (1 lsl limb_bits) - 1

type t = {
  width : int; (* number of valid bits *)
  limbs : int array; (* invariant: bits at and above [width] are zero *)
}

let width v = v.width

let limbs_for width = (width + limb_bits - 1) / limb_bits

(* Mask for the (possibly partial) top limb. *)
let top_mask width =
  let rem = width mod limb_bits in
  if rem = 0 then limb_mask else (1 lsl rem) - 1

(* Re-establish the invariant that limbs only carry [width] bits. *)
let normalize v =
  let n = Array.length v.limbs in
  if n > 0 then v.limbs.(n - 1) <- v.limbs.(n - 1) land top_mask v.width;
  v

let check_width k =
  if k <= 0 then invalid_arg (Printf.sprintf "Bitvec: width %d must be positive" k)

let zero k =
  check_width k;
  { width = k; limbs = Array.make (limbs_for k) 0 }

let ones k =
  check_width k;
  let v = { width = k; limbs = Array.make (limbs_for k) limb_mask } in
  normalize v

let of_int ~width:k v =
  check_width k;
  if v < 0 then invalid_arg "Bitvec.of_int: negative value";
  let limbs = Array.make (limbs_for k) 0 in
  let rec fill i v =
    if v <> 0 && i < Array.length limbs then begin
      limbs.(i) <- v land limb_mask;
      fill (i + 1) (v lsr limb_bits)
    end
  in
  fill 0 v;
  normalize { width = k; limbs }

let one k = of_int ~width:k 1

let to_int_opt v =
  let n = Array.length v.limbs in
  let max_limbs = 62 / limb_bits + 1 in
  let rec high_zero i = i >= n || (v.limbs.(i) = 0 && high_zero (i + 1)) in
  let rec value acc i = if i < 0 then acc else value ((acc lsl limb_bits) lor v.limbs.(i)) (i - 1) in
  let top = min n max_limbs in
  if high_zero max_limbs && (top < max_limbs || v.limbs.(max_limbs - 1) < 1 lsl (62 - limb_bits * (max_limbs - 1)))
  then Some (value 0 (top - 1))
  else None

let check_index v i =
  if i < 0 || i >= v.width then
    invalid_arg (Printf.sprintf "Bitvec: bit %d out of range for width %d" i v.width)

let get v i =
  check_index v i;
  v.limbs.(i / limb_bits) lsr (i mod limb_bits) land 1 = 1

let set v i b =
  check_index v i;
  let limbs = Array.copy v.limbs in
  let j = i / limb_bits and off = i mod limb_bits in
  limbs.(j) <- (if b then limbs.(j) lor (1 lsl off) else limbs.(j) land lnot (1 lsl off));
  { v with limbs }

let complement_bit v i = set v i (not (get v i))

let map2 name f a b =
  if a.width <> b.width then
    invalid_arg (Printf.sprintf "Bitvec.%s: widths %d and %d differ" name a.width b.width);
  normalize { width = a.width; limbs = Array.map2 f a.limbs b.limbs }

let logand a b = map2 "logand" ( land ) a b
let logor a b = map2 "logor" ( lor ) a b
let logxor a b = map2 "logxor" ( lxor ) a b

let lognot a =
  normalize { width = a.width; limbs = Array.map (fun l -> lnot l land limb_mask) a.limbs }

let add a b =
  if a.width <> b.width then
    invalid_arg (Printf.sprintf "Bitvec.add: widths %d and %d differ" a.width b.width);
  let n = Array.length a.limbs in
  let limbs = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = a.limbs.(i) + b.limbs.(i) + !carry in
    limbs.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize { width = a.width; limbs }

let succ v = add v (one v.width)

let mul a b =
  if a.width <> b.width then
    invalid_arg (Printf.sprintf "Bitvec.mul: widths %d and %d differ" a.width b.width);
  let n = Array.length a.limbs in
  let limbs = Array.make n 0 in
  for i = 0 to n - 1 do
    if a.limbs.(i) <> 0 then begin
      let carry = ref 0 in
      for j = 0 to n - 1 - i do
        let s = limbs.(i + j) + (a.limbs.(i) * b.limbs.(j)) + !carry in
        limbs.(i + j) <- s land limb_mask;
        carry := s lsr limb_bits
      done
    end
  done;
  normalize { width = a.width; limbs }

let shift_left v k =
  if k < 0 then invalid_arg "Bitvec.shift_left: negative shift";
  let n = Array.length v.limbs in
  let limbs = Array.make n 0 in
  let limb_shift = k / limb_bits and bit_shift = k mod limb_bits in
  for i = n - 1 downto limb_shift do
    let lo = v.limbs.(i - limb_shift) lsl bit_shift land limb_mask in
    let hi =
      if bit_shift = 0 || i - limb_shift - 1 < 0 then 0
      else v.limbs.(i - limb_shift - 1) lsr (limb_bits - bit_shift)
    in
    limbs.(i) <- lo lor hi
  done;
  normalize { width = v.width; limbs }

let resize v ~width:k =
  check_width k;
  if k = v.width then v
  else begin
    let limbs = Array.make (limbs_for k) 0 in
    Array.blit v.limbs 0 limbs 0 (min (Array.length v.limbs) (Array.length limbs));
    normalize { width = k; limbs }
  end

let set_grow v i b =
  if i < 0 then invalid_arg (Printf.sprintf "Bitvec.set_grow: negative bit %d" i);
  let k = max v.width (i + 1) in
  let limbs = Array.make (limbs_for k) 0 in
  Array.blit v.limbs 0 limbs 0 (Array.length v.limbs);
  let j = i / limb_bits and off = i mod limb_bits in
  limbs.(j) <- (if b then limbs.(j) lor (1 lsl off) else limbs.(j) land lnot (1 lsl off));
  normalize { width = k; limbs }

let top_bit v =
  let rec limb i =
    if i < 0 then None
    else if v.limbs.(i) = 0 then limb (i - 1)
    else begin
      let rec bit b = if v.limbs.(i) lsr b land 1 = 1 then b else bit (b - 1) in
      Some ((i * limb_bits) + bit (limb_bits - 1))
    end
  in
  limb (Array.length v.limbs - 1)

let trim v =
  let target = match top_bit v with None -> 1 | Some b -> b + 1 in
  resize v ~width:target

let fold_set f v acc =
  let acc = ref acc in
  for i = 0 to Array.length v.limbs - 1 do
    let l = ref v.limbs.(i) in
    let base = i * limb_bits in
    let b = ref 0 in
    while !l <> 0 do
      if !l land 1 = 1 then acc := f (base + !b) !acc;
      l := !l lsr 1;
      incr b
    done
  done;
  !acc

let popcount v =
  let count_limb l =
    let rec go acc l = if l = 0 then acc else go (acc + (l land 1)) (l lsr 1) in
    go 0 l
  in
  Array.fold_left (fun acc l -> acc + count_limb l) 0 v.limbs

let is_zero v = Array.for_all (fun l -> l = 0) v.limbs

let equal a b = a.width = b.width && a.limbs = b.limbs

let hash v = Hashtbl.hash (Array.fold_left (fun h l -> (h * 65599) + l) v.width v.limbs)

let compare a b =
  let c = Stdlib.compare a.width b.width in
  if c <> 0 then c
  else
    (* Most significant limb decides first. *)
    let rec go i =
      if i < 0 then 0
      else
        let c = Stdlib.compare a.limbs.(i) b.limbs.(i) in
        if c <> 0 then c else go (i - 1)
    in
    go (Array.length a.limbs - 1)

let to_string v =
  let buf = Buffer.create (Array.length v.limbs * 4 + 8) in
  Buffer.add_string buf "0x";
  let started = ref false in
  for i = Array.length v.limbs - 1 downto 0 do
    if !started then Buffer.add_string buf (Printf.sprintf "%04x" v.limbs.(i))
    else if v.limbs.(i) <> 0 || i = 0 then begin
      started := true;
      Buffer.add_string buf (Printf.sprintf "%x" v.limbs.(i))
    end
  done;
  Buffer.add_string buf (Printf.sprintf "/%d" v.width);
  Buffer.contents buf

let pp ppf v = Format.pp_print_string ppf (to_string v)

let random st ~width:k =
  check_width k;
  let limbs = Array.init (limbs_for k) (fun _ -> Random.State.int st (limb_mask + 1)) in
  normalize { width = k; limbs }
