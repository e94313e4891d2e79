type t = {
  mutable next : int;
  mutable inits : (int * Value.t) list; (* newest first *)
  mutable closed : bool;
}

let create () = { next = 0; inits = []; closed = false }

let alloc t ~init =
  if t.closed then invalid_arg "Layout.alloc: layout closed by reserve_tail";
  let r = t.next in
  t.next <- r + 1;
  t.inits <- (r, init) :: t.inits;
  r

let reserve_tail t =
  t.closed <- true;
  t.next

let alloc_array t ~len ~init =
  if len < 0 then invalid_arg "Layout.alloc_array: negative length";
  Array.init len (fun _ -> alloc t ~init)

let next_free t = t.next
let inits t = List.rev t.inits
let install t m = List.iter (fun (r, v) -> Memory.set_init m r v) (inits t)
