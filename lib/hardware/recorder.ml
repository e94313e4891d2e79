(* Per-domain operation recorder: preallocated parallel arrays.
   [record] is the hot path — it runs between two wall-clock stamps on
   the measuring domain, so it must not allocate: every store below is an
   int store, an unboxed float store into a float array, or a pointer
   store of a value the caller already holds.  The stores are
   bounds-checked, so a record past the capacity raises instead of
   overwriting. *)

open Lb_memory

type t = {
  seqs : int array;
  ops : Value.t array;
  responses : Value.t array;
  invoked : float array;
  responded : float array;
  costs : int array;
  mutable count : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Recorder.create: capacity must be non-negative";
  {
    seqs = Array.make capacity 0;
    ops = Array.make capacity Value.Unit;
    responses = Array.make capacity Value.Unit;
    invoked = Array.make capacity 0.0;
    responded = Array.make capacity 0.0;
    costs = Array.make capacity 0;
    count = 0;
  }

let record t ~seq ~op ~response ~invoked ~responded ~cost =
  let i = t.count in
  t.seqs.(i) <- seq;
  t.ops.(i) <- op;
  t.responses.(i) <- response;
  t.invoked.(i) <- invoked;
  t.responded.(i) <- responded;
  t.costs.(i) <- cost;
  t.count <- i + 1

type entry = {
  seq : int;
  op : Value.t;
  response : Value.t;
  invoked : float;
  responded : float;
  cost : int;
}

let entries t =
  List.init t.count (fun i ->
      {
        seq = t.seqs.(i);
        op = t.ops.(i);
        response = t.responses.(i);
        invoked = t.invoked.(i);
        responded = t.responded.(i);
        cost = t.costs.(i);
      })
