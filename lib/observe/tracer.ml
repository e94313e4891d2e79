open Lb_memory

(* A ring of the most recent [capacity] events: event [at] lives in slot
   [at mod capacity]. *)
type t = { mutable seq : int; slots : Event.stamped option array; capacity : int }

let ring ?(capacity = 1 lsl 20) () =
  if capacity <= 0 then invalid_arg "Tracer.ring: capacity must be positive";
  { seq = 0; slots = Array.make capacity None; capacity }

let emit t event =
  let stamped = { Event.at = t.seq; event } in
  t.seq <- t.seq + 1;
  t.slots.(stamped.Event.at mod t.capacity) <- Some stamped

let events t =
  let first = max 0 (t.seq - t.capacity) in
  List.init (t.seq - first) (fun i -> t.slots.((first + i) mod t.capacity))
  |> List.filter_map Fun.id

let emitted t = t.seq
let dropped t = max 0 (t.seq - t.capacity)

(* ---- ambient tracer ---- *)

(* Domain-local: pool workers trace into their own sinks (merged in task
   order at join), and the one-ref-read fast path stays uncontended. *)
let ambient : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let active () = Option.is_some (Domain.DLS.get ambient)
let record event =
  match Domain.DLS.get ambient with None -> () | Some t -> emit t event

let with_tracer t f =
  let previous = Domain.DLS.get ambient in
  Domain.DLS.set ambient (Some t);
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient previous) f

let absorb events = List.iter (fun (s : Event.stamped) -> record s.Event.event) events

let attach_memory memory =
  if active () then
    Memory.set_tap memory
      (Some
         (fun ~pid invocation response ~spurious ->
           record (Event.Shared_access { pid; invocation; response; spurious })))
