(* In-memory spans for the traced run.

   A span is one timed call across a layer boundary, recorded from the
   benchmark's own code around public library calls.  Spans nest through an
   explicit stack, are kept in memory while the workload runs, and are
   written as JSONL only when the run ends, so writing costs nothing inside
   a measured iteration. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root. *)
  name : string;
  start_ns : int;
  stop_ns : int;
  iteration : int;
}

type t = {
  workload : string;
  mutable iteration : int;
  mutable next_id : int;
  mutable stack : int list;
  mutable spans : span list;  (** newest first. *)
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let create ~workload = { workload; iteration = 0; next_id = 0; stack = []; spans = [] }
let parent t = match t.stack with p :: _ -> p | [] -> -1

let fresh t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let record t ~id ~parent ~name ~start_ns ~stop_ns =
  t.spans <- { id; parent; name; start_ns; stop_ns; iteration = t.iteration } :: t.spans

let with_span t name f =
  let id = fresh t and parent = parent t in
  t.stack <- id :: t.stack;
  let start_ns = now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let stop_ns = now_ns () in
      t.stack <- List.tl t.stack;
      record t ~id ~parent ~name ~start_ns ~stop_ns)
    f

(* A span for time accumulated over many short calls (the scheduling
   oracle is consulted at every step; a span per call would cost more than
   the call).  It is placed at the start of the enclosing span with the
   summed duration, so interval arithmetic on its parent stays exact as
   long as the parent has no other children. *)
let add_aggregate t name ~start_ns ~total_ns =
  record t ~id:(fresh t) ~parent:(parent t) ~name ~start_ns ~stop_ns:(start_ns + total_ns)

(* Self time: a span's duration minus the part of its interval its children
   cover (overlapping children are counted once).  Returns the total self
   time per span name, in seconds. *)
let self_seconds spans =
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  let totals = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (max c.start_ns s.start_ns, min c.stop_ns s.stop_ns))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc + (b - a), b) else (acc, reach))
          (0, min_int) kids
      in
      let self = s.stop_ns - s.start_ns - covered in
      let prev = Option.value ~default:0 (Hashtbl.find_opt totals s.name) in
      Hashtbl.replace totals s.name (prev + self))
    spans;
  fun name -> float_of_int (Option.value ~default:0 (Hashtbl.find_opt totals name)) /. 1e9

let of_iteration t i = List.filter (fun (s : span) -> s.iteration = i) t.spans

let write_jsonl t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc
            Lowerbound.Json.(
              to_string
                (Obj
                   [
                     ("id", Int s.id);
                     ("parent", Int s.parent);
                     ("name", Str s.name);
                     ("start_ns", Int s.start_ns);
                     ("end_ns", Int s.stop_ns);
                     ("workload", Str t.workload);
                     ("iteration", Int s.iteration);
                   ]));
          output_char oc '\n')
        (List.rev t.spans))
