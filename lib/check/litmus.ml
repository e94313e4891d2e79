open Lb_memory
open Lb_runtime
open Program.Syntax

module Outcomes = Set.Make (struct
  type t = (int * int) list

  let compare = compare
end)

type t = {
  name : string;
  description : string;
  n : int;
  inits : (int * Value.t) list;
  program_of : int -> int Program.t;
  relaxed_outcome : (int * int) list;
  admits : Memory_model.t -> bool;
  sc_equivalent : bool;
}

(* ---- catalog ---- *)

let i = Value.int
let rd r = Program.map Value.to_int (Program.read r)

(* Two reads packed into one result, first read in the high bit. *)
let rd2 ra rb =
  let* a = rd ra in
  let+ b = rd rb in
  (2 * a) + b

let zeroes k = List.init k (fun r -> (r, i 0))

(* SB — store buffering.  p_i: store R_i := 1; read the other register.
   Both processes reading 0 requires both stores to still be buffered after
   both loads — impossible under SC, the signature relaxation of TSO. *)
let sb_family name description store admits sc_equivalent =
  {
    name;
    description;
    n = 2;
    inits = zeroes 2;
    program_of =
      (fun pid ->
        let* () = store pid in
        rd (1 - pid));
    relaxed_outcome = [ (0, 0); (1, 0) ];
    admits;
    sc_equivalent;
  }

let sb =
  sb_family "SB" "store buffering: both loads may miss both stores"
    (fun pid -> Program.write pid (i 1))
    Memory_model.relaxed false

let sb_fence =
  sb_family "SB+fence" "store buffering with a fence between store and load"
    (fun pid ->
      let* () = Program.write pid (i 1) in
      Program.fence)
    (fun _ -> false)
    true

let sb_rmw =
  sb_family "SB+rmw" "store buffering with the store as a swap (fencing RMW)"
    (fun pid -> Program.map ignore (Program.swap pid (i 1)))
    (fun _ -> false)
    true

(* MP — message passing.  R0 is data, R1 the ready flag.  p0 publishes; p1
   polls once: flag seen but data missed requires the two stores to commit
   out of issue order — admitted by PSO only (TSO buffers are FIFO). *)
let mp_family name description publish admits sc_equivalent =
  {
    name;
    description;
    n = 2;
    inits = zeroes 2;
    program_of =
      (fun pid ->
        if pid = 0 then
          let+ () = publish in
          0
        else rd2 1 0);
    relaxed_outcome = [ (0, 0); (1, 2) ];
    admits;
    sc_equivalent;
  }

let mp =
  mp_family "MP" "message passing: the ready flag may overtake the data"
    (let* () = Program.write 0 (i 1) in
     Program.write 1 (i 1))
    (fun m -> m = Memory_model.PSO)
    false

let mp_fence =
  mp_family "MP+fence" "message passing with a fence between data and flag"
    (let* () = Program.write 0 (i 1) in
     let* () = Program.fence in
     Program.write 1 (i 1))
    (fun _ -> false)
    true

let mp_rmw =
  mp_family "MP+rmw" "message passing publishing the flag with a swap"
    (let* () = Program.write 0 (i 1) in
     Program.map ignore (Program.swap 1 (i 1)))
    (fun _ -> false)
    true

(* LB — load buffering.  p_i: read the other register, then store its own.
   Both loads returning 1 requires loads to see program-order-later stores;
   store buffers delay stores, never advance loads, so no model here admits
   it (it needs genuine load reordering, e.g. ARM without dependencies). *)
let lb =
  {
    name = "LB";
    description = "load buffering: forbidden by every store-buffer model";
    n = 2;
    inits = zeroes 2;
    program_of =
      (fun pid ->
        let* v = rd (1 - pid) in
        let+ () = Program.write pid (i 1) in
        v);
    relaxed_outcome = [ (0, 1); (1, 1) ];
    admits = (fun _ -> false);
    sc_equivalent = true;
  }

(* IRIW — independent reads of independent writes.  Two writers, two readers
   scanning in opposite orders.  The readers disagreeing on the write order
   (both see "their" first write only) needs non-multi-copy-atomic stores;
   a single buffer per writer commits each store to everyone at once, so
   TSO/PSO forbid it like SC does. *)
let iriw =
  {
    name = "IRIW";
    description = "independent reads: store buffers stay multi-copy atomic";
    n = 4;
    inits = zeroes 2;
    program_of =
      (fun pid ->
        match pid with
        | 0 ->
          let+ () = Program.write 0 (i 1) in
          0
        | 1 ->
          let+ () = Program.write 1 (i 1) in
          0
        | 2 -> rd2 0 1
        | _ -> rd2 1 0);
    relaxed_outcome = [ (0, 0); (1, 0); (2, 2); (3, 2) ];
    admits = (fun _ -> false);
    sc_equivalent = true;
  }

let catalog = [ sb; sb_fence; sb_rmw; mp; mp_fence; mp_rmw; lb; iriw ]

let find name =
  List.find_opt (fun t -> String.lowercase_ascii t.name = String.lowercase_ascii name) catalog

(* ---- running ---- *)

exception Run_limit of { test : string; model : Memory_model.t; runs : int }

let outcomes ?(max_runs = 200_000) test ~model =
  let collect = ref Outcomes.empty in
  (match
     Explore.iter_dpor ~n:test.n ~program_of:test.program_of ~inits:test.inits ~model
       ~max_runs
       ~f:(fun run -> collect := Outcomes.add run.Explore.results !collect)
       ()
   with
  | _ -> ()
  | exception Explore.Limit_exceeded runs -> raise (Run_limit { test = test.name; model; runs }));
  !collect

type cell = {
  model : Memory_model.t;
  outcome_count : int;
  admitted : bool;
  expected : bool;
  sc_equal : bool;
}

let cell_ok c = c.admitted = c.expected

type verdict = {
  test : t;
  cells : cell list;  (** one per {!Memory_model.all}, in that order. *)
  lattice_ok : bool;
  ok : bool;
}

let check ?max_runs test =
  let per =
    List.map (fun model -> (model, outcomes ?max_runs test ~model)) Memory_model.all
  in
  let sc_set = List.assoc Memory_model.SC per in
  let cells =
    List.map
      (fun (model, set) ->
        {
          model;
          outcome_count = Outcomes.cardinal set;
          admitted = Outcomes.mem test.relaxed_outcome set;
          expected = test.admits model;
          sc_equal = Outcomes.equal set sc_set;
        })
      per
  in
  (* The model lattice, checked — not assumed: weakening the model only adds
     outcomes. *)
  let lattice_ok =
    List.for_all
      (fun (a, set_a) ->
        List.for_all
          (fun (b, set_b) ->
            (not (Memory_model.weaker_or_equal a b)) || Outcomes.subset set_a set_b)
          per)
      per
  in
  let sc_equiv_ok =
    (not test.sc_equivalent) || List.for_all (fun c -> c.sc_equal) cells
  in
  {
    test;
    cells;
    lattice_ok;
    ok = List.for_all cell_ok cells && lattice_ok && sc_equiv_ok;
  }

let check_all ?max_runs () = List.map (check ?max_runs) catalog

let all_ok verdicts = List.for_all (fun v -> v.ok) verdicts

(* The catalog's reason for existing: at least one test must tell every pair
   of models apart.  SB separates SC from {TSO, PSO}; MP separates TSO from
   PSO.  Checked over actual verdicts so a regressed simulator cannot
   silently collapse two models into one. *)
let distinguishes_all_models verdicts =
  let admitted_in name model =
    List.exists
      (fun v ->
        v.test.name = name
        && List.exists (fun c -> c.model = model && c.admitted) v.cells)
      verdicts
  in
  admitted_in "SB" Memory_model.TSO
  && admitted_in "SB" Memory_model.PSO
  && (not (admitted_in "SB" Memory_model.SC))
  && admitted_in "MP" Memory_model.PSO
  && not (admitted_in "MP" Memory_model.TSO)

let pp_outcome ppf o =
  Format.fprintf ppf "{%s}"
    (String.concat "; " (List.map (fun (pid, v) -> Printf.sprintf "p%d=%d" pid v) o))

let pp_verdict ppf v =
  Format.fprintf ppf "@[<v>%-8s %s@ " v.test.name v.test.description;
  Format.fprintf ppf "  relaxed outcome %a@ " pp_outcome v.test.relaxed_outcome;
  List.iter
    (fun c ->
      Format.fprintf ppf "  %-4s %3d outcomes, relaxed %s (expected %s)%s%s@ "
        (Memory_model.to_string c.model |> String.uppercase_ascii)
        c.outcome_count
        (if c.admitted then "admitted" else "forbidden")
        (if c.expected then "admitted" else "forbidden")
        (if c.sc_equal then "" else ", differs from SC")
        (if cell_ok c then "" else "  << MISMATCH"))
    v.cells;
  if not v.lattice_ok then Format.fprintf ppf "  << LATTICE VIOLATION@ ";
  Format.fprintf ppf "  %s@]" (if v.ok then "ok" else "FAIL")
