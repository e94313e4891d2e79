open Lb_observe

type entry = {
  mutable payload : Json.t;
  mutable used : int; (* recency tick *)
}

type t = {
  cap : int;
  tbl : (string, entry) Hashtbl.t;
  mutable tick : int;
  mutable out : out_channel option;
  fsync : bool;
  mutable loaded : int;
  mutable corrupt : int;
  mutable evictions : int;
}

let touch t e =
  t.tick <- t.tick + 1;
  e.used <- t.tick

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
    touch t e;
    Some e.payload
  | None -> None

let mem t key = Hashtbl.mem t.tbl key

let evict_lru t =
  (* Scan for the stalest tick: O(capacity), and eviction only happens once
     the cache is full — fine at the few-hundred-entry capacities a result
     cache runs at, and free of the bookkeeping a linked list would need. *)
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, used) when used <= e.used -> acc
        | _ -> Some (key, e.used))
      t.tbl None
  in
  match victim with
  | Some (key, _) ->
    Hashtbl.remove t.tbl key;
    t.evictions <- t.evictions + 1
  | None -> ()

let journal t ~key ~request payload =
  match t.out with
  | None -> ()
  | Some oc ->
    output_string oc
      (Json.to_string
         (Json.Obj [ ("key", Json.Str key); ("request", request); ("response", payload) ]));
    output_char oc '\n';
    flush oc

let store_in_memory t ~key payload =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
    e.payload <- payload;
    touch t e
  | None ->
    if Hashtbl.length t.tbl >= t.cap then evict_lru t;
    t.tick <- t.tick + 1;
    Hashtbl.add t.tbl key { payload; used = t.tick }

let store t ~key ~request payload =
  store_in_memory t ~key payload;
  journal t ~key ~request payload

(* Reload: replay lines oldest-first; the last occurrence of a key wins and
   capacity applies exactly as for live stores.  Any damaged line — a
   truncated tail after a crash, editor mangling, a partial write — is
   counted and skipped. *)
let reload t path =
  let ic = open_in_bin path in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then
         match Json.parse line with
         | Ok json -> (
           match (Json.member "key" json, Json.member "response" json) with
           | Some key_j, Some payload -> (
             match Json.to_str_opt key_j with
             | Some key ->
               store_in_memory t ~key payload;
               t.loaded <- t.loaded + 1
             | None -> t.corrupt <- t.corrupt + 1)
           | _ -> t.corrupt <- t.corrupt + 1)
         | Error _ -> t.corrupt <- t.corrupt + 1
     done
   with End_of_file -> ());
  close_in ic

let create ?(capacity = 256) ?path ?(fsync = false) () =
  if capacity < 1 then invalid_arg (Printf.sprintf "Cache: capacity %d < 1" capacity);
  let t =
    {
      cap = capacity;
      tbl = Hashtbl.create (min capacity 64);
      tick = 0;
      out = None;
      fsync;
      loaded = 0;
      corrupt = 0;
      evictions = 0;
    }
  in
  (match path with
  | None -> ()
  | Some p ->
    let truncated_tail =
      Sys.file_exists p
      &&
      (reload t p;
       let ic = open_in_bin p in
       let len = in_channel_length ic in
       let partial =
         len > 0
         &&
         (seek_in ic (len - 1);
          input_char ic <> '\n')
       in
       close_in ic;
       partial)
    in
    let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 p in
    (* A crash mid-append leaves a partial final line; terminate it so the
       next entry starts on its own line and reload skips the stub as one
       corrupt line instead of swallowing the entry glued to it. *)
    if truncated_tail then (
      output_char oc '\n';
      flush oc);
    t.out <- Some oc);
  t

let length t = Hashtbl.length t.tbl
let capacity t = t.cap
let evictions t = t.evictions
let loaded t = t.loaded
let corrupt t = t.corrupt

let sync t =
  match t.out with
  | Some oc when t.fsync ->
    flush oc;
    Unix.fsync (Unix.descr_of_out_channel oc)
  | Some _ | None -> ()

let close t =
  match t.out with
  | None -> ()
  | Some oc ->
    t.out <- None;
    close_out oc
