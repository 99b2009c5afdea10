type resource = string

type outcome = Granted | Would_block | Deadlock

type txn = { id : int }

type counters = { grants : int; waits : int; deadlocks : int }

type t = {
  mutable next_txn : int;
  locks : (resource, int) Hashtbl.t;  (* resource -> its one holder *)
  (* waits_for: txn id -> txn ids it is waiting on *)
  waits_for : (int, int list) Hashtbl.t;
  mutable active : int list;
  mutable c_grants : int;
  mutable c_waits : int;
  mutable c_deadlocks : int;
  mutable on_release : (unit -> unit) option;
}

let create () =
  { next_txn = 1;
    locks = Hashtbl.create 64;
    waits_for = Hashtbl.create 16;
    active = [];
    c_grants = 0;
    c_waits = 0;
    c_deadlocks = 0;
    on_release = None
  }

let set_release_hook t hook = t.on_release <- Some hook

let clear_release_hook t = t.on_release <- None

let begin_txn t =
  let id = t.next_txn in
  t.next_txn <- id + 1;
  t.active <- id :: t.active;
  { id }

let txn_id txn = txn.id

(* Does a waits-for path lead from [start] back to [target]? *)
let rec reaches t visited start target =
  if start = target then true
  else if List.mem start visited then false
  else
    match Hashtbl.find_opt t.waits_for start with
    | None -> false
    | Some nexts -> List.exists (fun n -> reaches t (start :: visited) n target) nexts

let acquire t txn resource =
  match Hashtbl.find_opt t.locks resource with
  | Some holder when holder <> txn.id ->
      (* Would waiting close a cycle? Then this txn is the victim. *)
      if reaches t [] holder txn.id then begin
        t.c_deadlocks <- t.c_deadlocks + 1;
        Deadlock
      end
      else begin
        let existing = Option.value ~default:[] (Hashtbl.find_opt t.waits_for txn.id) in
        Hashtbl.replace t.waits_for txn.id (List.sort_uniq Int.compare (holder :: existing));
        t.c_waits <- t.c_waits + 1;
        Would_block
      end
  | Some _ | None ->
      Hashtbl.replace t.locks resource txn.id;
      t.c_grants <- t.c_grants + 1;
      Granted

let counters t = { grants = t.c_grants; waits = t.c_waits; deadlocks = t.c_deadlocks }

let release_all t txn =
  (* Drop the transaction's holds: their resource entries go with them,
     so the table never grows across transactions. *)
  Hashtbl.filter_map_inplace
    (fun _ holder -> if holder = txn.id then None else Some holder)
    t.locks;
  Hashtbl.remove t.waits_for txn.id;
  (* Drop waits-for edges pointing at the finished transaction. *)
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.waits_for [] in
  List.iter
    (fun k ->
      match Hashtbl.find_opt t.waits_for k with
      | None -> ()
      | Some targets ->
          let remaining = List.filter (fun id -> id <> txn.id) targets in
          if remaining = [] then Hashtbl.remove t.waits_for k
          else Hashtbl.replace t.waits_for k remaining)
    keys;
  t.active <- List.filter (fun id -> id <> txn.id) t.active;
  (* Wake-on-unlock: whoever parked waiting for one of this
     transaction's locks can retry right now instead of on a timer. *)
  match t.on_release with Some f -> f () | None -> ()

let reset t =
  Hashtbl.reset t.locks;
  Hashtbl.reset t.waits_for;
  t.active <- []

let holder t resource = Hashtbl.find_opt t.locks resource

let resource_count t = Hashtbl.length t.locks

let active_transactions t = List.length t.active
