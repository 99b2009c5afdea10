type mode = Shared | Exclusive

type resource = string

type outcome = Granted | Would_block | Deadlock

type txn = { id : int }

type counters = { grants : int; waits : int; deadlocks : int }

type t = {
  mutable next_txn : int;
  locks : (resource, (int * mode) list ref) Hashtbl.t;
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

let holders_ref t resource =
  match Hashtbl.find_opt t.locks resource with
  | Some r -> r
  | None ->
      let r = ref [] in
      Hashtbl.replace t.locks resource r;
      r

let compatible requested held = requested = Shared && held = Shared

(* Does a waits-for path lead from [start] back to [target]? *)
let rec reaches t visited start target =
  if start = target then true
  else if List.mem start visited then false
  else
    match Hashtbl.find_opt t.waits_for start with
    | None -> false
    | Some nexts -> List.exists (fun n -> reaches t (start :: visited) n target) nexts

let acquire t txn resource mode =
  let granted () =
    t.c_grants <- t.c_grants + 1;
    Granted
  in
  let held = holders_ref t resource in
  let mine = List.assoc_opt txn.id !held in
  let others = List.filter (fun (id, _) -> id <> txn.id) !held in
  match mine, mode with
  | Some Exclusive, _ -> granted ()
  | Some Shared, Shared -> granted ()
  | Some Shared, Exclusive when others = [] ->
      held := (txn.id, Exclusive) :: others;
      granted ()
  | (Some Shared | None), _ ->
      let conflict = List.exists (fun (_, m) -> not (compatible mode m)) others in
      if (not conflict) && (others = [] || mode = Shared) then begin
        held := (txn.id, mode) :: List.remove_assoc txn.id !held;
        granted ()
      end
      else begin
        let blockers = List.map fst others in
        (* Would waiting close a cycle? Then this txn is the victim. *)
        if List.exists (fun b -> reaches t [] b txn.id) blockers then begin
          t.c_deadlocks <- t.c_deadlocks + 1;
          Deadlock
        end
        else begin
          let existing = Option.value ~default:[] (Hashtbl.find_opt t.waits_for txn.id) in
          Hashtbl.replace t.waits_for txn.id (List.sort_uniq Int.compare (blockers @ existing));
          t.c_waits <- t.c_waits + 1;
          Would_block
        end
      end

let counters t = { grants = t.c_grants; waits = t.c_waits; deadlocks = t.c_deadlocks }

let release_all t txn =
  (* Drop the transaction's holds, and remove resource entries that are
     drained by it: leaving empty holder lists behind would grow the
     table without bound across transactions. *)
  let drained =
    Hashtbl.fold
      (fun resource held acc ->
        held := List.remove_assoc txn.id !held;
        if !held = [] then resource :: acc else acc)
      t.locks []
  in
  List.iter (Hashtbl.remove t.locks) drained;
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

let holders t resource =
  match Hashtbl.find_opt t.locks resource with Some r -> !r | None -> []

let resource_count t = Hashtbl.length t.locks

let active_transactions t = List.length t.active
