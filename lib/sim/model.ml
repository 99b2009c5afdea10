module IntMap = Map.Make (Int)

type op =
  | Ins of int * string
  | Upd of int * string * string (* key, before, after *)
  | Del of int * string          (* key, before *)

type t = {
  mutable committed : string IntMap.t;
  mutable live : string IntMap.t;
  pending : (int, op list) Hashtbl.t; (* txn -> ops, newest first *)
  snapshots : (int, string IntMap.t) Hashtbl.t;
      (* snapshot id -> committed state at capture: what an MVCC
         snapshot read must keep returning for its whole lifetime *)
}

let create () =
  { committed = IntMap.empty;
    live = IntMap.empty;
    pending = Hashtbl.create 8;
    snapshots = Hashtbl.create 8
  }

let begin_txn t txn = Hashtbl.replace t.pending txn []

let pending_ops t txn = Option.value ~default:[] (Hashtbl.find_opt t.pending txn)

let note t txn op =
  Hashtbl.replace t.pending txn (op :: pending_ops t txn);
  t.live <-
    (match op with
    | Ins (k, d) | Upd (k, _, d) -> IntMap.add k d t.live
    | Del (k, _) -> IntMap.remove k t.live)

let insert t ~txn ~key ~data = note t txn (Ins (key, data))

let update t ~txn ~key ~data = note t txn (Upd (key, IntMap.find key t.live, data))

let delete t ~txn ~key = note t txn (Del (key, IntMap.find key t.live))

let find_live t key = IntMap.find_opt key t.live

let commit t txn =
  List.iter
    (fun op ->
      t.committed <-
        (match op with
        | Ins (k, d) | Upd (k, _, d) -> IntMap.add k d t.committed
        | Del (k, _) -> IntMap.remove k t.committed))
    (List.rev (pending_ops t txn));
  Hashtbl.remove t.pending txn

let abort t txn =
  (* Newest first, so intermediate before-images compose. *)
  List.iter
    (fun op ->
      t.live <-
        (match op with
        | Ins (k, _) -> IntMap.remove k t.live
        | Upd (k, before, _) | Del (k, before) -> IntMap.add k before t.live))
    (pending_ops t txn);
  Hashtbl.remove t.pending txn

let crash t =
  Hashtbl.reset t.pending;
  Hashtbl.reset t.snapshots;
  t.live <- t.committed

let committed_bindings t = IntMap.bindings t.committed

let register_snapshot t id = Hashtbl.replace t.snapshots id t.committed

let snapshot_expected t id =
  Option.map IntMap.bindings (Hashtbl.find_opt t.snapshots id)

let forget_snapshot t id = Hashtbl.remove t.snapshots id
