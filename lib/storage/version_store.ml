module Value = Mood_model.Value

(* A slot's place in history: the stamp of the value currently in the
   heap. [Pending] while an uncommitted transaction owns the slot under
   its exclusive 2PL lock. *)
type stamp =
  | Committed of int
  | Pending of int

type entry = {
  mutable cur : stamp;
      (** stamp of the value (or absence) currently in the heap *)
  mutable older : (int * Value.t option) list;
      (** superseded versions, newest first; [(s, v)] reads "the heap
          held [v] ([None] = slot absent), committed at stamp [s],
          until the next write replaced it" *)
}

type view = {
  v_id : int;
  v_stamp : int;
  v_txn : int option;  (** reads see this transaction's own pending writes *)
  v_inflight : int list;
      (** write transactions open at capture — recorded for diagnostics;
          visibility needs only [v_stamp] because commits after the
          capture always receive stamps greater than it *)
}

type t = {
  table : (int * int, entry) Hashtbl.t;  (* (heap file id, slot) *)
  by_txn : (int, (int * int) list ref) Hashtbl.t;
  snapshots : (int, int) Hashtbl.t;  (* open snapshot id -> stamp *)
  pending_removals : (int, (unit -> unit) list ref) Hashtbl.t;
  mutable deferred : (int * (unit -> unit)) list;  (* oldest first *)
  mutable stamp : int;
  mutable next_snapshot : int;
  mutable tracking : bool;
  mutable view : view option;
  mutable commit_override : int option;
  mutable c_created : int;
  mutable c_pruned : int;
  mutable c_chain_max : int;
  mutable c_reads : int;
  mutable c_gc : int;
  mutable c_removals_applied : int;
  mutable last_snapshot_stamp : int;
  mutable created_at_gc : int;
}

let create () =
  { table = Hashtbl.create 256;
    by_txn = Hashtbl.create 16;
    snapshots = Hashtbl.create 16;
    pending_removals = Hashtbl.create 16;
    deferred = [];
    stamp = 0;
    next_snapshot = 0;
    tracking = false;
    view = None;
    commit_override = None;
    c_created = 0;
    c_pruned = 0;
    c_chain_max = 0;
    c_reads = 0;
    c_gc = 0;
    c_removals_applied = 0;
    last_snapshot_stamp = 0;
    created_at_gc = 0
  }

let tracking t = t.tracking

let set_tracking t on = t.tracking <- on

let without_tracking t f =
  let prev = t.tracking in
  t.tracking <- false;
  Fun.protect ~finally:(fun () -> t.tracking <- prev) f

(* The read fast path's precondition: GC only drops an entry once its
   current version is visible to every open snapshot, so an empty
   table means no slot anywhere has diverged from any live view — the
   heap IS the view, whatever the view's stamp. Checked once per
   scan/lookup, it spares snapshot readers the per-record resolution
   whenever no versioned history exists. *)
let is_empty t = Hashtbl.length t.table = 0

let bump_stamp t lsn = if lsn > t.stamp then t.stamp <- lsn

let with_commit_stamp t lsn f =
  let prev = t.commit_override in
  t.commit_override <- Some lsn;
  Fun.protect ~finally:(fun () -> t.commit_override <- prev) f

(* Oldest stamp any open snapshot still needs; [max_int] when reads
   have no snapshots open and history below the current stamp is
   garbage. *)
let horizon t =
  Hashtbl.fold (fun _ s acc -> min s acc) t.snapshots max_int

let entry_of t key =
  match Hashtbl.find_opt t.table key with
  | Some e -> e
  | None ->
      (* Absent entry means "heap state committed at stamp 0". *)
      let e = { cur = Committed 0; older = [] } in
      Hashtbl.replace t.table key e;
      e

let push_older t e prev before =
  e.older <- (prev, before) :: e.older;
  t.c_created <- t.c_created + 1;
  let len = 1 + List.length e.older in
  if len > t.c_chain_max then t.c_chain_max <- len

let drain_removals t =
  let h = horizon t in
  let apply, keep = List.partition (fun (s, _) -> s <= h) t.deferred in
  if apply <> [] then begin
    t.deferred <- keep;
    List.iter (fun (_, f) -> f ()) apply;
    t.c_removals_applied <- t.c_removals_applied + List.length apply
  end

let gc t =
  t.c_gc <- t.c_gc + 1;
  t.created_at_gc <- t.c_created;
  let h = horizon t in
  let dead = ref [] in
  Hashtbl.iter
    (fun key e ->
      match e.cur with
      | Committed s when s <= h ->
          (* Every open and future snapshot sees the heap value. *)
          t.c_pruned <- t.c_pruned + List.length e.older;
          e.older <- [];
          dead := key :: !dead
      | _ ->
          (* Keep versions above the horizon plus the newest at or
             below it (the one a snapshot at the horizon resolves to). *)
          let rec keep = function
            | [] -> []
            | ((s, _) as hd) :: rest ->
                if s <= h then [ hd ] else hd :: keep rest
          in
          let kept = keep e.older in
          let dropped = List.length e.older - List.length kept in
          if dropped > 0 then begin
            t.c_pruned <- t.c_pruned + dropped;
            e.older <- kept
          end)
    t.table;
  List.iter (Hashtbl.remove t.table) !dead;
  drain_removals t

(* Amortized pruning: long checkpoint-free stretches (a load run)
   must not accumulate unbounded history. *)
let maybe_gc t = if t.c_created - t.created_at_gc >= 256 then gc t

let record_write t ?txn ~file ~slot ~before () =
  if t.tracking then begin
    let key = (file, slot) in
    match t.commit_override with
    | Some lsn ->
        (* Replica apply: the whole batch carries the primary's commit
           LSN as its stamp. *)
        let e = entry_of t key in
        let prev = match e.cur with Committed s -> s | Pending _ -> t.stamp in
        push_older t e prev (before ());
        e.cur <- Committed lsn;
        bump_stamp t lsn
    | None -> (
        match txn with
        | Some tx -> (
            let e = entry_of t key in
            match e.cur with
            | Pending tx' when tx' = tx ->
                (* Same-transaction rewrite: the pre-image of the
                   transaction's first touch is already chained. *)
                ()
            | cur ->
                let prev = match cur with Committed s -> s | Pending _ -> t.stamp in
                push_older t e prev (before ());
                e.cur <- Pending tx;
                let keys =
                  match Hashtbl.find_opt t.by_txn tx with
                  | Some r -> r
                  | None ->
                      let r = ref [] in
                      Hashtbl.replace t.by_txn tx r;
                      r
                in
                keys := key :: !keys)
        | None ->
            (* Unlogged standalone write: its own single-statement
               commit, stamped off the local clock. *)
            let e = entry_of t key in
            let prev = match e.cur with Committed s -> s | Pending _ -> t.stamp in
            t.stamp <- t.stamp + 1;
            push_older t e prev (before ());
            e.cur <- Committed t.stamp;
            maybe_gc t)
  end

let commit t ~txn ~lsn =
  if t.tracking then begin
    (* Monotone commit clock: use the WAL commit LSN when it is ahead
       (on a primary it always is), otherwise keep counting — a
       promoted replica's fresh local WAL restarts near LSN 1 and must
       not mint stamps below snapshots already handed out. *)
    let s = if lsn > t.stamp then lsn else t.stamp + 1 in
    t.stamp <- s;
    (match Hashtbl.find_opt t.by_txn txn with
    | None -> ()
    | Some keys ->
        List.iter
          (fun key ->
            match Hashtbl.find_opt t.table key with
            | Some e -> (
                match e.cur with
                | Pending tx when tx = txn -> e.cur <- Committed s
                | _ -> ())
            | None -> ())
          !keys;
        Hashtbl.remove t.by_txn txn);
    (match Hashtbl.find_opt t.pending_removals txn with
    | None -> ()
    | Some fs ->
        t.deferred <- t.deferred @ List.rev_map (fun f -> (s, f)) !fs;
        Hashtbl.remove t.pending_removals txn);
    drain_removals t;
    maybe_gc t
  end

let abort t ~txn =
  if t.tracking then begin
    (match Hashtbl.find_opt t.by_txn txn with
    | None -> ()
    | Some keys ->
        List.iter
          (fun key ->
            match Hashtbl.find_opt t.table key with
            | Some e -> (
                match e.cur with
                | Pending tx when tx = txn -> (
                    (* The heap is restored separately (compensation);
                       here the chain pops back to the pre-image's
                       stamp. *)
                    match e.older with
                    | (s, _) :: rest ->
                        e.cur <- Committed s;
                        e.older <- rest;
                        t.c_pruned <- t.c_pruned + 1
                    | [] -> Hashtbl.remove t.table key)
                | _ -> ())
            | None -> ())
          !keys;
        Hashtbl.remove t.by_txn txn);
    Hashtbl.remove t.pending_removals txn
  end

let open_snapshot t ?txn () =
  let id = t.next_snapshot in
  t.next_snapshot <- id + 1;
  let v =
    { v_id = id;
      v_stamp = t.stamp;
      v_txn = txn;
      v_inflight = Hashtbl.fold (fun tx _ acc -> tx :: acc) t.by_txn []
    }
  in
  Hashtbl.replace t.snapshots id v.v_stamp;
  t.last_snapshot_stamp <- v.v_stamp;
  v

let close_snapshot t v = Hashtbl.remove t.snapshots v.v_id

let active_view t = t.view

let with_view t v f =
  let prev = t.view in
  t.view <- Some v;
  Fun.protect ~finally:(fun () -> t.view <- prev) f

let note_read t = t.c_reads <- t.c_reads + 1

let visible_cur view = function
  | Committed s -> s <= view.v_stamp
  | Pending tx -> ( match view.v_txn with Some own -> own = tx | None -> false)

(* Per-view refinement of [is_empty], for whole-extent scans: when
   every entry of [file] has a current version [view] can see, [read]
   returns the heap value for every slot and [hidden_slots] is empty,
   so the raw heap is the view. Committed history that only older
   snapshots still need does not count. O(live entries), paid once per
   scan instead of a resolution per record. *)
exception Diverged

let diverges t view ~file =
  try
    Hashtbl.iter
      (fun (f, _) e -> if f = file && not (visible_cur view e.cur) then raise Diverged)
      t.table;
    false
  with Diverged -> true

let rec walk_older view = function
  | [] -> None
  | (s, v) :: rest -> if s <= view.v_stamp then v else walk_older view rest

let read t view ~file ~slot ~heap =
  match Hashtbl.find_opt t.table (file, slot) with
  | None -> heap ()
  | Some e -> if visible_cur view e.cur then heap () else walk_older view e.older

let hidden_slots t view ~file ~present =
  Hashtbl.fold
    (fun (f, slot) e acc ->
      if f = file && not (present slot) && not (visible_cur view e.cur) then
        match walk_older view e.older with
        | Some v -> (slot, v) :: acc
        | None -> acc
      else acc)
    t.table []

let defer_removal t ?txn f =
  if not t.tracking then f ()
  else
    match txn with
    | Some tx ->
        let fs =
          match Hashtbl.find_opt t.pending_removals tx with
          | Some r -> r
          | None ->
              let r = ref [] in
              Hashtbl.replace t.pending_removals tx r;
              r
        in
        fs := f :: !fs
    | None ->
        (* Standalone write: already committed (the clock advanced in
           [record_write]); only an open snapshot forces deferral. *)
        if Hashtbl.length t.snapshots = 0 then f ()
        else t.deferred <- t.deferred @ [ (t.stamp, f) ]

let clear_removals t =
  t.deferred <- [];
  Hashtbl.reset t.pending_removals

let drop_file t ~file =
  let doomed =
    Hashtbl.fold
      (fun ((f, _) as key) _ acc -> if f = file then key :: acc else acc)
      t.table []
  in
  List.iter (Hashtbl.remove t.table) doomed

let reset t =
  Hashtbl.reset t.table;
  Hashtbl.reset t.by_txn;
  Hashtbl.reset t.pending_removals;
  t.deferred <- [];
  t.view <- None;
  t.commit_override <- None
(* The clock, open-snapshot registry and counters survive a reset:
   stamps must never regress, even across recovery or a replica
   bootstrap, or closed history would leak into old snapshots. *)

let drop_snapshots t = Hashtbl.reset t.snapshots

let snapshots_open t = Hashtbl.length t.snapshots

let metrics t =
  let h = horizon t in
  [ ("mvcc.versions_created", t.c_created);
    ("mvcc.versions_pruned", t.c_pruned);
    ("mvcc.chain_max", t.c_chain_max);
    ("mvcc.snapshot_reads", t.c_reads);
    ("mvcc.gc_runs", t.c_gc);
    ("mvcc.snapshots_open", Hashtbl.length t.snapshots);
    ("mvcc.oldest_snapshot_age", if h = max_int then 0 else t.stamp - h);
    ("mvcc.last_snapshot_lsn", t.last_snapshot_stamp);
    ("mvcc.live_entries", Hashtbl.length t.table);
    ("mvcc.deferred_removals", List.length t.deferred);
    ("mvcc.removals_applied", t.c_removals_applied)
  ]
