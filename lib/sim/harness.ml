module Prng = Mood_util.Prng
module Store = Mood_storage.Store
module Disk = Mood_storage.Disk
module Buffer_pool = Mood_storage.Buffer_pool
module Wal = Mood_storage.Wal
module Lock = Mood_storage.Lock_manager
module Version_store = Mood_storage.Version_store

type txn_state = {
  tx_id : int;
  tx_lock : Lock.txn;
  mutable tx_keys : int list;
  mutable tx_ops : int;
}

let key_space = 40
let max_open_txns = 3

(* The transactional workload the three cycles share: strict-2PL
   writers over a [Table], under per-key exclusive locks, mirrored in
   a [Model]. A cycle supplies only what differs between them:
   [durable] logs and forces a transaction's Commit record (and
   whatever the cycle tracks around the force), [undo] rolls an
   aborted transaction back in the system under test. *)
type workload = {
  p_work : Prng.t;
  wal : Wal.t;
  locks : Lock.t;
  table : Table.t;
  model : Model.t;
  durable : int -> unit;
  undo : int -> unit;
  mutable open_txns : txn_state list;
  mutable commits : int;
  mutable aborts : int;
  mutable deadlocks : int;
}

let workload ~p_work ~store ~table ~durable ~undo =
  { p_work;
    wal = Store.wal store;
    locks = Store.locks store;
    table;
    model = Model.create ();
    durable;
    undo;
    open_txns = [];
    commits = 0;
    aborts = 0;
    deadlocks = 0
  }

let release w st =
  Lock.release_all w.locks st.tx_lock;
  w.open_txns <- List.filter (fun s -> s != st) w.open_txns

let abort w st =
  w.undo st.tx_id;
  (* No disk write between here and the model update: a crash cannot
     separate them. *)
  Model.abort w.model st.tx_id;
  w.aborts <- w.aborts + 1;
  release w st

let commit w st =
  w.durable st.tx_id;
  Model.commit w.model st.tx_id;
  w.commits <- w.commits + 1;
  release w st

let begin_txn w =
  let tx_lock = Lock.begin_txn w.locks in
  let st = { tx_id = Lock.txn_id tx_lock; tx_lock; tx_keys = []; tx_ops = 0 } in
  ignore (Wal.append w.wal (Wal.Begin st.tx_id));
  Model.begin_txn w.model st.tx_id;
  w.open_txns <- st :: w.open_txns

let random_data w =
  Printf.sprintf "v%d-%s"
    (Prng.int w.p_work ~bound:1000)
    (String.make (1 + Prng.int w.p_work ~bound:24) 'x')

let do_op w st =
  let key = Prng.int w.p_work ~bound:key_space in
  let granted =
    if List.mem key st.tx_keys then `Ok
    else
      match
        Lock.acquire w.locks st.tx_lock ("key:" ^ string_of_int key) Lock.Exclusive
      with
      | Lock.Granted ->
          st.tx_keys <- key :: st.tx_keys;
          `Ok
      | Lock.Would_block -> `Busy
      | Lock.Deadlock -> `Deadlock
  in
  match granted with
  | `Busy -> () (* conflicting key held elsewhere: skip this op *)
  | `Deadlock ->
      w.deadlocks <- w.deadlocks + 1;
      abort w st
  | `Ok -> (
      st.tx_ops <- st.tx_ops + 1;
      (* Exclusive lock granted, so the live value of this key is
         either committed or our own pending effect — the model's live
         view is exactly what the heap holds. *)
      match Model.find_live w.model key with
      | None ->
          let data = random_data w in
          Table.insert w.table ~txn:st.tx_id ~key ~data;
          Model.insert w.model ~txn:st.tx_id ~key ~data
      | Some _ ->
          if Prng.bool w.p_work then begin
            let data = random_data w in
            Table.update w.table ~txn:st.tx_id ~key ~data;
            Model.update w.model ~txn:st.tx_id ~key ~data
          end
          else begin
            Table.delete w.table ~txn:st.tx_id ~key;
            Model.delete w.model ~txn:st.tx_id ~key
          end)

(* One transactional step: maybe begin a transaction, then pick an
   open one and commit it, abort it or run one operation in it. *)
let txn_step w =
  if
    w.open_txns = []
    || List.length w.open_txns < max_open_txns && Prng.int w.p_work ~bound:4 = 0
  then begin_txn w;
  let st =
    List.nth w.open_txns (Prng.int w.p_work ~bound:(List.length w.open_txns))
  in
  if st.tx_ops > 0 && Prng.int w.p_work ~bound:6 = 0 then
    if Prng.int w.p_work ~bound:4 = 0 then abort w st else commit w st
  else do_op w st

let active w = List.map (fun st -> st.tx_id) w.open_txns

let render_bindings bindings =
  String.concat "; " (List.map (fun (k, d) -> Printf.sprintf "%d=%S" k d) bindings)

let against_oracle what got want =
  if got = want then []
  else
    [ Printf.sprintf "%s diverges from oracle: read {%s} oracle {%s}" what
        (render_bindings got) (render_bindings want) ]

(* ------------------------------------------------------------------ *)
(* Recovery cycles                                                     *)

let recovery_cycle ~sabotage ~seed =
  (* Independent streams: workload choices stay identical whether or
     not the fault stream is consulted, so a seed reproduces exactly. *)
  let root = Prng.create ~seed in
  let p_work = Prng.split root in
  let p_fault = Prng.split root in
  let buffer_capacity = 4 + Prng.int p_fault ~bound:12 in
  let store = Store.create ~buffer_capacity () in
  (* Log forces hit the disk: they are charged, they can crash, and a
     crash mid-flush tears the log tail. *)
  Store.attach_wal_accounting store;
  let disk = Store.disk store in
  let wal = Store.wal store in
  (* Crash either after a random number of page writes (fault
     injection inside Disk) or after a random number of workload steps
     (clean cut between operations). *)
  let write_budget =
    if Prng.bool p_fault then begin
      let n = 1 + Prng.int p_fault ~bound:150 in
      Disk.inject_fault disk ~crash_after_writes:n ~torn_page_prob:0.3
        ~prng:(Prng.split p_fault) ();
      Some n
    end
    else None
  in
  let step_budget =
    match write_budget with
    | Some _ -> 500 (* backstop if the write budget never fires *)
    | None -> 1 + Prng.int p_fault ~bound:200
  in
  let table = Table.create ~store () in
  let committing = ref None in
  let w =
    workload ~p_work ~store ~table
      ~durable:(fun txn ->
        ignore (Wal.append wal (Wal.Commit txn));
        committing := Some txn;
        (* The flush can crash after persisting the Commit record: the
           transaction is then committed even though the model never
           hears of it. The crash handler resolves the limbo from the
           durable prefix. *)
        Wal.flush wal;
        committing := None)
      ~undo:(fun txn -> Table.abort table ~txn)
  in
  let cp = ref None in
  let steps = ref 0 in
  let checkpoints = ref 0 in
  (try
     while true do
       if !steps >= step_budget then raise Disk.Crash;
       incr steps;
       if Prng.int p_work ~bound:20 = 0 then begin
         cp := Some (Table.checkpoint table ~active:(active w));
         incr checkpoints
       end
       else txn_step w
     done
   with Disk.Crash -> ());
  let site =
    Printf.sprintf "step=%d/%d writes=%d%s open_txns=[%s]" !steps step_budget
      (Disk.counters disk).Disk.writes
      (match write_budget with
      | Some n -> Printf.sprintf " write_budget=%d" n
      | None -> " (op-budget crash)")
      (String.concat "," (List.map string_of_int (active w)))
  in
  (* The crash proper: the armed fault is spent, dirty frames and the
     unpersisted log tail are gone. Durable truth is the checkpoint
     image plus the persisted log prefix. *)
  Disk.clear_fault disk;
  let lost_frames = List.length (Buffer_pool.crash (Store.buffer store)) in
  let lost_log = Wal.lose_unpersisted wal in
  (match !committing with
  | Some txn when Wal.commit_persisted wal txn ->
      Model.commit w.model txn;
      w.commits <- w.commits + 1
  | _ -> ());
  Model.crash w.model;
  let torn = List.length (Disk.torn_pages disk) in
  let violations =
    try
      (* Sabotage: recovery without the undo pass, so a loser's stolen
         effects stay visible. *)
      let recovered, _analysis =
        Table.recover ~skip_undo:sabotage ~wal ~checkpoint:!cp ()
      in
      let mismatch =
        against_oracle "recovered state" (Table.contents recovered)
          (Model.committed_bindings w.model)
      in
      mismatch @ Table.check recovered
    with e -> [ Printf.sprintf "recovery raised %s" (Printexc.to_string e) ]
  in
  { Phase.seed;
    site;
    counts =
      [ ("steps", !steps);
        ("commits", w.commits);
        ("aborts", w.aborts);
        ("deadlock victims", w.deadlocks);
        ("checkpoints", !checkpoints);
        ("torn pages", torn);
        ("lost frames", lost_frames);
        ("lost log records", lost_log)
      ];
    violations
  }

let recovery =
  { Phase.name = "recovery"; cycle = recovery_cycle; caught = Phase.violated }

(* ------------------------------------------------------------------ *)
(* Replication cycles                                                  *)

let take_first n xs =
  let rec go acc n = function
    | x :: rest when n > 0 -> go (x :: acc) (n - 1) rest
    | _ -> List.rev acc
  in
  go [] n xs

let replication_cycle ~sabotage ~seed =
  let root = Prng.create ~seed in
  let p_work = Prng.split root in
  let p_repl = Prng.split root in
  let store = Store.create ~buffer_capacity:16 () in
  let wal = Store.wal store in
  let table = Table.create ~store () in
  (* The primary never crashes in this cycle (the recovery cycle owns
     that failure mode) — a commit is durable the moment it flushes. *)
  let w =
    workload ~p_work ~store ~table
      ~durable:(fun txn ->
        ignore (Wal.append wal (Wal.Commit txn));
        Wal.flush wal)
      ~undo:(fun txn -> Table.abort table ~txn)
  in
  let replica = ref (Replica.create ()) in
  let need_bootstrap = ref true in
  let steps = ref 0 in
  let snapshots = ref 0 in
  let crashes = ref 0 in
  let redeliveries = ref 0 in
  (* Sharp snapshot for bootstrap: the base image, the durable horizon
     it reflects, and every in-flight transaction's records so the
     replica can scrub their image-resident effects and re-buffer
     them. *)
  let take_snapshot () =
    let cp = Table.checkpoint table ~active:(active w) in
    incr snapshots;
    { Replica.s_lsn = cp.Table.cp_lsn;
      s_image = cp.Table.cp_image;
      s_active =
        List.map
          (fun st -> (st.tx_id, List.rev (Wal.undo_records wal st.tx_id)))
          w.open_txns
    }
  in
  let replica_pull () =
    if !need_bootstrap then begin
      (* Sabotage: skip backing in-flight transactions' effects out of
         the bootstrap image. *)
      Replica.install_snapshot ~skip_scrub:sabotage !replica (take_snapshot ());
      need_bootstrap := false
    end
    else begin
      let available = Wal.persisted_after wal (Replica.applied_lsn !replica) in
      let batch = take_first (1 + Prng.int p_repl ~bound:12) available in
      if batch <> [] then
        if Prng.int p_repl ~bound:8 = 0 then begin
          (* Replica crash mid-batch: a prefix lands, then the whole
             in-memory state (image, cursor, pending buffers) is gone.
             Recovery is a fresh bootstrap. *)
          Replica.apply !replica
            (take_first (Prng.int p_repl ~bound:(List.length batch)) batch);
          replica := Replica.create ();
          need_bootstrap := true;
          incr crashes
        end
        else begin
          let before = Replica.applied_lsn !replica in
          Replica.apply !replica batch;
          if Prng.int p_repl ~bound:6 = 0 then begin
            (* Torn-connection retry: the same batch arrives twice.
               The cursor skip plus upsert redo must make the second
               delivery a no-op. *)
            Replica.set_cursor !replica before;
            Replica.apply !replica batch;
            incr redeliveries
          end
        end
    end
  in
  let step_budget = 60 + Prng.int p_work ~bound:140 in
  while !steps < step_budget do
    incr steps;
    txn_step w;
    if Prng.int p_repl ~bound:3 = 0 then replica_pull ()
  done;
  (* Catch-up, then promotion: bootstrap if the last crash left the
     replica empty, drain the durable log completely, drop the loser
     buffers. The image must now be exactly the committed state. *)
  if !need_bootstrap then replica_pull ();
  Replica.apply !replica (Wal.persisted_after wal (Replica.applied_lsn !replica));
  Replica.promote !replica;
  let violations =
    let mismatch =
      against_oracle "promoted replica" (Replica.contents !replica)
        (Model.committed_bindings w.model)
    in
    mismatch @ Replica.check !replica
  in
  { Phase.seed;
    site = Printf.sprintf "promotion at step=%d replica_crashes=%d" !steps !crashes;
    counts =
      [ ("steps", !steps);
        ("commits", w.commits);
        ("applied on the replica", Replica.commits_applied !replica);
        ("aborts", w.aborts);
        ("deadlock victims", w.deadlocks);
        ("snapshots", !snapshots);
        ("replica crashes", !crashes);
        ("redeliveries", !redeliveries);
        ("bootstraps", Replica.bootstraps !replica + !crashes)
      ];
    violations
  }

let replication =
  { Phase.name = "replication"; cycle = replication_cycle; caught = Phase.violated }

(* ------------------------------------------------------------------ *)
(* MVCC snapshot cycles                                                *)

let max_open_snapshots = 4

let mvcc_cycle ~sabotage ~seed =
  let root = Prng.create ~seed in
  let p_work = Prng.split root in
  let p_plan = Prng.split root in
  let store = Store.create ~buffer_capacity:(4 + Prng.int p_plan ~bound:12) () in
  (* No disk faults and no WAL write accounting here: a flush always
     survives, so every commit the oracle records is durable and the
     crash is a clean cut at the step budget. The recovery cycles
     already cover torn logs; these cycles pin the MVCC read protocol —
     every open snapshot keeps reading its capture state while history
     commits, aborts, checkpoints and GC runs around it, and version
     chains rebuild consistently after a restart. *)
  let wal = Store.wal store in
  let vs = Store.versions store in
  Version_store.set_tracking vs true;
  let table = Table.create ~store () in
  let w =
    workload ~p_work ~store ~table
      ~durable:(fun txn ->
        let lsn = Wal.append wal (Wal.Commit txn) in
        Wal.flush wal;
        Version_store.commit vs ~txn ~lsn)
      ~undo:(fun txn ->
        (* Compensation restores the heap; the version store pops the
           chains itself — tracking the compensating writes would
           instead push bogus new versions. *)
        Version_store.without_tracking vs (fun () -> Table.abort table ~txn);
        Version_store.abort vs ~txn)
  in
  let open_views : Version_store.view list ref = ref [] in
  let cp = ref None in
  let step_budget = 40 + Prng.int p_plan ~bound:200 in
  let steps = ref 0 in
  let snapshots = ref 0 in
  let snapshot_checks = ref 0 in
  let gc_runs = ref 0 in
  let checkpoints = ref 0 in
  let violations = ref [] in
  let violation fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  let check_view view =
    incr snapshot_checks;
    let id = Version_store.view_id view in
    let got = Version_store.with_view vs view (fun () -> Table.contents table) in
    match Model.snapshot_expected w.model id with
    | None -> violation "snapshot %d: oracle lost its expectation" id
    | Some want ->
        if got <> want then
          violation "snapshot %d (stamp %d) diverged: read {%s} want {%s}" id
            (Version_store.view_stamp view)
            (render_bindings got) (render_bindings want)
  in
  let open_view () =
    if List.length !open_views < max_open_snapshots then begin
      let view = Version_store.open_snapshot vs () in
      Model.register_snapshot w.model (Version_store.view_id view);
      open_views := view :: !open_views;
      incr snapshots;
      (* A snapshot must agree with the oracle from its first read. *)
      check_view view
    end
  in
  let close_view view =
    check_view view;
    Version_store.close_snapshot vs view;
    Version_store.drain_removals vs;
    Model.forget_snapshot w.model (Version_store.view_id view);
    open_views := List.filter (fun v -> v != view) !open_views
  in
  (* GC must leave every chain a live snapshot still needs. Sabotage
     is a GC that ignores live snapshots: their registrations are
     dropped first, while the cycle keeps reading through them. *)
  let gc () =
    if sabotage then List.iter (Version_store.close_snapshot vs) !open_views;
    Version_store.gc vs;
    incr gc_runs;
    List.iter check_view !open_views
  in
  (try
     while true do
       if !steps >= step_budget then raise Disk.Crash;
       incr steps;
       match Prng.int p_work ~bound:24 with
       | 0 ->
           cp := Some (Table.checkpoint table ~active:(active w));
           incr checkpoints;
           (* GC rides along with the checkpoint, exactly like
              [Db.checkpoint]. *)
           gc ()
       | 1 | 2 -> open_view ()
       | 3 when !open_views <> [] ->
           close_view
             (List.nth !open_views (Prng.int p_work ~bound:(List.length !open_views)))
       | 4 ->
           (* Repeatable read mid-history: every live snapshot still
              answers with its capture state. *)
           List.iter check_view !open_views
       | 5 -> gc ()
       | _ -> txn_step w
     done
   with Disk.Crash -> ());
  let site =
    Printf.sprintf "step=%d/%d open_txns=[%s] open_snapshots=%d" !steps step_budget
      (String.concat "," (List.map string_of_int (active w)))
      (List.length !open_views)
  in
  (* The crash: dirty frames and the unpersisted log tail are gone, and
     with them every version chain and open snapshot (both live only in
     memory). Every commit above flushed before the oracle recorded it,
     so there is no commit limbo to resolve. *)
  ignore (Buffer_pool.crash (Store.buffer store));
  ignore (Wal.lose_unpersisted wal);
  Model.crash w.model;
  let post =
    try
      let recovered, _analysis = Table.recover ~wal ~checkpoint:!cp () in
      let want = Model.committed_bindings w.model in
      let mismatch = against_oracle "recovered state" (Table.contents recovered) want in
      (* Version chains must rebuild consistently: a snapshot opened on
         the recovered store reads exactly the committed state, and
         keeps reading it across a post-recovery write. *)
      let rvs = Store.versions (Table.store recovered) in
      Version_store.set_tracking rvs true;
      let view = Version_store.open_snapshot rvs () in
      let first = Version_store.with_view rvs view (fun () -> Table.contents recovered) in
      let txn = 1_000_000 + seed in
      ignore (Wal.append wal (Wal.Begin txn));
      (match Table.get recovered 0 with
      | Some _ -> Table.update recovered ~txn ~key:0 ~data:"post-recovery"
      | None -> Table.insert recovered ~txn ~key:0 ~data:"post-recovery");
      let lsn = Wal.append wal (Wal.Commit txn) in
      Wal.flush wal;
      Version_store.commit rvs ~txn ~lsn;
      let second =
        Version_store.with_view rvs view (fun () -> Table.contents recovered)
      in
      Version_store.close_snapshot rvs view;
      let chain =
        against_oracle "post-recovery snapshot" first want
        @
        if second = first then []
        else
          [ Printf.sprintf
              "post-recovery snapshot not repeatable across a write: first {%s} then {%s}"
              (render_bindings first) (render_bindings second) ]
      in
      mismatch @ chain @ Table.check recovered
    with e -> [ Printf.sprintf "recovery raised %s" (Printexc.to_string e) ]
  in
  { Phase.seed;
    site;
    counts =
      [ ("steps", !steps);
        ("commits", w.commits);
        ("aborts", w.aborts);
        ("deadlock victims", w.deadlocks);
        ("snapshots", !snapshots);
        ("reads checked", !snapshot_checks);
        ("GC runs", !gc_runs);
        ("checkpoints", !checkpoints)
      ];
    violations = List.rev !violations @ post
  }

let mvcc = { Phase.name = "mvcc"; cycle = mvcc_cycle; caught = Phase.violated }
