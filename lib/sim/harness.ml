module Prng = Mood_util.Prng
module Db = Mood.Db
module Store = Mood_storage.Store
module Disk = Mood_storage.Disk
module Buffer_pool = Mood_storage.Buffer_pool
module Wal = Mood_storage.Wal
module Version_store = Mood_storage.Version_store
module Catalog = Mood_catalog.Catalog
module Value = Mood_model.Value
module Executor = Mood_executor.Executor
module Primary = Mood_repl.Primary
module Apply = Mood_repl.Apply
module Codec = Mood_repl.Codec

(* Even keys live in SimA, odd keys in SimB. [Db] locks whole extents,
   so it takes two classes for two writers to wait on each other and
   for a deadlock victim to be chosen. *)
let classes = [ "SimA"; "SimB" ]

let key_space = 40
let max_open_txns = 3

let class_of key = List.nth classes (key mod 2)

let schema =
  String.concat ";\n"
    (List.concat_map
       (fun cls ->
         [ Printf.sprintf "CREATE CLASS %s TUPLE (k Integer, data String(40))" cls;
           Printf.sprintf "CREATE BTREE INDEX ON %s (k)" cls;
           Printf.sprintf "CREATE HASH INDEX ON %s (data)" cls
         ])
       classes)

let sim_db ~buffer_capacity =
  let db = Db.create ~buffer_capacity () in
  (match Db.exec_script db schema with
  | Ok _ -> ()
  | Error m -> failwith ("sim schema: " ^ m));
  db

let row = function
  | Value.Tuple [ (_, Value.Int k); (_, Value.Str d) ] -> (k, d)
  | v -> failwith ("sim read: unexpected row " ^ Value.to_string v)

(* Both classes as one read sees them, ascending by key. *)
let read_with exec =
  List.sort compare
    (List.concat_map
       (fun cls ->
         match exec (Printf.sprintf "SELECT s.k, s.data FROM %s s" cls) with
         | Db.Rows r -> List.map row (Executor.result_values r)
         | _ -> failwith "sim read: not rows")
       classes)

let contents db =
  read_with (fun sql -> match Db.exec db sql with Ok r -> r | Error m -> failwith m)

let snapshot_contents db s =
  read_with (fun sql ->
      match Db.exec_in_txn db s sql with
      | Ok r -> r
      | Error _ -> failwith "sim read: snapshot read refused")

let check_indexes db =
  List.map (fun m -> "index check: " ^ m) (Catalog.validate_indexes (Db.catalog db))

let probe_write db =
  let s = Db.begin_session_txn db in
  let refused =
    List.filter_map
      (fun cls ->
        match Db.exec_in_txn db s (Printf.sprintf "new %s <%d, 'probe'>" cls key_space) with
        | Ok _ -> None
        | Error _ -> Some (Printf.sprintf "write to %s refused after restart" cls))
      classes
  in
  Db.abort_session_txn db s;
  refused

let render_bindings bindings =
  String.concat "; " (List.map (fun (k, d) -> Printf.sprintf "%d=%S" k d) bindings)

let against_oracle what got want =
  if got = want then []
  else
    [ Printf.sprintf "%s diverges from oracle: read {%s} oracle {%s}" what
        (render_bindings got) (render_bindings want) ]

let guard what f = try f () with e -> [ Printf.sprintf "%s raised %s" what (Printexc.to_string e) ]

(* ------------------------------------------------------------------ *)
(* The shared workload                                                 *)

type txn = { s : Db.session_txn; id : int; mutable ops : int }

(* Session-transaction writers over one [Db.t], mirrored in a [Model].
   Whenever no transaction is open the indexes must equal the data. *)
type workload = {
  p_work : Prng.t;
  db : Db.t;
  model : Model.t;
  mutable open_txns : txn list;
  mutable committing : txn option;
      (* between the Commit record's append and the end of its force:
         after a crash it committed iff the record is durable *)
  mutable commits : int;
  mutable aborts : int;
  mutable deadlocks : int;
  mutable index_checks : int;
  mutable problems : string list;
}

let workload ~p_work db =
  { p_work;
    db;
    model = Model.create ();
    open_txns = [];
    committing = None;
    commits = 0;
    aborts = 0;
    deadlocks = 0;
    index_checks = 0;
    problems = []
  }

let check w db =
  w.index_checks <- w.index_checks + 1;
  w.problems <- w.problems @ check_indexes db

let settle w = if Db.active_transactions w.db = [] then check w w.db

let finish w st =
  w.open_txns <- List.filter (fun o -> o != st) w.open_txns;
  settle w

let abort w st =
  Db.abort_session_txn w.db st.s;
  Model.abort w.model st.id;
  w.aborts <- w.aborts + 1;
  finish w st

let commit w st =
  w.committing <- Some st;
  Db.commit_session_txn w.db st.s;
  w.committing <- None;
  Model.commit w.model st.id;
  w.commits <- w.commits + 1;
  finish w st

let begin_txn w =
  let s = Db.begin_session_txn w.db in
  let st = { s; id = Db.session_txn_id s; ops = 0 } in
  Model.begin_txn w.model st.id;
  w.open_txns <- st :: w.open_txns

let random_data w =
  Printf.sprintf "v%d-%s"
    (Prng.int w.p_work ~bound:1000)
    (String.make (1 + Prng.int w.p_work ~bound:24) 'x')

let do_op w st =
  let key = Prng.int w.p_work ~bound:key_space in
  let cls = class_of key in
  (* A granted statement holds the key's extent exclusively, so the
     model's live view is what the heap holds for it. *)
  let stmt, mirror =
    match Model.find_live w.model key with
    | None ->
        let data = random_data w in
        ( Printf.sprintf "new %s <%d, '%s'>" cls key data,
          fun () -> Model.insert w.model ~txn:st.id ~key ~data )
    | Some _ when Prng.bool w.p_work ->
        let data = random_data w in
        ( Printf.sprintf "UPDATE %s s SET data = '%s' WHERE s.k = %d" cls data key,
          fun () -> Model.update w.model ~txn:st.id ~key ~data )
    | Some _ ->
        ( Printf.sprintf "DELETE FROM %s s WHERE s.k = %d" cls key,
          fun () -> Model.delete w.model ~txn:st.id ~key )
  in
  match Db.exec_in_txn w.db st.s stmt with
  | Ok _ ->
      st.ops <- st.ops + 1;
      mirror ()
  | Error Db.Txn_busy -> () (* the extent is held elsewhere: skip this op *)
  | Error Db.Txn_deadlock ->
      w.deadlocks <- w.deadlocks + 1;
      abort w st
  | Error (Db.Txn_fail m | Db.Txn_redirect m) -> failwith (stmt ^ ": " ^ m)

(* One transactional step: maybe begin a transaction, then pick an
   open one and commit it, abort it or run one operation in it. *)
let txn_step w =
  if
    w.open_txns = []
    || List.length w.open_txns < max_open_txns && Prng.int w.p_work ~bound:4 = 0
  then begin_txn w;
  let st = List.nth w.open_txns (Prng.int w.p_work ~bound:(List.length w.open_txns)) in
  if st.ops > 0 && Prng.int w.p_work ~bound:6 = 0 then
    if Prng.int w.p_work ~bound:4 = 0 then abort w st else commit w st
  else do_op w st

let open_ids w = String.concat "," (List.map (fun st -> string_of_int st.id) w.open_txns)

(* After [Db.recover]: the committed state, healthy indexes, and writes
   that are granted again. *)
let restart_checks w =
  let got = against_oracle "recovered state" (contents w.db) (Model.committed_bindings w.model) in
  check w w.db;
  let refused = probe_write w.db in
  check w w.db;
  got @ refused

(* ------------------------------------------------------------------ *)
(* Recovery cycles                                                     *)

let recovery_cycle ~sabotage ~seed =
  (* Independent streams: workload choices stay identical whether or
     not the fault stream is consulted, so a seed reproduces exactly. *)
  let root = Prng.create ~seed in
  let p_work = Prng.split root in
  let p_fault = Prng.split root in
  let db = sim_db ~buffer_capacity:(4 + Prng.int p_fault ~bound:12) in
  let store = Db.store db in
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
  let w = workload ~p_work db in
  let steps = ref 0 in
  let checkpoints = ref 0 in
  let violations =
    guard "workload" (fun () ->
        (try
           while true do
             if !steps >= step_budget then raise Disk.Crash;
             incr steps;
             if Prng.int p_work ~bound:20 = 0 then begin
               Db.checkpoint db;
               incr checkpoints
             end
             else txn_step w
           done
         with Disk.Crash -> ());
        [])
  in
  let site =
    Printf.sprintf "step=%d/%d writes=%d%s open_txns=[%s]" !steps step_budget
      (Disk.counters disk).Disk.writes
      (match write_budget with
      | Some n -> Printf.sprintf " write_budget=%d" n
      | None -> " (op-budget crash)")
      (open_ids w)
  in
  (* The crash proper: the armed fault is spent, dirty frames and the
     unpersisted log tail are gone. Durable truth is the checkpoint
     image plus the persisted log prefix. *)
  Disk.clear_fault disk;
  let lost_frames = List.length (Buffer_pool.crash (Store.buffer store)) in
  let lost_log = Wal.lose_unpersisted wal in
  (match w.committing with
  | Some st when Wal.commit_persisted wal st.id ->
      Model.commit w.model st.id;
      w.commits <- w.commits + 1
  | _ -> ());
  Model.crash w.model;
  let torn = List.length (Disk.torn_pages disk) in
  (* Sabotage: a durable Commit forged for every transaction open at
     the crash, so recovery keeps their effects. *)
  if sabotage then begin
    List.iter (fun st -> ignore (Wal.append wal (Wal.Commit st.id))) w.open_txns;
    Wal.flush wal
  end;
  let violations =
    violations
    @ guard "recovery" (fun () ->
          ignore (Db.recover db);
          restart_checks w)
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
        ("lost log records", lost_log);
        ("index checks", w.index_checks)
      ];
    violations = violations @ w.problems
  }

let recovery =
  { Phase.name = "recovery"; cycle = recovery_cycle; caught = Phase.violated }

(* ------------------------------------------------------------------ *)
(* Replication cycles                                                  *)

let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> []

let replication_cycle ~sabotage ~seed =
  let root = Prng.create ~seed in
  let p_work = Prng.split root in
  let p_repl = Prng.split root in
  let db = sim_db ~buffer_capacity:16 in
  let w = workload ~p_work db in
  (* The replica: its database and the applier feeding it. *)
  let fresh_replica () =
    let r = Db.create ~buffer_capacity:64 () in
    Db.set_role r (Db.Replica "sim-primary");
    (r, Apply.create r)
  in
  let replica = ref (fresh_replica ()) in
  let applier () = snd !replica in
  let need_bootstrap = ref true in
  let steps = ref 0 in
  let crashes = ref 0 in
  let redeliveries = ref 0 in
  let bootstraps = ref 0 in
  let violations = ref [] in
  (* Everything the replica receives crosses the wire codec. Sabotage:
     the snapshot loses its in-flight transactions, so their effects
     stay in the installed image. *)
  let bootstrap () =
    match Codec.decode (Codec.encode_snapshot (Primary.snapshot db)) with
    | Codec.Snapshot s ->
        incr bootstraps;
        Apply.install_snapshot (applier ())
          (if sabotage then { s with Codec.s_active = []; s_undo = [] } else s);
        need_bootstrap := false
    | Codec.Batch _ -> failwith "snapshot decoded as a batch"
  in
  let pull ~max_records =
    match
      Codec.decode
        (Codec.encode_batch (Primary.batch ~max_records db ~after:(Apply.applied_lsn (applier ()))))
    with
    | Codec.Batch b -> b
    | Codec.Snapshot _ -> failwith "batch decoded as a snapshot"
  in
  let apply b =
    match Apply.apply_batch (applier ()) b with
    | `Applied -> ()
    | `Stale_primary term -> failwith (Printf.sprintf "batch refused: stale term %d" term)
    | `Primary_regressed -> failwith "batch refused: primary regressed"
  in
  let replica_pull () =
    if !need_bootstrap then bootstrap ()
    else begin
      let b = pull ~max_records:(1 + Prng.int p_repl ~bound:12) in
      let n = List.length b.Codec.b_records in
      if n > 0 then
        if Prng.int p_repl ~bound:8 = 0 then begin
          (* Replica crash mid-batch: a prefix lands, then the whole
             replica is gone. Recovery is a fresh bootstrap. *)
          apply { b with Codec.b_records = take (Prng.int p_repl ~bound:n) b.Codec.b_records };
          replica := fresh_replica ();
          need_bootstrap := true;
          incr crashes
        end
        else begin
          apply b;
          if Prng.int p_repl ~bound:6 = 0 then begin
            (* Torn-connection retry: the same batch arrives twice, and
               the cursor must skip all of it. *)
            let seen = Apply.records_applied (applier ()) in
            apply b;
            if Apply.records_applied (applier ()) <> seen then
              violations := "a redelivered batch was applied again" :: !violations;
            incr redeliveries
          end
        end
    end
  in
  let step_budget = 60 + Prng.int p_work ~bound:140 in
  let post =
    guard "replication" (fun () ->
        while !steps < step_budget do
          incr steps;
          txn_step w;
          if Prng.int p_repl ~bound:3 = 0 then replica_pull ()
        done;
        (* Catch-up, then promotion: bootstrap if the last crash left
           the replica empty, drain the durable log, drop the loser
           buffers. The image must now be exactly the committed state. *)
        if !need_bootstrap then bootstrap ();
        let horizon = Wal.persisted_last_lsn (Store.wal (Db.store db)) in
        while Apply.applied_lsn (applier ()) < horizon do
          apply (pull ~max_records:1024)
        done;
        ignore (Apply.promote (applier ()));
        let promoted = fst !replica in
        let got = contents promoted in
        check w promoted;
        against_oracle "promoted replica" got (Model.committed_bindings w.model))
  in
  { Phase.seed;
    site = Printf.sprintf "promotion at step=%d replica_crashes=%d" !steps !crashes;
    counts =
      [ ("steps", !steps);
        ("commits", w.commits);
        ("applied on the replica", Apply.commits_applied (applier ()));
        ("aborts", w.aborts);
        ("deadlock victims", w.deadlocks);
        ("replica crashes", !crashes);
        ("redeliveries", !redeliveries);
        ("bootstraps", !bootstraps);
        ("index checks", w.index_checks)
      ];
    violations = List.rev !violations @ post @ w.problems
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
  (* No disk faults here: a commit's force always survives, so every
     commit the oracle records is durable and the crash is a clean cut
     at the step budget. The recovery cycles cover torn logs; these pin
     the MVCC read protocol. *)
  let db = sim_db ~buffer_capacity:(4 + Prng.int p_plan ~bound:12) in
  let w = workload ~p_work db in
  let readers : Db.session_txn list ref = ref [] in
  let step_budget = 40 + Prng.int p_plan ~bound:200 in
  let steps = ref 0 in
  let snapshots = ref 0 in
  let snapshot_checks = ref 0 in
  let gc_runs = ref 0 in
  let checkpoints = ref 0 in
  let violations = ref [] in
  let violation fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  (* A snapshot is a read-only session transaction: every read in it
     must return the committed state as of its BEGIN. *)
  let check_view s =
    incr snapshot_checks;
    let id = Db.session_txn_id s in
    let got = snapshot_contents db s in
    match Model.snapshot_expected w.model id with
    | None -> violation "snapshot %d: oracle lost its expectation" id
    | Some want ->
        if got <> want then
          violation "snapshot %d diverged: read {%s} want {%s}" id (render_bindings got)
            (render_bindings want)
  in
  let open_view () =
    if List.length !readers < max_open_snapshots then begin
      let s = Db.begin_session_txn db in
      Model.register_snapshot w.model (Db.session_txn_id s);
      readers := s :: !readers;
      incr snapshots;
      check_view s
    end
  in
  let close_view s =
    check_view s;
    Db.commit_session_txn db s;
    Model.forget_snapshot w.model (Db.session_txn_id s);
    readers := List.filter (fun r -> r != s) !readers;
    settle w
  in
  (* GC must leave every chain a live snapshot still needs. Sabotage
     wipes the version store instead. *)
  let gc () =
    if sabotage then Version_store.reset (Store.versions (Db.store db)) else Db.gc_versions db;
    incr gc_runs;
    List.iter check_view !readers
  in
  let live =
    guard "workload" (fun () ->
        while !steps < step_budget do
          incr steps;
          match Prng.int p_work ~bound:24 with
          | 0 ->
              Db.checkpoint db;
              incr checkpoints;
              gc ()
          | 1 | 2 -> open_view ()
          | 3 when !readers <> [] ->
              close_view (List.nth !readers (Prng.int p_work ~bound:(List.length !readers)))
          | 4 ->
              (* Repeatable read mid-history: every live snapshot still
                 answers with its capture state. *)
              List.iter check_view !readers
          | 5 -> gc ()
          | _ -> txn_step w
        done;
        [])
  in
  let site =
    Printf.sprintf "step=%d/%d open_txns=[%s] open_snapshots=%d" !steps step_budget
      (open_ids w) (List.length !readers)
  in
  (* The crash: dirty frames and the unpersisted log tail are gone, and
     with them every version chain and open snapshot. Every commit
     above forced before the oracle recorded it, so there is no commit
     limbo to resolve. *)
  let store = Db.store db in
  ignore (Buffer_pool.crash (Store.buffer store));
  ignore (Wal.lose_unpersisted (Store.wal store));
  Model.crash w.model;
  let post =
    guard "recovery" (fun () ->
        ignore (Db.recover db);
        let restarted = restart_checks w in
        (* Version chains must rebuild consistently: a snapshot opened
           after restart reads the committed state, and keeps reading
           it across a committed write. *)
        let reader = Db.begin_session_txn db in
        let first = snapshot_contents db reader in
        let writer = Db.begin_session_txn db in
        let stmt =
          match Model.find_live w.model 0 with
          | Some _ -> "UPDATE SimA s SET data = 'post-recovery' WHERE s.k = 0"
          | None -> "new SimA <0, 'post-recovery'>"
        in
        let refused =
          match Db.exec_in_txn db writer stmt with
          | Ok _ -> []
          | Error _ -> [ "post-recovery write refused" ]
        in
        Db.commit_session_txn db writer;
        let second = snapshot_contents db reader in
        Db.commit_session_txn db reader;
        check w db;
        restarted
        @ against_oracle "post-recovery snapshot" first (Model.committed_bindings w.model)
        @ refused
        @
        if second = first then []
        else
          [ Printf.sprintf
              "post-recovery snapshot not repeatable across a write: first {%s} then {%s}"
              (render_bindings first) (render_bindings second) ])
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
        ("checkpoints", !checkpoints);
        ("index checks", w.index_checks)
      ];
    violations = List.rev !violations @ live @ post @ w.problems
  }

let mvcc = { Phase.name = "mvcc"; cycle = mvcc_cycle; caught = Phase.violated }
