(* MVCC snapshot reads: visibility unit tests (no dirty reads,
   read-own-writes, repeatable snapshot, delete visibility, index
   snapshot consistency, abort restore, write skew, GC under an open
   snapshot) plus a randomized differential oracle pinning snapshot
   reads against a serial replay of the committed transactions. *)

module Db = Mood.Db
module Executor = Mood_executor.Executor
module Value = Mood_model.Value
module Prng = Mood_util.Prng
module Catalog = Mood_catalog.Catalog
module Btree = Mood_storage.Btree
module Join_index = Mood_storage.Join_index

let ok db src =
  match Db.exec db src with
  | Ok r -> r
  | Error m -> Alcotest.failf "unexpected error on %S: %s" src m

let rows db src =
  let r = Db.query db src in
  Executor.result_values r

(* [SELECT x.attr ...] rows come back as singleton tuples. *)
let ints db src =
  List.sort compare
    (List.map
       (function
         | Value.Tuple [ (_, Value.Int n) ] -> n
         | v -> Alcotest.failf "unexpected row %s" (Value.to_string v))
       (rows db src))

let txn_ints db txn src =
  match Db.exec_in_txn db txn src with
  | Ok (Db.Rows r) ->
      List.sort compare
        (List.map
           (function
             | Value.Tuple [ (_, Value.Int n) ] -> n
             | v -> Alcotest.failf "unexpected row %s" (Value.to_string v))
           (Executor.result_values r))
  | Ok _ -> Alcotest.failf "%S: not a row result" src
  | Error Db.Txn_busy -> Alcotest.failf "%S: snapshot read returned BUSY" src
  | Error Db.Txn_deadlock -> Alcotest.failf "%S: snapshot read deadlocked" src
  | Error (Db.Txn_fail m) -> Alcotest.failf "%S: %s" src m
  | Error (Db.Txn_redirect _) -> Alcotest.failf "%S: redirected" src

let txn_exec db txn src =
  match Db.exec_in_txn db txn src with
  | Ok _ -> ()
  | Error Db.Txn_busy -> Alcotest.failf "%S: unexpected BUSY" src
  | Error Db.Txn_deadlock -> Alcotest.failf "%S: unexpected deadlock" src
  | Error (Db.Txn_fail m) -> Alcotest.failf "%S: %s" src m
  | Error (Db.Txn_redirect _) -> Alcotest.failf "%S: redirected" src

let fresh_accounts () =
  let db = Db.create () in
  ignore (ok db "CREATE CLASS Acct TUPLE (id Integer, bal Integer)");
  ignore (ok db "new Acct <1, 100>");
  ignore (ok db "new Acct <2, 200>");
  db

(* A standalone SELECT sees only committed state while a writer
   transaction holds exclusive locks — and does not block on them. *)
let test_no_dirty_reads () =
  let db = fresh_accounts () in
  let w = Db.begin_session_txn db in
  txn_exec db w "UPDATE Acct a SET bal = 999 WHERE a.id = 1";
  Alcotest.(check (list int))
    "uncommitted write invisible" [ 100 ]
    (ints db "SELECT a.bal FROM Acct a WHERE a.id = 1");
  Db.commit_session_txn db w;
  Alcotest.(check (list int))
    "committed write visible" [ 999 ]
    (ints db "SELECT a.bal FROM Acct a WHERE a.id = 1")

(* A transaction reads its own pending writes; nobody else does. *)
let test_read_own_writes () =
  let db = fresh_accounts () in
  let w = Db.begin_session_txn db in
  txn_exec db w "UPDATE Acct a SET bal = 150 WHERE a.id = 1";
  Alcotest.(check (list int))
    "own write visible inside" [ 150 ]
    (txn_ints db w "SELECT a.bal FROM Acct a WHERE a.id = 1");
  Alcotest.(check (list int))
    "still invisible outside" [ 100 ]
    (ints db "SELECT a.bal FROM Acct a WHERE a.id = 1");
  Db.commit_session_txn db w

(* A transaction's snapshot is captured at BEGIN: commits that land
   after it stay invisible for its whole lifetime. *)
let test_repeatable_snapshot () =
  let db = fresh_accounts () in
  let r = Db.begin_session_txn db in
  Alcotest.(check (list int))
    "first read" [ 200 ]
    (txn_ints db r "SELECT a.bal FROM Acct a WHERE a.id = 2");
  ignore (ok db "UPDATE Acct a SET bal = 201 WHERE a.id = 2");
  Alcotest.(check (list int))
    "same snapshot after a foreign commit" [ 200 ]
    (txn_ints db r "SELECT a.bal FROM Acct a WHERE a.id = 2");
  ignore (ok db "UPDATE Acct a SET bal = 202 WHERE a.id = 2");
  Alcotest.(check (list int))
    "still the capture state" [ 200 ]
    (txn_ints db r "SELECT a.bal FROM Acct a WHERE a.id = 2");
  Db.commit_session_txn db r;
  Alcotest.(check (list int))
    "fresh snapshot sees the latest" [ 202 ]
    (ints db "SELECT a.bal FROM Acct a WHERE a.id = 2")

(* Readers never touch the lock manager: a SELECT inside a concurrent
   transaction succeeds while a writer holds the extent exclusively,
   and keeps its own begin-time view across the writer's commit. *)
let test_readers_do_not_block () =
  let db = fresh_accounts () in
  let r = Db.begin_session_txn db in
  let w = Db.begin_session_txn db in
  txn_exec db w "UPDATE Acct a SET bal = 0 WHERE a.id = 1";
  Alcotest.(check (list int))
    "read under a foreign X lock" [ 100; 200 ]
    (txn_ints db r "SELECT a.bal FROM Acct a");
  Db.commit_session_txn db w;
  Alcotest.(check (list int))
    "writer's commit stays invisible" [ 100; 200 ]
    (txn_ints db r "SELECT a.bal FROM Acct a");
  Db.commit_session_txn db r;
  Alcotest.(check (list int))
    "after both: committed state" [ 0; 200 ]
    (ints db "SELECT a.bal FROM Acct a")

(* A committed delete leaves the old object readable by snapshots that
   predate it (the heap slot is gone — the chain serves the read). *)
let test_delete_visibility () =
  let db = fresh_accounts () in
  let r = Db.begin_session_txn db in
  Alcotest.(check (list int))
    "both rows at capture" [ 100; 200 ]
    (txn_ints db r "SELECT a.bal FROM Acct a");
  (match ok db "DELETE FROM Acct a WHERE a.id = 1" with
  | Db.Deleted 1 -> ()
  | _ -> Alcotest.fail "delete count");
  Alcotest.(check (list int))
    "deleted row still visible to the old snapshot" [ 100; 200 ]
    (txn_ints db r "SELECT a.bal FROM Acct a");
  Db.commit_session_txn db r;
  Alcotest.(check (list int))
    "gone for fresh snapshots" [ 200 ]
    (ints db "SELECT a.bal FROM Acct a")

(* Index postings are removed lazily (deferred below the snapshot
   horizon) and rechecked on fetch: an old snapshot's indexed lookup
   finds its capture-time rows, never rows that moved into the
   predicate after the capture. *)
let test_index_snapshot_consistency () =
  let db = Db.create () in
  ignore (ok db "CREATE CLASS Part TUPLE (k Integer, tag Integer)");
  ignore (ok db "CREATE INDEX ON Part (k)");
  ignore (ok db "new Part <1, 10>");
  ignore (ok db "new Part <2, 20>");
  let r = Db.begin_session_txn db in
  Alcotest.(check (list int))
    "k=1 at capture" [ 10 ]
    (txn_ints db r "SELECT p.tag FROM Part p WHERE p.k = 1");
  (* Swap the two rows' keys: the old posting for tag=10 under k=1 is
     deferred (still reachable), the new posting for tag=20 under k=1
     is live but its visible version fails the recheck. *)
  ignore (ok db "UPDATE Part p SET k = 2 WHERE p.tag = 10");
  ignore (ok db "UPDATE Part p SET k = 1 WHERE p.tag = 20");
  Alcotest.(check (list int))
    "k=1 still the capture-time row" [ 10 ]
    (txn_ints db r "SELECT p.tag FROM Part p WHERE p.k = 1");
  Alcotest.(check (list int))
    "k=2 likewise" [ 20 ]
    (txn_ints db r "SELECT p.tag FROM Part p WHERE p.k = 2");
  Db.commit_session_txn db r;
  Alcotest.(check (list int))
    "fresh snapshot sees the swap" [ 20 ]
    (ints db "SELECT p.tag FROM Part p WHERE p.k = 1");
  Alcotest.(check (list int))
    "both ways" [ 10 ]
    (ints db "SELECT p.tag FROM Part p WHERE p.k = 2")

(* Example 8.1 with its path terminal Company(name) indexed: the
   optimizer probes the index for the terminal, and an explicit join on
   the same edge reads the indexed side per join method. A rename that
   is not committed stays invisible to other sessions, a snapshot taken
   before it keeps its answer after the commit, and a fresh read sees
   it — the same answers as the database without the index. *)
let example_81 name =
  Printf.sprintf
    "SELECT v.id FROM Vehicle v WHERE v.company.name = '%s' AND \
     v.drivetrain.engine.cylinders = 2"
    name

let company_join name =
  Printf.sprintf "SELECT v.id FROM Vehicle v, Company c WHERE v.company = c AND c.name = '%s'" name

let vehicle_db ~indexed =
  let db = Db.create () in
  Mood_workload.Vehicle.define_schema (Db.catalog db);
  ignore (Mood_workload.Vehicle.generate ~catalog:(Db.catalog db) ~scale:0.01 ());
  (* BMW makes a two-cylinder vehicle, so Example 8.1 has an answer. *)
  (match
     rows db "SELECT v.company.name FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2"
   with
  | Value.Tuple [ (_, Value.Str name) ] :: _ ->
      ignore (ok db (Printf.sprintf "UPDATE Company c SET name = 'BMW' WHERE c.name = '%s'" name))
  | _ -> Alcotest.fail "no two-cylinder vehicle");
  if indexed then ignore (ok db "CREATE BTREE INDEX ON Company (name)");
  Db.analyze db;
  db

(* Every query, for both names, under each pointer join method forced
   on the explicit edge. *)
let bmw_answers db read =
  let methods =
    [ "FORWARD_TRAVERSAL"; "BACKWARD_TRAVERSAL"; "HASH_PARTITION"; "BINARY_JOIN_INDEX" ]
  in
  Fun.protect
    ~finally:(fun () -> ignore (ok db "SET JOIN_FORCE DEFAULT"))
    (fun () ->
      List.concat_map
        (fun m ->
          ignore (ok db ("SET JOIN_FORCE " ^ m));
          List.concat_map
            (fun name -> [ read (example_81 name); read (company_join name) ])
            [ "BMW"; "VW" ])
        methods)

let rename_scenario db =
  let before = bmw_answers db (ints db) in
  let r = Db.begin_session_txn db in
  let w = Db.begin_session_txn db in
  txn_exec db w "UPDATE Company c SET name = 'VW' WHERE c.name = 'BMW'";
  let uncommitted = bmw_answers db (ints db) in
  Db.commit_session_txn db w;
  let old_snapshot = bmw_answers db (txn_ints db r) in
  Db.commit_session_txn db r;
  let after = bmw_answers db (ints db) in
  Alcotest.(check (list (list int))) "uncommitted rename invisible" before uncommitted;
  Alcotest.(check (list (list int))) "old snapshot keeps its answers" before old_snapshot;
  (before, after)

let test_indexed_terminal_under_rename () =
  let plain = vehicle_db ~indexed:false and indexed = vehicle_db ~indexed:true in
  Alcotest.(check bool) "terminal probed through the index" true
    (Helpers.contains (Db.explain indexed (example_81 "BMW")) "INDSEL");
  let before, after = rename_scenario indexed in
  (match before with
  | bmw :: _ :: vw :: _ ->
      Alcotest.(check bool) "BMW answers before the rename" true (bmw <> []);
      Alcotest.(check (list int)) "no VW before the rename" [] vw
  | _ -> Alcotest.fail "missing answers");
  (match after with
  | bmw :: _ :: vw :: _ ->
      Alcotest.(check (list int)) "no BMW after the commit" [] bmw;
      Alcotest.(check (list int)) "VW has BMW's vehicles" (List.hd before) vw
  | _ -> Alcotest.fail "missing answers");
  let plain_before, plain_after = rename_scenario plain in
  Alcotest.(check (list (list int))) "same answers without the index, before" plain_before before;
  Alcotest.(check (list (list int))) "same answers without the index, after" plain_after after

(* Abort pops the pending versions: the chain ends where it started
   and the heap compensation is not re-tracked as a new version. *)
let test_abort_restores () =
  let db = fresh_accounts () in
  let w = Db.begin_session_txn db in
  txn_exec db w "UPDATE Acct a SET bal = 1 WHERE a.id = 1";
  txn_exec db w "DELETE FROM Acct a WHERE a.id = 2";
  Db.abort_session_txn db w;
  Alcotest.(check (list int))
    "heap restored" [ 100; 200 ]
    (ints db "SELECT a.bal FROM Acct a");
  (* A snapshot opened after the abort reads the restored state. *)
  let r = Db.begin_session_txn db in
  Alcotest.(check (list int))
    "snapshot over restored state" [ 100; 200 ]
    (txn_ints db r "SELECT a.bal FROM Acct a");
  Db.commit_session_txn db r

(* Snapshot isolation, not serializability: two transactions that read
   a cross-class invariant and write disjoint classes both commit —
   the documented write-skew anomaly. Writers conflict only through
   2PL on the extents they write. *)
let test_write_skew_permitted () =
  let db = Db.create () in
  ignore (ok db "CREATE CLASS OnCallA TUPLE (duty Integer)");
  ignore (ok db "CREATE CLASS OnCallB TUPLE (duty Integer)");
  ignore (ok db "new OnCallA <1>");
  ignore (ok db "new OnCallB <1>");
  let t1 = Db.begin_session_txn db in
  let t2 = Db.begin_session_txn db in
  (* Both read "someone is on duty" under their snapshots... *)
  Alcotest.(check (list int)) "t1 sees both on duty" [ 1; 1 ]
    (txn_ints db t1 "SELECT a.duty FROM OnCallA a"
     @ txn_ints db t1 "SELECT b.duty FROM OnCallB b");
  Alcotest.(check (list int)) "t2 sees both on duty" [ 1; 1 ]
    (txn_ints db t2 "SELECT a.duty FROM OnCallA a"
     @ txn_ints db t2 "SELECT b.duty FROM OnCallB b");
  (* ...and each takes a different one off duty: disjoint write sets,
     no lock conflict, both commits succeed. *)
  txn_exec db t1 "UPDATE OnCallA a SET duty = 0";
  txn_exec db t2 "UPDATE OnCallB b SET duty = 0";
  Db.commit_session_txn db t1;
  Db.commit_session_txn db t2;
  Alcotest.(check (list int)) "write skew committed" [ 0; 0 ]
    (ints db "SELECT a.duty FROM OnCallA a"
     @ ints db "SELECT b.duty FROM OnCallB b")

(* GC never prunes a version a live snapshot still needs, and prunes
   dead chains once the snapshot closes. *)
let test_gc_respects_open_snapshots () =
  let db = fresh_accounts () in
  let r = Db.begin_session_txn db in
  Alcotest.(check (list int)) "capture" [ 100 ]
    (txn_ints db r "SELECT a.bal FROM Acct a WHERE a.id = 1");
  for i = 1 to 5 do
    ignore
      (ok db (Printf.sprintf "UPDATE Acct a SET bal = %d WHERE a.id = 1" i))
  done;
  Db.gc_versions db;
  Alcotest.(check (list int))
    "capture survives GC" [ 100 ]
    (txn_ints db r "SELECT a.bal FROM Acct a WHERE a.id = 1");
  Db.commit_session_txn db r;
  Db.gc_versions db;
  let snap = Db.metrics_snapshot db in
  let stat name =
    match List.assoc_opt name snap with
    | Some v -> v
    | None -> Alcotest.failf "metric %s missing" name
  in
  Alcotest.(check bool) "versions were created" true (stat "mvcc.versions_created" > 0);
  Alcotest.(check bool) "versions were pruned" true (stat "mvcc.versions_pruned" > 0);
  Alcotest.(check bool) "snapshot reads counted" true (stat "mvcc.snapshot_reads" > 0);
  Alcotest.(check int) "no snapshot left open" 0 (stat "mvcc.snapshots_open");
  ignore (stat "mvcc.gc_runs");
  ignore (stat "mvcc.chain_max");
  Alcotest.(check (list int))
    "latest state after it all" [ 5 ]
    (ints db "SELECT a.bal FROM Acct a WHERE a.id = 1")

(* ------------------------------------------------------------------ *)
(* Differential oracle: randomized interleavings of writer
   transactions, reader transactions and standalone reads. The oracle
   replays committed transactions serially (per-txn pending buffers
   folded into a committed map at commit): every standalone SELECT
   must equal the committed map at that instant, every reader
   transaction must keep reading the committed map captured at its
   BEGIN. Under strict 2PL this equivalence is exactly snapshot
   isolation's contract for reads. *)

let n_keys = 6

type writer = {
  w_txn : Db.session_txn;
  mutable w_pending : (int * int) list; (* key, value — newest first *)
}

type reader = { r_txn : Db.session_txn; r_expected : int array }

let oracle_cycle ~seed =
  let db = Db.create () in
  ignore (Db.exec db "CREATE CLASS Cell TUPLE (id Integer, v Integer)");
  let committed = Array.make n_keys 0 in
  for k = 0 to n_keys - 1 do
    ignore (Db.exec db (Printf.sprintf "new Cell <%d, 0>" k))
  done;
  let rng = Prng.create ~seed in
  let writers = ref [] and readers = ref [] in
  let select_k k = Printf.sprintf "SELECT c.v FROM Cell c WHERE c.id = %d" k in
  let check_against what expected got =
    if got <> [ expected ] then
      Alcotest.failf "seed %d: %s: key read %s, oracle %d" seed what
        (String.concat "," (List.map string_of_int got))
        expected
  in
  let probe_reader r =
    let k = Prng.int rng ~bound:n_keys in
    check_against "reader snapshot" r.r_expected.(k)
      (txn_ints db r.r_txn (select_k k))
  in
  let standalone_read () =
    let k = Prng.int rng ~bound:n_keys in
    check_against "standalone read" committed.(k) (ints db (select_k k))
  in
  let writer_op w =
    let k = Prng.int rng ~bound:n_keys in
    let v = Prng.int rng ~bound:1000 in
    match
      Db.exec_in_txn db w.w_txn
        (Printf.sprintf "UPDATE Cell c SET v = %d WHERE c.id = %d" v k)
    with
    | Ok _ -> w.w_pending <- (k, v) :: w.w_pending
    | Error Db.Txn_busy -> () (* extent held by the other writer; skip *)
    | Error Db.Txn_deadlock ->
        Db.abort_session_txn db w.w_txn;
        writers := List.filter (fun x -> x != w) !writers
    | Error (Db.Txn_fail m) -> Alcotest.failf "seed %d: writer: %s" seed m
    | Error (Db.Txn_redirect _) -> Alcotest.failf "seed %d: redirected" seed
  in
  let commit_writer w =
    Db.commit_session_txn db w.w_txn;
    List.iter (fun (k, v) -> committed.(k) <- v) (List.rev w.w_pending);
    writers := List.filter (fun x -> x != w) !writers
  in
  let abort_writer w =
    Db.abort_session_txn db w.w_txn;
    writers := List.filter (fun x -> x != w) !writers
  in
  for _ = 1 to 160 do
    match Prng.int rng ~bound:10 with
    | 0 when List.length !writers < 2 ->
        writers := { w_txn = Db.begin_session_txn db; w_pending = [] } :: !writers
    | 1 when List.length !readers < 3 ->
        readers :=
          { r_txn = Db.begin_session_txn db; r_expected = Array.copy committed }
          :: !readers
    | 2 -> (
        match !writers with
        | w :: _ -> if Prng.bool rng then commit_writer w else abort_writer w
        | [] -> ())
    | 3 -> (
        match !readers with
        | r :: rest ->
            probe_reader r;
            Db.commit_session_txn db r.r_txn;
            readers := rest
        | [] -> ())
    | 4 | 5 -> standalone_read ()
    | 6 -> List.iter probe_reader !readers
    | _ -> (
        match !writers with
        | w :: _ -> writer_op w
        | [] -> standalone_read ())
  done;
  List.iter abort_writer !writers;
  List.iter probe_reader !readers;
  List.iter (fun r -> Db.commit_session_txn db r.r_txn) !readers;
  Db.gc_versions db;
  for k = 0 to n_keys - 1 do
    check_against "final state" committed.(k) (ints db (select_k k))
  done

let test_differential_oracle () =
  for seed = 1 to 5 do
    oracle_cycle ~seed
  done

(* ------------------------------------------------------------------ *)
(* Index postings across UPDATE: an unchanged key keeps exactly its one
   posting, whatever deferral the removal of the old version took. *)

let postings db ~class_name ~attr key =
  match Catalog.find_index (Db.catalog db) ~class_name ~attr with
  | Some (Catalog.Btree_index bt) -> List.length (Btree.search bt ~key:(Value.Int key))
  | Some (Catalog.Hash_index _) | None -> Alcotest.failf "no B+-tree on %s.%s" class_name attr

let indexed_accounts () =
  let db = Db.create () in
  ignore (ok db "CREATE CLASS Acct TUPLE (id Integer, bal Integer)");
  ignore (ok db "CREATE BTREE INDEX ON Acct (id)");
  for id = 1 to 20 do
    ignore (ok db (Printf.sprintf "new Acct <%d, %d>" id (100 * id)))
  done;
  Db.analyze db;
  db

let keyed_read db = ints db "SELECT a.bal FROM Acct a WHERE a.id = 7"

(* A session transaction updates a non-key attribute of a keyed row:
   the indexed read must still find it. *)
let test_update_keeps_unchanged_posting () =
  let db = indexed_accounts () in
  let w = Db.begin_session_txn db in
  txn_exec db w "UPDATE Acct a SET bal = a.bal + 1 WHERE a.id = 7";
  Db.commit_session_txn db w;
  Alcotest.(check int) "one posting under id 7" 1 (postings db ~class_name:"Acct" ~attr:"id" 7);
  Alcotest.(check (list int)) "indexed read finds the row" [ 701 ] (keyed_read db)

(* The same UPDATE standalone while a snapshot is open defers the old
   posting's removal to the snapshot's close. *)
let test_standalone_update_under_snapshot () =
  let db = indexed_accounts () in
  let r = Db.begin_session_txn db in
  ignore (ok db "UPDATE Acct a SET bal = a.bal + 1 WHERE a.id = 7");
  Alcotest.(check (list int))
    "the open snapshot reads the old balance" [ 700 ]
    (txn_ints db r "SELECT a.bal FROM Acct a WHERE a.id = 7");
  Db.commit_session_txn db r;
  Alcotest.(check int) "one posting under id 7" 1 (postings db ~class_name:"Acct" ~attr:"id" 7);
  Alcotest.(check (list int)) "indexed read finds the row" [ 701 ] (keyed_read db)

(* A key that goes A -> B -> A inside one transaction: the second move
   finds A's posting still in place (its removal is pending) and adds
   no duplicate; at commit the removals keep what the heap still has. *)
let test_key_round_trip_in_one_txn () =
  let db = indexed_accounts () in
  let w = Db.begin_session_txn db in
  txn_exec db w "UPDATE Acct a SET id = 70 WHERE a.id = 7";
  txn_exec db w "UPDATE Acct a SET id = 7 WHERE a.id = 70";
  Db.commit_session_txn db w;
  Alcotest.(check int) "one posting under id 7" 1 (postings db ~class_name:"Acct" ~attr:"id" 7);
  Alcotest.(check int) "none under id 70" 0 (postings db ~class_name:"Acct" ~attr:"id" 70);
  Alcotest.(check (list int)) "indexed read finds the row" [ 700 ] (keyed_read db)

(* A join-index edge whose reference did not change survives an UPDATE
   of another attribute. *)
let test_join_edge_kept_when_reference_unchanged () =
  let db = Db.create () in
  ignore (ok db "CREATE CLASS Maker TUPLE (name String(8))");
  ignore (ok db "CREATE CLASS Car TUPLE (maker REFERENCE (Maker), w Integer)");
  let maker =
    Db.insert db ~class_name:"Maker" (Value.Tuple [ ("name", Value.Str "BMW") ])
  in
  let car =
    Db.insert db ~class_name:"Car"
      (Value.Tuple [ ("maker", Value.Ref maker); ("w", Value.Int 1) ])
  in
  ignore (Catalog.create_join_index (Db.catalog db) ~class_name:"Car" ~attr:"maker");
  let w = Db.begin_session_txn db in
  txn_exec db w "UPDATE Car c SET w = 2";
  Db.commit_session_txn db w;
  let jx =
    match Catalog.find_join_index (Db.catalog db) ~class_name:"Car" ~attr:"maker" with
    | Some jx -> jx
    | None -> Alcotest.fail "no join index on Car.maker"
  in
  Alcotest.(check int) "one edge from the car" 1
    (List.length (Join_index.Binary.forward jx ~c:car));
  Alcotest.(check int) "one edge into the maker" 1
    (List.length (Join_index.Binary.backward jx ~d:maker))

(* A PAX class read under snapshots: one that diverges from the heap
   patches its batches (old values, rows deleted since, none inserted
   since) and agrees with the row engine; a fresh read that can see
   every committed write takes the unpatched batches. *)
let test_pax_scan_under_snapshot () =
  let db = Db.create () in
  ignore (ok db "CREATE CLASS Gauge TUPLE (id Integer, v Integer, tag String(32)) LAYOUT PAX");
  for i = 1 to 300 do
    ignore (ok db (Printf.sprintf "new Gauge <%d, %d, 'g%d'>" i (i * 10) (i mod 7)))
  done;
  let pairs values =
    List.sort compare
      (List.map
         (function
           | Value.Tuple [ (_, Value.Int id); (_, Value.Int v) ] -> (id, v)
           | v -> Alcotest.failf "unexpected row %s" (Value.to_string v))
         values)
  in
  let src = "SELECT g.id, g.v FROM Gauge g" in
  let fresh () = pairs (rows db src) in
  let in_txn txn =
    match Db.exec_in_txn db txn src with
    | Ok (Db.Rows r) -> pairs (Executor.result_values r)
    | Ok _ | Error _ -> Alcotest.failf "%S failed inside the transaction" src
  in
  let engines read =
    ignore (ok db "SET SCAN_FORCE VECTOR");
    let vector = read () in
    ignore (ok db "SET SCAN_FORCE ROW");
    let row = read () in
    Alcotest.(check (list (pair int int))) "vectorized scan = row scan" row vector;
    vector
  in
  let patched () = Mood_column.Scan_metrics.m.Mood_column.Scan_metrics.mvcc_patched in
  let pages =
    match Catalog.pax_store (Db.catalog db) "Gauge" with
    | Some ps ->
        Mood_column.Pax_store.materialize ps;
        List.length (Mood_column.Pax_store.page_images ps)
    | None -> Alcotest.fail "Gauge has no PAX segment"
  in
  Alcotest.(check bool) "several PAX pages" true (pages >= 3);
  let before = fresh () in
  let a = Db.begin_session_txn db in
  Alcotest.(check (list (pair int int))) "A at BEGIN" before (engines (fun () -> in_txn a));
  let b = Db.begin_session_txn db in
  txn_exec db b "UPDATE Gauge g SET v = g.v + 1 WHERE g.id <= 40";
  txn_exec db b "DELETE FROM Gauge g WHERE g.id > 100 AND g.id <= 130";
  txn_exec db b "new Gauge <301, 3010, 'late'>";
  txn_exec db b "new Gauge <302, 3020, 'late'>";
  Db.commit_session_txn db b;
  let after_b =
    List.sort compare
      (List.filter_map
         (fun (id, v) ->
           if id > 100 && id <= 130 then None
           else if id <= 40 then Some (id, v + 1)
           else Some (id, v))
         before
      @ [ (301, 3010); (302, 3020) ])
  in
  (* B's history stays while A's snapshot is open, but a fresh view
     sees all of it: the heap is that view, nothing is patched. *)
  let p0 = patched () in
  Alcotest.(check (list (pair int int))) "fresh read after B" after_b (engines fresh);
  Alcotest.(check int) "no row patched for a view that sees the heap" 0 (patched () - p0);
  let c = Db.begin_session_txn db in
  txn_exec db c "UPDATE Gauge g SET v = 0 WHERE g.id > 200 AND g.id <= 220";
  let p1 = patched () in
  Alcotest.(check (list (pair int int)))
    "A keeps its snapshot: old values, deleted rows, no new rows" before
    (engines (fun () -> in_txn a));
  Alcotest.(check bool) "A's scan is patched" true (patched () > p1);
  Alcotest.(check (list (pair int int)))
    "a fresh read sees B's commit, not C's pending writes" after_b (engines fresh);
  Db.commit_session_txn db a;
  Db.commit_session_txn db c

let suites =
  [ ( "mvcc.index_postings",
      [ Alcotest.test_case "update keeps an unchanged posting" `Quick
          test_update_keeps_unchanged_posting;
        Alcotest.test_case "standalone update under a snapshot" `Quick
          test_standalone_update_under_snapshot;
        Alcotest.test_case "key round trip in one txn" `Quick test_key_round_trip_in_one_txn;
        Alcotest.test_case "join edge kept when reference unchanged" `Quick
          test_join_edge_kept_when_reference_unchanged
      ] );
    ( "mvcc",
      [ Alcotest.test_case "no dirty reads" `Quick test_no_dirty_reads;
        Alcotest.test_case "read own writes" `Quick test_read_own_writes;
        Alcotest.test_case "repeatable snapshot" `Quick test_repeatable_snapshot;
        Alcotest.test_case "readers do not block" `Quick test_readers_do_not_block;
        Alcotest.test_case "delete visibility" `Quick test_delete_visibility;
        Alcotest.test_case "index snapshot consistency" `Quick
          test_index_snapshot_consistency;
        Alcotest.test_case "abort restores" `Quick test_abort_restores;
        Alcotest.test_case "write skew permitted" `Quick test_write_skew_permitted;
        Alcotest.test_case "gc respects open snapshots" `Quick
          test_gc_respects_open_snapshots;
        Alcotest.test_case "differential oracle" `Quick test_differential_oracle;
        Alcotest.test_case "indexed path terminal under a rename" `Quick
          test_indexed_terminal_under_rename;
        Alcotest.test_case "PAX scan under a snapshot" `Quick test_pax_scan_under_snapshot
      ] )
  ]
