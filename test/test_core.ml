(* Tests for the Mood.Db facade: SQL statement execution, error
   reporting, explain, transactions, scopes. *)

module Db = Mood.Db
module Executor = Mood_executor.Executor
module Catalog = Mood_catalog.Catalog
module Value = Mood_model.Value
module Oid = Mood_model.Oid
module Fm = Mood_funcmgr.Function_manager

let ok db src =
  match Db.exec db src with
  | Ok r -> r
  | Error m -> Alcotest.failf "unexpected error on %S: %s" src m

let expect_error db src =
  match Db.exec db src with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "accepted %S" src

let fresh () = Db.create ()

let test_ddl_dml_roundtrip () =
  let db = fresh () in
  (match ok db "CREATE CLASS Person TUPLE (name String(32), age Integer)" with
  | Db.Class_created "Person" -> ()
  | _ -> Alcotest.fail "wrong result");
  (match ok db "new Person <'Asuman', 50>" with
  | Db.Object_created oid -> begin
      match Catalog.get_object (Db.catalog db) oid with
      | Some v ->
          Alcotest.(check bool) "positional values" true
            (Value.tuple_get v "name" = Some (Value.Str "Asuman")
            && Value.tuple_get v "age" = Some (Value.Int 50))
      | None -> Alcotest.fail "object missing"
    end
  | _ -> Alcotest.fail "wrong result");
  ignore (ok db "new Person <'Cetin', 30>");
  (match ok db "UPDATE Person p SET age = p.age + 1 WHERE p.name = 'Cetin'" with
  | Db.Updated 1 -> ()
  | _ -> Alcotest.fail "update count");
  let r = Db.query db "SELECT p.age FROM Person p WHERE p.name = 'Cetin'" in
  Alcotest.(check bool) "updated to 31" true
    (Executor.result_values r = [ Value.Tuple [ ("p.age", Value.Int 31) ] ]);
  (match ok db "DELETE FROM Person p WHERE p.age > 40" with
  | Db.Deleted 1 -> ()
  | _ -> Alcotest.fail "delete count");
  let r = Db.query db "SELECT p FROM Person p" in
  Alcotest.(check int) "one person left" 1 (List.length r.Executor.rows)

let test_inheritance_via_sql () =
  let db = fresh () in
  ignore (ok db "CREATE CLASS Animal TUPLE (legs Integer)");
  ignore (ok db "CREATE CLASS Dog INHERITS FROM Animal TUPLE (breed String(16))");
  ignore (ok db "new Dog <4, 'kangal'>");
  let r = Db.query db "SELECT a FROM Animal a" in
  Alcotest.(check int) "IS-A inclusion" 1 (List.length r.Executor.rows)

let test_method_lifecycle_via_sql () =
  let db = fresh () in
  ignore (ok db "CREATE CLASS Box TUPLE (w Integer, h Integer)");
  ignore (ok db "DEFINE METHOD Box::area () Integer { return w * h; }");
  ignore (ok db "new Box <3, 4>");
  let r = Db.query db "SELECT b.area() FROM Box b" in
  Alcotest.(check bool) "method result" true
    (Executor.result_values r = [ Value.Tuple [ ("b.area()", Value.Int 12) ] ]);
  (* redefinition visible without restart *)
  ignore (ok db "DEFINE METHOD Box::area () Integer { return w * h * 2; }");
  let r = Db.query db "SELECT b.area() FROM Box b" in
  Alcotest.(check bool) "redefined" true
    (Executor.result_values r = [ Value.Tuple [ ("b.area()", Value.Int 24) ] ]);
  (match ok db "DROP METHOD Box::area" with
  | Db.Method_dropped ("Box", "area") -> ()
  | _ -> Alcotest.fail "drop result");
  expect_error db "SELECT b.area() FROM Box b"

let test_error_reporting_keeps_server_alive () =
  let db = fresh () in
  expect_error db "SELEKT x";
  expect_error db "SELECT v FROM Missing v";
  expect_error db "CREATE CLASS Broken TUPLE (r REFERENCE (Nowhere))";
  ignore (ok db "CREATE CLASS Ok TUPLE (x Integer)");
  expect_error db "CREATE CLASS Ok TUPLE (x Integer)";
  expect_error db "new Ok <1, 2, 3>";
  (* run-time error in a method body is reported, not fatal *)
  ignore (ok db "DEFINE METHOD Ok::bad () Integer { return x / 0; }");
  ignore (ok db "new Ok <0>");
  expect_error db "SELECT o.bad() FROM Ok o";
  (* the kernel is still serving *)
  ignore (ok db "SELECT o FROM Ok o")

let test_explain_contains_dictionaries () =
  let db = fresh () in
  Mood_workload.Vehicle.define_schema (Db.catalog db);
  Db.set_stats db (Mood_workload.Vehicle.paper_stats ());
  let text = Db.explain db Mood_workload.Vehicle.example_81 in
  List.iter
    (fun needle -> Alcotest.(check bool) (needle ^ " present") true (Helpers.contains text needle))
    [ "HASH_PARTITION"; "FORWARD_TRAVERSAL"; "PathSelInfo"; "ImmSelInfo"; "estimated cost" ];
  (* an unclassifiable predicate lands in OtherSelInfo (Section 7) *)
  let text2 = Db.explain db "SELECT v FROM Vehicle v WHERE v.weight + 1 = 4" in
  Alcotest.(check bool) "OtherSelInfo present" true (Helpers.contains text2 "OtherSelInfo")

(* CREATE INDEX over MOODSQL registers the new B+-tree in the live
   statistics: on the REPL demo database, Example 8.1's terminal
   selection probes it without another ANALYZE. *)
let test_create_index_feeds_statistics () =
  let db = fresh () in
  Mood_workload.Vehicle.define_schema (Db.catalog db);
  ignore (Mood_workload.Vehicle.generate ~catalog:(Db.catalog db) ~scale:0.01 ());
  Db.analyze db;
  (* The plan text with layout whitespace squeezed out. *)
  let plan () =
    String.concat ""
      (String.split_on_char ' '
         (String.concat "" (String.split_on_char '\n' (Db.explain db Mood_workload.Vehicle.example_81))))
  in
  let probe = "INDSEL(BIND(Company,c)" in
  Alcotest.(check bool) "no index, no INDSEL" false (Helpers.contains (plan ()) probe);
  ignore (ok db "CREATE BTREE INDEX ON Company (name)");
  Alcotest.(check bool) "the new index is probed" true (Helpers.contains (plan ()) probe)

(* One statement inside session transaction [s], which must succeed. *)
let ok_in db s src =
  match Db.exec_in_txn db s src with
  | Ok r -> r
  | Error _ -> Alcotest.failf "unexpected error on %S in a transaction" src

let acc_values db =
  Executor.result_values (Db.query db "SELECT a.n FROM Acc a")
  |> List.concat_map (function Value.Tuple [ (_, Value.Int n) ] -> [ n ] | _ -> [])
  |> List.sort Int.compare

let test_transaction_commit_and_abort () =
  let db = fresh () in
  ignore (ok db "CREATE CLASS Acc TUPLE (n Integer)");
  (* committed work survives *)
  let s = Db.begin_session_txn db in
  ignore (ok_in db s "new Acc <1>");
  Db.commit_session_txn db s;
  Alcotest.(check (list int)) "committed" [ 1 ] (acc_values db);
  (* aborted work is compensated *)
  let s = Db.begin_session_txn db in
  ignore (ok_in db s "new Acc <2>");
  ignore (ok_in db s "UPDATE Acc a SET n = 10 WHERE a.n = 1");
  Db.abort_session_txn db s;
  Alcotest.(check (list int)) "rolled back" [ 1 ] (acc_values db)

let test_checkpoint_and_recover () =
  let db = fresh () in
  ignore (ok db "CREATE CLASS Acc TUPLE (n Integer)");
  let add s n = ignore (ok_in db s (Printf.sprintf "new Acc <%d>" n)) in
  let committed n =
    let s = Db.begin_session_txn db in
    add s n;
    Db.commit_session_txn db s
  in
  (* n=1 commits before the checkpoint: it lives in the base image. *)
  committed 1;
  (* n=4 is in flight while the checkpoint is taken (steal: the image
     holds its uncommitted insert and lists it as active), then the
     transaction aborts — a loser whose image effects must be undone. *)
  let loser = Db.begin_session_txn db in
  add loser 4;
  Alcotest.(check (list int)) "active table" [ Db.session_txn_id loser ]
    (Db.active_transactions db);
  Db.checkpoint db;
  Db.abort_session_txn db loser;
  (* n=2 commits after the checkpoint: redo must replay it. *)
  committed 2;
  (* n=99 is a [Db.exec] write, a logged transaction of its own. *)
  ignore (ok db "new Acc <99>");
  (* n=50 is bulk-loaded: unlogged, durable only from the next
     checkpoint. *)
  ignore (Db.insert db ~class_name:"Acc" (Value.Tuple [ ("n", Value.Int 50) ]));
  let analysis = Db.recover db in
  Alcotest.(check bool) "a loser was found" true
    (Hashtbl.length analysis.Mood_storage.Wal.a_losers > 0);
  Alcotest.(check (list int)) "committed survive, loser and bulk load gone"
    [ 1; 2; 99 ] (acc_values db)

(* The PAX segment is derived and volatile: [Db.recover] rebuilds every
   extent from the checkpoint image and the log, and the pages a scan
   cached before it must not survive. After it, the vectorized scan
   answers what the row scan does, and every page holds what a fresh
   build from the heap gives. *)
let test_pax_rebuilt_after_recover () =
  let db = fresh () in
  ignore (ok db "CREATE CLASS Meter TUPLE (k Integer, tag String(8), w Float) LAYOUT PAX");
  for k = 1 to 600 do
    ignore (ok db (Printf.sprintf "new Meter <%d, 't%d', %d.5>" k (k mod 3) (k mod 7)))
  done;
  Db.checkpoint db;
  ignore (ok db "new Meter <601, 'late', 1.5>");
  ignore (ok db "UPDATE Meter m SET w = 9.5 WHERE m.k <= 40");
  ignore (ok db "DELETE FROM Meter m WHERE m.k > 300 AND m.k <= 330");
  let loser = Db.begin_session_txn db in
  ignore (ok_in db loser "UPDATE Meter m SET tag = 'lost' WHERE m.k > 500");
  ignore (ok_in db loser "new Meter <602, 'lost', 2.5>");
  ignore (ok db "SET SCAN_FORCE VECTOR");
  ignore (Db.query db "SELECT COUNT(*) FROM Meter m WHERE m.w > 1.0");
  ignore (ok db "SET SCAN_FORCE DEFAULT");
  ignore (Db.recover db);
  let count src =
    match Executor.result_values (Db.query db src) with
    | [ Value.Tuple [ (_, Value.Int n) ] ] -> n
    | _ -> Alcotest.failf "%S: not one count" src
  in
  Alcotest.(check int) "winners kept, loser gone" 571 (count "SELECT COUNT(*) FROM Meter m");
  Helpers.pax_matches_heap db ~cls:"Meter"
    [ "SELECT m.k, m.tag, m.w FROM Meter m WHERE m.w > 5.0";
      "SELECT m.tag, COUNT(*), SUM(m.k) FROM Meter m GROUP BY m.tag";
      "SELECT COUNT(*) FROM Meter m WHERE m.tag = 'lost'"
    ]

(* What a crash leaves: dirty frames and the unforced log tail are
   gone, then [Db.recover] runs. *)
let crash db =
  let st = Db.store db in
  ignore (Mood_storage.Buffer_pool.crash (Mood_storage.Store.buffer st));
  ignore (Mood_storage.Wal.lose_unpersisted (Mood_storage.Store.wal st));
  ignore (Db.recover db)

(* An acknowledged [Db.exec] write is a committed, forced transaction:
   it survives a crash after the checkpoint. *)
let test_exec_writes_survive_recover () =
  let db = fresh () in
  ignore (ok db "CREATE CLASS Acc TUPLE (n Integer)");
  Db.checkpoint db;
  ignore (ok db "new Acc <7>");
  ignore (ok db "UPDATE Acc a SET n = 8");
  crash db;
  Alcotest.(check (list int)) "insert and update redone" [ 8 ] (acc_values db)

(* A [Db.exec] UPDATE that fails midway aborts: the objects it updated
   before the failure, and their index postings, are put back. *)
let test_failed_exec_write_rolls_back () =
  let db = fresh () in
  ignore (ok db "CREATE CLASS Acc TUPLE (n Integer)");
  ignore (ok db "CREATE HASH INDEX ON Acc (n)");
  List.iter (fun n -> ignore (ok db (Printf.sprintf "new Acc <%d>" n))) [ 1; 2; 3; 4 ];
  expect_error db "UPDATE Acc a SET n = 100 / (a.n - 3)";
  Alcotest.(check (list int)) "no partial effect" [ 1; 2; 3; 4 ] (acc_values db);
  Alcotest.(check (list string)) "indexes follow" []
    (Catalog.validate_indexes (Db.catalog db));
  Alcotest.(check (list int)) "nothing left open" [] (Db.active_transactions db)

(* A [Db.exec] write refused by another transaction's lock aborts its
   own transaction: nothing stays open, locked or waiting. *)
let test_refused_exec_write_cleans_up () =
  let module Lock = Mood_storage.Lock_manager in
  let db = fresh () in
  ignore (ok db "CREATE CLASS Acc TUPLE (n Integer)");
  ignore (ok db "new Acc <1>");
  let locks = Mood_storage.Store.locks (Db.store db) in
  let admin = Lock.begin_txn locks in
  Alcotest.(check bool) "admin lock" true (Lock.acquire locks admin "extent:Acc" = Lock.Granted);
  expect_error db "UPDATE Acc a SET n = 2";
  Alcotest.(check (list int)) "no open transaction" [] (Db.active_transactions db);
  Alcotest.(check int) "only the blocker's lock transaction" 1 (Lock.active_transactions locks);
  (match List.rev (Mood_storage.Wal.records (Mood_storage.Store.wal (Db.store db))) with
  | Mood_storage.Wal.Abort _ :: _ -> ()
  | _ -> Alcotest.fail "the refused write's transaction did not log its abort");
  Lock.release_all locks admin;
  Alcotest.(check int) "no lock held" 0 (Lock.resource_count locks);
  ignore (ok db "UPDATE Acc a SET n = 2");
  Alcotest.(check (list int)) "the retry went through" [ 2 ] (acc_values db)

(* The one function that puts a logged image back: for an INSERT, an
   UPDATE and a DELETE record, undo twice equals undo once and leaves
   the before state, and redo then undo gives the after state, then the
   before state again. With [~reindex:true] the indexes follow each
   step. *)
let prop_put_image_round_trip =
  QCheck.Test.make ~name:"put_image: undo is idempotent, redo then undo restores" ~count:60
    QCheck.(pair (list_of_size Gen.(1 -- 6) small_nat) (pair (int_bound 2) small_nat))
    (fun (ns, (kind, v)) ->
      let ns = List.sort_uniq Int.compare ns in
      let db = fresh () in
      ignore (ok db "CREATE CLASS Acc TUPLE (n Integer)");
      ignore (ok db "CREATE HASH INDEX ON Acc (n)");
      List.iter (fun n -> ignore (ok db (Printf.sprintf "new Acc <%d>" n))) ns;
      let target = List.hd ns in
      let image () = List.assoc "Acc" (Db.snapshot db) in
      let before = image () in
      ignore
        (ok db
           (match kind with
           | 0 -> Printf.sprintf "new Acc <%d>" v
           | 1 -> Printf.sprintf "UPDATE Acc a SET n = %d WHERE a.n = %d" v target
           | _ -> Printf.sprintf "DELETE FROM Acc a WHERE a.n = %d" target));
      let after = image () in
      let record =
        List.find
          (function
            | Mood_storage.Wal.Insert _ | Mood_storage.Wal.Update _ | Mood_storage.Wal.Delete _ ->
                true
            | _ -> false)
          (List.rev (Mood_storage.Wal.records (Mood_storage.Store.wal (Db.store db))))
      in
      let put img =
        Catalog.put_image (Db.catalog db) ~reindex:true img record;
        Catalog.validate_indexes (Db.catalog db) = []
      in
      let undone = put Catalog.Before in
      let once = image () in
      let undone_twice = put Catalog.Before in
      let twice = image () in
      let redone = put Catalog.After in
      let redo_image = image () in
      let undone_again = put Catalog.Before in
      undone && undone_twice && redone && undone_again && once = before && twice = once
      && redo_image = after
      && image () = before)

(* Db.recover starts from what the crash left: the locks and snapshots
   of the sessions that died are gone, and an in-doubt transaction
   re-takes its extent lock and gives it back at its decision. *)
let test_recover_forgets_crashed_sessions () =
  let setup () =
    let db = fresh () in
    ignore (ok db "CREATE CLASS Acc TUPLE (n Integer)");
    ignore (ok db "CREATE HASH INDEX ON Acc (n)");
    db
  in
  (* One statement in its own session transaction: committed when
     granted, [false] when not. *)
  let write db stmt =
    let s = Db.begin_session_txn db in
    match Db.exec_in_txn db s stmt with
    | Ok _ ->
        Db.commit_session_txn db s;
        true
    | Error _ ->
        Db.abort_session_txn db s;
        false
  in
  let db = setup () in
  Alcotest.(check bool) "committed write" true (write db "new Acc <1>");
  let crashed = Db.begin_session_txn db in
  ignore (Db.exec_in_txn db crashed "new Acc <2>");
  crash db;
  Alcotest.(check bool) "write after restart" true
    (write db "UPDATE Acc a SET n = 3 WHERE a.n = 1");
  Alcotest.(check (list string)) "superseded posting removed" []
    (Catalog.validate_indexes (Db.catalog db));
  let db = setup () in
  let prepared = Db.begin_session_txn db in
  ignore (Db.exec_in_txn db prepared "new Acc <1>");
  (match Db.prepare_session_txn db prepared ~gid:7 with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  crash db;
  Alcotest.(check (list int)) "in doubt" [ 7 ] (List.map fst (Db.indoubt_txns db));
  Alcotest.(check bool) "in doubt, the extent stays locked" false (write db "new Acc <2>");
  ignore (Db.decide_txn db ~gid:7 ~commit:true);
  Alcotest.(check bool) "write after the decision" true (write db "new Acc <2>")

let test_scope_controls_function_cache () =
  let db = fresh () in
  ignore (ok db "CREATE CLASS S TUPLE (x Integer)");
  ignore (ok db "DEFINE METHOD S::f () Integer { return x; }");
  ignore (ok db "new S <1>");
  ignore (Db.query db "SELECT s.f() FROM S s");
  let cached_before = Fm.cached (Db.scope db) in
  Alcotest.(check bool) "function cached in session scope" true (cached_before > 0);
  Db.new_scope db;
  Alcotest.(check int) "fresh scope empty" 0 (Fm.cached (Db.scope db))

let test_analyze_and_io_measurement () =
  let db = fresh () in
  Mood_workload.Vehicle.define_schema (Db.catalog db);
  ignore (Mood_workload.Vehicle.generate ~catalog:(Db.catalog db) ~scale:0.005 ());
  Db.analyze db;
  Alcotest.(check bool) "analyze resets the ledger" true (Db.io_elapsed db = 0.);
  Mood_storage.Store.drop_cache (Db.store db);
  ignore (Db.query db "SELECT v FROM Vehicle v WHERE v.weight > 0");
  Alcotest.(check bool) "cold query charges I/O" true (Db.io_elapsed db > 0.)

let test_named_objects_via_sql () =
  let db = fresh () in
  ignore (ok db "CREATE CLASS City TUPLE (name String(24), population Integer)");
  ignore (ok db "new City <'Ankara', 5000000>");
  ignore (ok db "new City <'Kars', 70000>");
  (match ok db "NAME capital AS SELECT c FROM City c WHERE c.name = 'Ankara'" with
  | Db.Object_named ("capital", _) -> ()
  | _ -> Alcotest.fail "naming result");
  (* range over the named object *)
  let r = Db.query db "SELECT x.population FROM NAMED capital x" in
  Alcotest.(check bool) "one row, capital's population" true
    (Executor.result_values r = [ Value.Tuple [ ("x.population", Value.Int 5000000) ] ]);
  (* predicates apply to the single object *)
  let r2 = Db.query db "SELECT x FROM NAMED capital x WHERE x.population < 100" in
  Alcotest.(check int) "filtered out" 0 (List.length r2.Executor.rows);
  (* a named object joins with a class extent *)
  let r3 =
    Db.query db
      "SELECT c.name FROM NAMED capital x, City c WHERE c.population < x.population"
  in
  Alcotest.(check int) "join with extent" 1 (List.length r3.Executor.rows);
  (* errors *)
  expect_error db "NAME capital AS SELECT c FROM City c WHERE c.name = 'Kars'";
  expect_error db "NAME many AS SELECT c FROM City c";
  expect_error db "NAME none AS SELECT c FROM City c WHERE c.population = 1";
  expect_error db "SELECT x FROM NAMED nosuch x";
  (match ok db "DROP NAME capital" with
  | Db.Name_dropped "capital" -> ()
  | _ -> Alcotest.fail "drop result");
  expect_error db "SELECT x FROM NAMED capital x"

let test_snapshot_restore () =
  let db = fresh () in
  Mood_workload.Vehicle.define_schema (Db.catalog db);
  ignore (Mood_workload.Vehicle.generate ~catalog:(Db.catalog db) ~scale:0.005 ());
  ignore (ok db "CREATE BTREE INDEX ON VehicleEngine (cylinders)");
  ignore (ok db "NAME flagship AS SELECT v FROM Vehicle v WHERE v.id = 0");
  Db.analyze db;
  let count src = List.length (Db.query db src).Executor.rows in
  let before = count "SELECT v FROM Vehicle v" in
  let cyl2_before = count "SELECT e FROM VehicleEngine e WHERE e.cylinders = 2" in
  let snap = Db.snapshot db in
  (* mutate heavily *)
  ignore (ok db "DELETE FROM Vehicle v WHERE v.id < 50");
  ignore (ok db "UPDATE VehicleEngine e SET cylinders = 4 WHERE e.cylinders = 2");
  ignore (ok db "DROP NAME flagship");
  Alcotest.(check bool) "mutated" true (count "SELECT v FROM Vehicle v" < before);
  (* restore: data, indexes and names all return *)
  Db.restore db snap;
  Alcotest.(check int) "vehicles restored" before (count "SELECT v FROM Vehicle v");
  Alcotest.(check int) "indexed query restored" cyl2_before
    (count "SELECT e FROM VehicleEngine e WHERE e.cylinders = 2");
  Alcotest.(check int) "named object restored" 1 (count "SELECT x FROM NAMED flagship x");
  (* references across restored extents still resolve *)
  Alcotest.(check bool) "paths still navigate" true
    (count "SELECT v FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2" > 0)

let test_schema_dump_roundtrip () =
  let db = fresh () in
  Mood_workload.Vehicle.define_schema (Db.catalog db);
  ignore (ok db "DEFINE METHOD Vehicle::lbweight () Integer { return weight * 2; }");
  ignore (ok db "DEFINE METHOD Employee::greet (who String(16)) Boolean { return who == name; }");
  ignore (ok db "CREATE BTREE INDEX ON Employee (age)");
  let script = Db.dump_schema db in
  (* replay into a fresh database *)
  let db2 = fresh () in
  (match Db.exec_script db2 script with
  | Ok results -> Alcotest.(check bool) "statements ran" true (List.length results > 5)
  | Error m -> Alcotest.failf "replay failed: %s" m);
  (* same classes, same attributes, same methods, index works *)
  let classes d =
    List.map (fun (i : Catalog.class_info) -> i.Catalog.class_name)
      (Catalog.all_classes (Db.catalog d))
  in
  Alcotest.(check (list string)) "classes" (classes db) (classes db2);
  Alcotest.(check bool) "inherited attrs" true
    (Catalog.attributes (Db.catalog db2) "JapaneseAuto"
    = Catalog.attributes (Db.catalog db) "JapaneseAuto");
  ignore (ok db2 "new Vehicle <1, 700, NULL, NULL>");
  let r = Db.query db2 "SELECT v.lbweight() FROM Vehicle v" in
  Alcotest.(check bool) "method body replayed" true
    (Executor.result_values r = [ Value.Tuple [ ("v.lbweight()", Value.Int 1400) ] ]);
  Alcotest.(check bool) "index replayed" true
    (Catalog.find_index (Db.catalog db2) ~class_name:"Employee" ~attr:"age" <> None)

let test_exec_script_stops_at_error () =
  let db = fresh () in
  match
    Db.exec_script db
      "CREATE CLASS A TUPLE (x Integer); BROKEN STATEMENT; CREATE CLASS B TUPLE (y Integer)"
  with
  | Error m ->
      Alcotest.(check bool) "error names the statement" true (String.length m > 0);
      Alcotest.(check bool) "A created" true (Catalog.find_class (Db.catalog db) "A" <> None);
      Alcotest.(check bool) "B not created" true (Catalog.find_class (Db.catalog db) "B" = None)
  | Ok _ -> Alcotest.fail "script error swallowed"

let test_is_null_execution () =
  let db = fresh () in
  Mood_workload.Vehicle.define_schema (Db.catalog db);
  ignore (ok db "new Employee <NULL, 'anon', 30>");
  ignore (ok db "new Employee <7, 'known', 40>");
  let count src = List.length (Db.query db src).Executor.rows in
  Alcotest.(check int) "IS NULL" 1 (count "SELECT e FROM Employee e WHERE e.ssno IS NULL");
  Alcotest.(check int) "IS NOT NULL" 1
    (count "SELECT e FROM Employee e WHERE e.ssno IS NOT NULL");
  Alcotest.(check int) "NOT (IS NULL)" 1
    (count "SELECT e FROM Employee e WHERE NOT (e.ssno IS NULL)");
  (* comparisons against NULL attributes are false either way *)
  Alcotest.(check int) "null never compares" 1
    (count "SELECT e FROM Employee e WHERE e.ssno = 7 OR e.ssno <> 7")

let test_statement_level_locking () =
  let db = fresh () in
  Mood_workload.Vehicle.define_schema (Db.catalog db);
  ignore (ok db "new Vehicle <1, 1000, NULL, NULL>");
  (* Writers lock; a read takes no lock and answers from its snapshot
     under every lock below. *)
  let reads () =
    Alcotest.(check int) "SELECT answers" 1
      (List.length (Db.query db "SELECT v FROM Vehicle v").Executor.rows)
  in
  (* an administrative exclusive lock on the extent blocks writers *)
  let locks = Mood_storage.Store.locks (Db.store db) in
  let admin = Mood_storage.Lock_manager.begin_txn locks in
  Alcotest.(check bool) "admin lock" true
    (Mood_storage.Lock_manager.acquire locks admin "extent:Vehicle"
    = Mood_storage.Lock_manager.Granted);
  reads ();
  expect_error db "UPDATE Vehicle v SET weight = 1 WHERE v.id = 1";
  expect_error db "DELETE FROM Vehicle v WHERE v.id = 1";
  (* a subclass extent lock blocks deep writes on the superclass *)
  Mood_storage.Lock_manager.release_all locks admin;
  let sub = Mood_storage.Lock_manager.begin_txn locks in
  ignore (Mood_storage.Lock_manager.acquire locks sub "extent:JapaneseAuto");
  reads ();
  expect_error db "UPDATE Vehicle v SET weight = 1 WHERE v.id = 1";
  expect_error db "DELETE FROM Vehicle v WHERE v.id = 1";
  Mood_storage.Lock_manager.release_all locks sub;
  ignore (ok db "UPDATE Vehicle v SET weight = 1 WHERE v.id = 1")

let test_query_rejects_non_select () =
  let db = fresh () in
  match Db.query db "CREATE CLASS Zed TUPLE (x Integer)" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "query accepted DDL"

(* Two databases in one process: SET on one changes neither the plans
   nor the STATS of the other, and a join on one counts only in its own
   registry. The join selects [d] itself, so its build entries hold
   whole Dept objects, more than A's 2,048-byte budget. *)
let twin_db () =
  let db = fresh () in
  ignore (ok db "CREATE CLASS Emp TUPLE (dept Integer, pad String(32)) LAYOUT PAX");
  ignore (ok db "CREATE CLASS Dept TUPLE (id Integer, name String(16))");
  for i = 1 to 300 do
    ignore (ok db (Printf.sprintf "new Emp <%d, 'emp-%026d'>" (i mod 20) i))
  done;
  for i = 0 to 19 do
    ignore (ok db (Printf.sprintf "new Dept <%d, 'dept-%d'>" i i))
  done;
  Db.analyze db;
  db

let test_two_dbs_keep_their_settings () =
  let a = twin_db () and b = twin_db () in
  let join = "SELECT e, d FROM Emp e, Dept d WHERE e.dept = d.id" in
  let scan = "SELECT COUNT(*) FROM Emp e WHERE e.dept > 3" in
  let stat db name = List.assoc name (Db.metrics_snapshot db) in
  let b_join = Db.explain b join and b_scan = Db.explain b scan in
  Alcotest.(check bool) "B costs the join: not sort-merge" false
    (Helpers.contains b_join "SORT_MERGE");
  Alcotest.(check bool) "B scans its PAX class with a VSCAN" true (Helpers.contains b_scan "VSCAN");
  List.iter
    (fun s -> ignore (ok a s))
    [ "SET JOIN_FORCE SORT_MERGE"; "SET JOIN_MEM 2048"; "SET SCAN_FORCE ROW" ];
  Alcotest.(check bool) "A runs the forced sort-merge" true
    (Helpers.contains (Db.explain a join) "SORT_MERGE");
  Alcotest.(check bool) "A scans rows" false (Helpers.contains (Db.explain a scan) "VSCAN");
  Alcotest.(check int) "A's budget" 2048 (stat a "join.mem_bytes");
  Alcotest.(check string) "B's join plan is unchanged" b_join (Db.explain b join);
  Alcotest.(check string) "B's scan plan is unchanged" b_scan (Db.explain b scan);
  Alcotest.(check int) "B's budget is the default" 262144 (stat b "join.mem_bytes");
  ignore (ok a "SET JOIN_FORCE GRACE_HASH");
  let rows db = List.length (Executor.result_values (Db.query db join)) in
  Alcotest.(check int) "both answer alike" (rows b) (rows a);
  Alcotest.(check bool) "A's Grace join spilled" true (stat a "join.partitions_spilled" > 0);
  Alcotest.(check int) "B spilled nothing" 0 (stat b "join.partitions_spilled")

(* ---------------- plan cache ---------------- *)

module Plan_cache = Mood.Plan_cache

let item_db () =
  let db = fresh () in
  ignore (ok db "CREATE CLASS Item TUPLE (n Integer)");
  ignore (ok db "new Item <1>");
  ignore (ok db "new Item <2>");
  db

let test_plan_cache_hits_and_dml () =
  let db = item_db () in
  let q = "SELECT i FROM Item i WHERE i.n > 0" in
  Alcotest.(check int) "2 rows" 2 (List.length (Db.query db q).Executor.rows);
  let s1 = Db.plan_cache_stats db in
  Alcotest.(check int) "one entry" 1 s1.Plan_cache.entries;
  Alcotest.(check int) "no hit yet" 0 s1.Plan_cache.hits;
  ignore (Db.query db q);
  (* normalization: re-spelled whitespace shares the slot *)
  ignore (Db.query db "SELECT i   FROM Item i\n  WHERE i.n > 0");
  let s2 = Db.plan_cache_stats db in
  Alcotest.(check int) "two hits" 2 s2.Plan_cache.hits;
  Alcotest.(check int) "still one entry" 1 s2.Plan_cache.entries;
  (* DML never invalidates: the cached plan re-reads the extent *)
  ignore (ok db "new Item <3>");
  Alcotest.(check int) "sees new object" 3 (List.length (Db.query db q).Executor.rows);
  let s3 = Db.plan_cache_stats db in
  Alcotest.(check int) "hit after DML" 3 s3.Plan_cache.hits;
  Alcotest.(check int) "no invalidation from DML" 0 s3.Plan_cache.invalidations;
  (* ~cache:false bypasses the cache entirely *)
  ignore (Db.query ~cache:false db q);
  let s4 = Db.plan_cache_stats db in
  Alcotest.(check int) "bypass does not hit" 3 s4.Plan_cache.hits;
  Alcotest.(check int) "bypass does not miss" s3.Plan_cache.misses s4.Plan_cache.misses

let test_plan_cache_invalidation () =
  let db = item_db () in
  let q = "SELECT i FROM Item i WHERE i.n > 0" in
  let warm () = ignore (Db.query db q) in
  let stale () = (Db.plan_cache_stats db).Plan_cache.stale_purges in
  warm ();
  let e0 = Db.plan_epoch db in
  (* CREATE INDEX: a new access path must be replanned into. The stale
     plan is purged eagerly at the next statement, before any lookup
     could even reject it. *)
  (match ok db "CREATE INDEX ON Item (n)" with
  | Db.Index_created ("Item", "n") -> ()
  | _ -> Alcotest.fail "index result");
  Alcotest.(check bool) "epoch advanced" true (Db.plan_epoch db > e0);
  warm ();
  Alcotest.(check int) "create index purges the stale plan" 1 (stale ());
  Alcotest.(check int) "purged before lookup: lazy invalidation never fires" 0
    (Db.plan_cache_stats db).Plan_cache.invalidations;
  (* DROP INDEX (programmatic) *)
  Alcotest.(check bool) "drop index" true
    (Catalog.drop_index (Db.catalog db) ~class_name:"Item" ~attr:"n");
  warm ();
  Alcotest.(check int) "drop index purges" 2 (stale ());
  (* schema DDL *)
  ignore (ok db "CREATE CLASS Extra TUPLE (x Integer)");
  warm ();
  Alcotest.(check int) "DDL purges" 3 (stale ());
  (* fresh statistics change plan choices: analyze purges immediately,
     without waiting for the next statement *)
  Db.analyze db;
  Alcotest.(check int) "analyze purges eagerly" 4 (stale ());
  warm ();
  Alcotest.(check int) "nothing left to purge at the next statement" 4 (stale ());
  (* and the replanned entries still answer correctly *)
  Alcotest.(check int) "2 rows" 2 (List.length (Db.query db q).Executor.rows)

let test_normalize_token_aware () =
  let n = Plan_cache.normalize in
  (* inter-token whitespace collapses, leading/trailing trims *)
  Alcotest.(check string) "collapse" "SELECT i FROM Item i"
    (n "  SELECT   i\n\tFROM  Item i  ");
  (* string literals are verbatim: internal whitespace is meaning *)
  Alcotest.(check bool) "literal spaces distinct" false
    (n "SELECT c FROM Co c WHERE c.name = 'a  b'"
    = n "SELECT c FROM Co c WHERE c.name = 'a b'");
  Alcotest.(check string) "literal untouched" "WHERE c.name = 'a  b'"
    (n "WHERE   c.name =\n'a  b'");
  (* '' escapes keep the scanner inside the literal *)
  Alcotest.(check string) "quote escape" "x = 'it''s  ok' AND y"
    (n "x = 'it''s  ok'   AND  y");
  (* -- comments are stripped whole, like the lexer *)
  Alcotest.(check string) "comment stripped" "SELECT x FROM t"
    (n "SELECT x -- c\nFROM t");
  Alcotest.(check string) "leading comment" "SELECT x FROM t"
    (n "-- header\nSELECT x FROM t");
  (* a comment swallowing the line tail must NOT share a key with the
     multi-line spelling: the former is a parse error *)
  Alcotest.(check bool) "comment tail distinct" false
    (n "SELECT x -- c\nFROM t" = n "SELECT x -- c FROM t");
  (* -- inside a literal is text, not a comment *)
  Alcotest.(check string) "dashes in literal" "x = '--not  a comment'"
    (n "x =  '--not  a comment'")

let test_plan_cache_string_literals_and_comments () =
  let db = fresh () in
  ignore (ok db "CREATE CLASS Co TUPLE (name String)");
  ignore (ok db "new Co <'a  b'>");
  ignore (ok db "new Co <'a b'>");
  let count q = List.length (Db.query db q).Executor.rows in
  (* two queries differing only inside a literal must not share a plan *)
  Alcotest.(check int) "double space" 1
    (count "SELECT c FROM Co c WHERE c.name = 'a  b'");
  Alcotest.(check int) "single space" 1
    (count "SELECT c FROM Co c WHERE c.name = 'a b'");
  Alcotest.(check int) "two entries" 2 (Db.plan_cache_stats db).Plan_cache.entries;
  (* a SELECT behind a leading comment still probes (and warms) the cache *)
  let commented = "-- dashboard query\nSELECT c FROM Co c WHERE c.name = 'a b'" in
  let h0 = (Db.plan_cache_stats db).Plan_cache.hits in
  Alcotest.(check int) "commented select" 1 (count commented);
  Alcotest.(check int) "comment shares slot" (h0 + 1)
    (Db.plan_cache_stats db).Plan_cache.hits;
  (* commented-out tail stays a parse error even with a warm cache *)
  (match Db.exec db "SELECT c -- x\nFROM Co c" with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "multi-line comment should parse: %s" m);
  match Db.exec db "SELECT c -- x FROM Co c" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "comment-swallowed tail must not reuse the cached plan"

let test_plan_cache_capacity_eviction () =
  let db = Db.create ~plan_cache_capacity:2 () in
  ignore (ok db "CREATE CLASS Item TUPLE (n Integer)");
  ignore (ok db "new Item <1>");
  ignore (Db.query db "SELECT i FROM Item i");
  ignore (Db.query db "SELECT i FROM Item i WHERE i.n > 0");
  ignore (Db.query db "SELECT i FROM Item i WHERE i.n < 9");
  let s = Db.plan_cache_stats db in
  Alcotest.(check int) "bounded" 2 s.Plan_cache.entries;
  Alcotest.(check int) "one eviction" 1 s.Plan_cache.evictions;
  (* the evicted (least recent) query recompiles, the recent one hits *)
  ignore (Db.query db "SELECT i FROM Item i WHERE i.n < 9");
  Alcotest.(check int) "recent entry hits" (s.Plan_cache.hits + 1)
    (Db.plan_cache_stats db).Plan_cache.hits

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE, the slow-query log and statement metrics           *)

let snap_value db name =
  match List.assoc_opt name (Db.metrics_snapshot db) with
  | Some v -> v
  | None -> Alcotest.failf "metrics snapshot is missing %s" name

let analyze_db () =
  let db = fresh () in
  ignore (ok db "CREATE CLASS Item TUPLE (n Integer)");
  List.iter
    (fun i -> ignore (ok db (Printf.sprintf "new Item <%d>" i)))
    [ 1; 2; 3; 4 ];
  Db.analyze db;
  db

(* Hand-counted oracle: 4 Items with n = 1..4 and collected statistics
   (dist 4, min 1, max 4). [n > 2] estimates (4-2)/(4-1) * 4 = 8/3 and
   actually yields 2 rows; the BIND below it estimates and produces all
   4. Reports come back pre-order. *)
let test_explain_analyze_oracle () =
  let db = analyze_db () in
  let result, reports = Db.analyze_query db "SELECT i FROM Item i WHERE i.n > 2" in
  Alcotest.(check int) "query yields 2 rows" 2 (List.length result.Executor.rows);
  Alcotest.(check (list string))
    "pre-order operator labels"
    [ "PROJECT"; "SELECT(i.n > 2)"; "BIND(Item, i)" ]
    (List.map (fun r -> r.Executor.r_label) reports);
  Alcotest.(check (list int)) "depths" [ 0; 1; 2 ]
    (List.map (fun r -> r.Executor.r_depth) reports);
  Alcotest.(check (list int)) "actual rows per node" [ 2; 2; 4 ]
    (List.map (fun r -> r.Executor.r_rows) reports);
  Alcotest.(check (list int)) "each node ran once" [ 1; 1; 1 ]
    (List.map (fun r -> r.Executor.r_loops) reports);
  let est r =
    match r.Executor.r_est with
    | Some f -> f
    | None -> Alcotest.failf "%s has no estimate" r.Executor.r_label
  in
  (match reports with
  | [ project; select; bind ] ->
      Alcotest.(check (float 1e-9)) "BIND estimate = cardinality" 4. (est bind);
      Alcotest.(check (float 1e-9)) "SELECT estimate = (4-2)/(4-1) * 4"
        (8. /. 3.) (est select);
      Alcotest.(check (float 1e-9)) "PROJECT passes the estimate through"
        (8. /. 3.) (est project)
  | _ -> Alcotest.fail "expected exactly 3 reports");
  let rendered = Executor.render_reports reports in
  Alcotest.(check bool) "rendered tree shows actuals" true
    (Helpers.contains rendered "rows=2");
  Alcotest.(check bool) "rendered tree shows estimates" true
    (Helpers.contains rendered "est=4.0")

let test_explain_statement_forms () =
  let db = analyze_db () in
  (* plain EXPLAIN: the optimizer plan, no execution *)
  (match ok db "EXPLAIN SELECT i FROM Item i WHERE i.n > 2" with
  | Db.Explained text ->
      Alcotest.(check bool) "plan mentions BIND" true (Helpers.contains text "BIND")
  | _ -> Alcotest.fail "EXPLAIN did not return Explained");
  Alcotest.(check int) "plain EXPLAIN is not ANALYZE" 0
    (snap_value db "stmt.explain_analyze");
  (* EXPLAIN ANALYZE, case-insensitive, executes and reports actuals *)
  (match ok db "explain analyze select i from Item i where i.n > 2" with
  | Db.Explained text ->
      Alcotest.(check bool) "per-node actuals" true (Helpers.contains text "rows=");
      Alcotest.(check bool) "run totals" true (Helpers.contains text "actual rows: 2")
  | _ -> Alcotest.fail "EXPLAIN ANALYZE did not return Explained");
  Alcotest.(check int) "counted" 1 (snap_value db "stmt.explain_analyze");
  (* never cached: no plan-cache traffic from EXPLAIN ANALYZE *)
  Alcotest.(check int) "no cache entries" 0
    (Db.plan_cache_stats db).Plan_cache.entries;
  (* works inside an explicit transaction too *)
  let s = Db.begin_session_txn db in
  (match Db.exec_in_txn db s "EXPLAIN ANALYZE SELECT i FROM Item i" with
  | Ok (Db.Explained text) ->
      Alcotest.(check bool) "in-txn actuals" true (Helpers.contains text "actual rows: 4")
  | Ok _ -> Alcotest.fail "in-txn EXPLAIN ANALYZE: wrong result"
  | Error _ -> Alcotest.fail "in-txn EXPLAIN ANALYZE failed");
  Db.commit_session_txn db s;
  Alcotest.(check int) "both runs counted" 2 (snap_value db "stmt.explain_analyze")

let test_statement_counters () =
  let db = analyze_db () in
  let before = Db.metrics_snapshot db in
  ignore (ok db "SELECT i FROM Item i");
  ignore (ok db "new Item <9>");
  ignore (ok db "CREATE CLASS Extra TUPLE (x Integer)");
  ignore (expect_error db "SELECT z FROM Nope z");
  let check name v =
    let d = Mood_obs.Metrics.diff ~before ~after:(Db.metrics_snapshot db) in
    Alcotest.(check (option int)) name (Some v) (List.assoc_opt name d)
  in
  check "stmt.select" 1;
  check "stmt.dml" 1;
  check "stmt.ddl" 1;
  check "stmt.error" 1;
  (* disabling freezes the push counters *)
  Db.set_metrics_enabled db false;
  ignore (ok db "SELECT i FROM Item i");
  Db.set_metrics_enabled db true;
  check "stmt.select" 1

let test_slow_query_log () =
  let db = analyze_db () in
  Alcotest.(check (option (float 0.))) "disarmed by default" None
    (Db.slow_query_threshold db);
  Alcotest.check_raises "negative threshold rejected"
    (Invalid_argument "set_slow_query_threshold: negative threshold") (fun () ->
      Db.set_slow_query_threshold db (Some (-1.)));
  (* threshold 0: every timed SELECT qualifies *)
  Db.set_slow_query_threshold db (Some 0.);
  ignore (ok db "SELECT  i  FROM Item i WHERE i.n > 2");
  (match Db.slow_queries db with
  | [ sq ] ->
      Alcotest.(check string) "key is the normalized text"
        "SELECT i FROM Item i WHERE i.n > 2" sq.Db.sq_key;
      Alcotest.(check int) "2 rows recorded" 2 sq.Db.sq_rows;
      Alcotest.(check bool) "wall time non-negative" true (sq.Db.sq_wall >= 0.)
  | l -> Alcotest.failf "expected 1 slow query, got %d" (List.length l));
  (* DML is never logged *)
  ignore (ok db "new Item <5>");
  Alcotest.(check int) "DML not logged" 1 (List.length (Db.slow_queries db));
  (* while armed, every statement's latency feeds the histogram even
     though only SELECTs can enter the log *)
  Alcotest.(check int) "latency histogram observed" 2
    (snap_value db "stmt.latency_s.count");
  (* an unreachable threshold logs nothing *)
  Db.set_slow_query_threshold db (Some 3600.);
  ignore (ok db "SELECT i FROM Item i");
  Alcotest.(check int) "fast query below threshold" 1
    (List.length (Db.slow_queries db));
  Db.clear_slow_queries db;
  Alcotest.(check int) "cleared" 0 (List.length (Db.slow_queries db));
  (* disarming stops the clock entirely *)
  Db.set_slow_query_threshold db None;
  ignore (ok db "SELECT i FROM Item i");
  Alcotest.(check int) "disarmed logs nothing" 0 (List.length (Db.slow_queries db))

(* ------------------------------------------------------------------ *)
(* One statement pipeline: the standalone and session contexts          *)

let txn_result db s src =
  match Db.exec_in_txn db s src with
  | Ok r -> r
  | Error Db.Txn_busy -> Alcotest.failf "%S: BUSY" src
  | Error Db.Txn_deadlock -> Alcotest.failf "%S: deadlock" src
  | Error (Db.Txn_fail m) -> Alcotest.failf "%S: %s" src m
  | Error (Db.Txn_redirect _) -> Alcotest.failf "%S: redirected" src

let row_count = function
  | Db.Rows r -> List.length r.Executor.rows
  | _ -> Alcotest.fail "not a row result"

let reports_rows n = function
  | Db.Explained text -> Helpers.contains text (Printf.sprintf "actual rows: %d," n)
  | _ -> false

(* A snapshot transaction's EXPLAIN ANALYZE reads its BEGIN view, as
   its SELECT does: another session's later commit shows in neither. *)
let test_explain_analyze_reads_begin_snapshot () =
  let db = analyze_db () in
  let q = "SELECT i FROM Item i" in
  let reader = Db.begin_session_txn db in
  let writer = Db.begin_session_txn db in
  ignore (txn_result db writer "new Item <5>");
  Db.commit_session_txn db writer;
  Alcotest.(check int) "SELECT reads the BEGIN snapshot" 4 (row_count (txn_result db reader q));
  Alcotest.(check bool) "EXPLAIN ANALYZE reads it too" true
    (reports_rows 4 (txn_result db reader ("EXPLAIN ANALYZE " ^ q)));
  Db.commit_session_txn db reader

(* Another session's insert is uncommitted and holds the Item extent
   exclusively. EXPLAIN ANALYZE reads like the SELECT — a snapshot —
   standalone, inside a transaction and through the programmatic API,
   instead of bouncing off the writer's lock. *)
let test_explain_analyze_reads_past_writer () =
  let db = analyze_db () in
  let q = "SELECT i FROM Item i" in
  let writer = Db.begin_session_txn db in
  ignore (txn_result db writer "new Item <5>");
  Alcotest.(check int) "standalone SELECT" 4 (row_count (ok db q));
  (match Db.exec db ("EXPLAIN ANALYZE " ^ q) with
  | Ok r -> Alcotest.(check bool) "standalone EXPLAIN ANALYZE" true (reports_rows 4 r)
  | Error m -> Alcotest.failf "standalone EXPLAIN ANALYZE: %s" m);
  Alcotest.(check int) "analyze_query" 4
    (List.length (fst (Db.analyze_query db q)).Executor.rows);
  let reader = Db.begin_session_txn db in
  Alcotest.(check int) "SELECT in a transaction" 4 (row_count (txn_result db reader q));
  Alcotest.(check bool) "EXPLAIN ANALYZE in a transaction" true
    (reports_rows 4 (txn_result db reader ("EXPLAIN ANALYZE " ^ q)));
  Db.commit_session_txn db reader;
  Db.abort_session_txn db writer

(* With the slow-query log armed, a statement is timed in either
   context: DML inside a session transaction feeds stmt.latency_s. *)
let test_slow_log_times_both_contexts () =
  let db = analyze_db () in
  Db.set_slow_query_threshold db (Some 0.);
  let observed () = snap_value db "stmt.latency_s.count" in
  let update = "UPDATE Item i SET n = i.n + 1" in
  ignore (ok db update);
  Alcotest.(check int) "standalone UPDATE timed" 1 (observed ());
  let s = Db.begin_session_txn db in
  ignore (txn_result db s update);
  Db.commit_session_txn db s;
  Alcotest.(check int) "in-transaction UPDATE timed" 2 (observed ())

(* Words with a decimal point and a digit in EXPLAIN text are timings,
   estimates and modeled costs; they are masked so plan shapes and row
   counts compare. *)
let mask_decimals text =
  let is_digit c = c >= '0' && c <= '9' in
  String.split_on_char ' ' text
  |> List.map (fun w -> if String.contains w '.' && String.exists is_digit w then "#" else w)
  |> String.concat " "

let render = function
  | Error m -> "error: " ^ m
  | Ok (Db.Rows r) -> String.concat "; " (List.map Value.to_string (Executor.result_values r))
  | Ok (Db.Explained text) -> mask_decimals text
  | Ok (Db.Object_created oid) -> "oid " ^ Oid.to_string oid
  | Ok (Db.Updated n) -> Printf.sprintf "updated %d" n
  | Ok (Db.Deleted n) -> Printf.sprintf "deleted %d" n
  | Ok (Db.Class_created c) -> "class " ^ c
  | Ok _ -> Alcotest.fail "unexpected result kind"

(* The same script through [exec] on one database and through
   [exec_in_txn], one committed transaction per statement, on an
   identical one: the same rendered results and the same statement and
   plan-cache counters. The script ends on DEFAULT, so the SET leaves
   both databases as it found them. *)
let test_contexts_share_one_pipeline () =
  let script =
    [ "SELECT i.n FROM Item i WHERE i.n > 1";
      "SELECT i.n FROM Item i WHERE i.n > 1";
      "new Item <7>";
      "UPDATE Item i SET n = i.n * 10 WHERE i.n = 7";
      "DELETE FROM Item i WHERE i.n = 70";
      "CREATE CLASS Extra TUPLE (x Integer)";
      "SET SCAN_FORCE ROW";
      "SET SCAN_FORCE DEFAULT";
      "EXPLAIN SELECT i FROM Item i WHERE i.n > 2";
      "EXPLAIN ANALYZE SELECT i FROM Item i WHERE i.n > 2";
      "SELEKT i FROM Item i";
      "SELECT z FROM Nope z"
    ]
  in
  let counters db =
    List.filter
      (fun (name, _) ->
        String.starts_with ~prefix:"stmt." name
        || String.starts_with ~prefix:"plan_cache." name)
      (Db.metrics_snapshot db)
  in
  let standalone = analyze_db () in
  let alone = List.map (fun src -> render (Db.exec standalone src)) script in
  let session = analyze_db () in
  let in_txn =
    List.map
      (fun src ->
        let s = Db.begin_session_txn session in
        let r =
          match Db.exec_in_txn session s src with
          | Ok r -> Ok r
          | Error (Db.Txn_fail m) -> Error m
          | Error (Db.Txn_busy | Db.Txn_deadlock | Db.Txn_redirect _) ->
              Alcotest.failf "%S: lock conflict or redirect" src
        in
        Db.commit_session_txn session s;
        render r)
      script
  in
  Alcotest.(check (list string)) "rendered results" alone in_txn;
  Alcotest.(check (list (pair string int)))
    "stmt.* and plan_cache.* counters" (counters standalone) (counters session)

let suites =
  [ ( "core.db",
      [ Alcotest.test_case "DDL/DML roundtrip" `Quick test_ddl_dml_roundtrip;
        Alcotest.test_case "inheritance" `Quick test_inheritance_via_sql;
        Alcotest.test_case "method lifecycle" `Quick test_method_lifecycle_via_sql;
        Alcotest.test_case "error reporting" `Quick test_error_reporting_keeps_server_alive;
        Alcotest.test_case "explain" `Quick test_explain_contains_dictionaries;
        Alcotest.test_case "CREATE INDEX feeds the statistics" `Quick
          test_create_index_feeds_statistics;
        Alcotest.test_case "transactions" `Quick test_transaction_commit_and_abort;
        Alcotest.test_case "checkpoint/recover" `Quick test_checkpoint_and_recover;
        Alcotest.test_case "exec writes survive recover" `Quick
          test_exec_writes_survive_recover;
        Alcotest.test_case "failed exec write rolls back" `Quick
          test_failed_exec_write_rolls_back;
        Alcotest.test_case "refused exec write cleans up" `Quick
          test_refused_exec_write_cleans_up;
        QCheck_alcotest.to_alcotest prop_put_image_round_trip;
        Alcotest.test_case "PAX pages rebuilt after recover" `Quick
          test_pax_rebuilt_after_recover;
        Alcotest.test_case "recover forgets crashed sessions" `Quick
          test_recover_forgets_crashed_sessions;
        Alcotest.test_case "scopes" `Quick test_scope_controls_function_cache;
        Alcotest.test_case "analyze/io" `Quick test_analyze_and_io_measurement;
        Alcotest.test_case "named objects" `Quick test_named_objects_via_sql;
        Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
        Alcotest.test_case "schema dump roundtrip" `Quick test_schema_dump_roundtrip;
        Alcotest.test_case "script error handling" `Quick test_exec_script_stops_at_error;
        Alcotest.test_case "IS NULL execution" `Quick test_is_null_execution;
        Alcotest.test_case "statement locking" `Quick test_statement_level_locking;
        Alcotest.test_case "query non-select" `Quick test_query_rejects_non_select;
        Alcotest.test_case "two databases keep their own settings" `Quick
          test_two_dbs_keep_their_settings
      ] );
    ( "core.plan_cache",
      [ Alcotest.test_case "hits and DML" `Quick test_plan_cache_hits_and_dml;
        Alcotest.test_case "invalidation" `Quick test_plan_cache_invalidation;
        Alcotest.test_case "token-aware normalize" `Quick test_normalize_token_aware;
        Alcotest.test_case "literals and comments" `Quick
          test_plan_cache_string_literals_and_comments;
        Alcotest.test_case "capacity eviction" `Quick test_plan_cache_capacity_eviction
      ] );
    ( "core.observe",
      [ Alcotest.test_case "EXPLAIN ANALYZE oracle" `Quick test_explain_analyze_oracle;
        Alcotest.test_case "EXPLAIN statement forms" `Quick test_explain_statement_forms;
        Alcotest.test_case "statement counters" `Quick test_statement_counters;
        Alcotest.test_case "slow-query log" `Quick test_slow_query_log
      ] );
    ( "core.pipeline",
      [ Alcotest.test_case "EXPLAIN ANALYZE reads the BEGIN snapshot" `Quick
          test_explain_analyze_reads_begin_snapshot;
        Alcotest.test_case "EXPLAIN ANALYZE reads past a writer" `Quick
          test_explain_analyze_reads_past_writer;
        Alcotest.test_case "slow log times both contexts" `Quick
          test_slow_log_times_both_contexts;
        Alcotest.test_case "contexts share one pipeline" `Quick
          test_contexts_share_one_pipeline
      ] )
  ]
