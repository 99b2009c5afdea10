(* Tests for Mood_sim: the crash_sim phases and the harness pieces.

   Every phase must reproduce from its seed, come back violation-free
   on clean seeds, and have its negative control caught — the oracle
   has teeth. The per-phase sweeps pin that each phase exercises the
   machinery it exists to check; a recovery whose loser is handed a
   forged Commit is also caught in a handcrafted scenario. *)

module Phase = Mood_sim.Phase
module Harness = Mood_sim.Harness
module Db = Mood.Db
module Catalog = Mood_catalog.Catalog
module Store = Mood_storage.Store
module Wal = Mood_storage.Wal
module Buffer_pool = Mood_storage.Buffer_pool

(* Helpers shared with the phase tests in test_repl, test_column and
   test_executor. *)

(* Each of [quota] seeds from [base_seed], run twice, gives the same
   outcome. *)
let check_reproducible (phase : Phase.t) ~quota ~base_seed =
  for seed = base_seed to base_seed + quota - 1 do
    let a = phase.cycle ~sabotage:false ~seed in
    let b = phase.cycle ~sabotage:false ~seed in
    Alcotest.(check string) "same site" a.site b.site;
    Alcotest.(check (list (pair string int))) "same counts" a.counts b.counts;
    Alcotest.(check (list string)) "same violations" a.violations b.violations
  done

let clean_sweep (phase : Phase.t) ~quota ~base_seed =
  let r = Phase.run phase ~quota ~base_seed in
  (match r.violations with
  | [] -> ()
  | (seed, site, msg) :: _ ->
      Alcotest.failf "%s seed=%d crash=[%s]: %s" phase.name seed site msg);
  r

(* The sweep did some of the named work. *)
let exercised (r : Phase.report) names =
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " > 0") true (Phase.count r.counts name > 0))
    names

let sabotaged_sweep (phase : Phase.t) ~quota ~base_seed =
  let r = Phase.run ~sabotage:true phase ~quota ~base_seed in
  Alcotest.(check bool) (phase.name ^ " sabotage caught") true (r.violations <> []);
  r

(* The table-driven test: every phase in the list, checked the same
   way. *)
let test_phase (phase : Phase.t) () =
  check_reproducible phase ~quota:1 ~base_seed:7;
  ignore (clean_sweep phase ~quota:2 ~base_seed:11);
  match Phase.control phase ~base_seed:11 with
  | Some _ -> ()
  | None -> Alcotest.failf "%s: negative control caught nothing" phase.name

let test_harness_clean_run () =
  let r = clean_sweep Harness.recovery ~quota:60 ~base_seed:1000 in
  exercised r
    [ "commits";
      "aborts";
      "deadlock victims";
      "checkpoints";
      "lost frames";
      "lost log records";
      "index checks"
    ]

let test_harness_deterministic () =
  check_reproducible Harness.recovery ~quota:1 ~base_seed:77

let test_harness_detects_skipped_undo () =
  (* Same seeds as the clean run, with a forged Commit for every
     transaction open at the crash, so recovery skips their undo: the
     sweep must surface violations. *)
  ignore (sabotaged_sweep Harness.recovery ~quota:60 ~base_seed:1000)

(* One statement in a session transaction, which must be granted. *)
let exec db s stmt =
  match Db.exec_in_txn db s stmt with
  | Ok _ -> ()
  | Error _ -> Alcotest.failf "%s: refused" stmt

let in_txn db stmts ~commit =
  let s = Db.begin_session_txn db in
  List.iter (exec db s) stmts;
  if commit then Db.commit_session_txn db s else Db.abort_session_txn db s

let indexes_healthy what db =
  Alcotest.(check (list string)) what [] (Catalog.validate_indexes (Db.catalog db))

let test_skip_undo_handcrafted () =
  (* A transaction inserts, a checkpoint is taken while it is open
     (steal: its uncommitted insert is baked into the base image), the
     crash arrives before it ever commits. Correct recovery undoes it;
     a Commit forged for it makes recovery skip that undo. *)
  let crash_and_recover ~forge =
    let db = Harness.sim_db ~buffer_capacity:16 in
    in_txn db [ "new SimB <1, 'committed'>" ] ~commit:true;
    let loser = Db.begin_session_txn db in
    exec db loser "new SimA <2, 'loser'>";
    Db.checkpoint db;
    let wal = Store.wal (Db.store db) in
    ignore (Buffer_pool.crash (Store.buffer (Db.store db)));
    ignore (Wal.lose_unpersisted wal);
    if forge then begin
      ignore (Wal.append wal (Wal.Commit (Db.session_txn_id loser)));
      Wal.flush wal
    end;
    let analysis = Db.recover db in
    (db, Hashtbl.mem analysis.Wal.a_losers (Db.session_txn_id loser))
  in
  let db, is_loser = crash_and_recover ~forge:false in
  Alcotest.(check bool) "the open insert is a loser" true is_loser;
  Alcotest.(check (list (pair int string))) "undo scrubbed the loser"
    [ (1, "committed") ] (Harness.contents db);
  indexes_healthy "recovered indexes healthy" db;
  let forged, _ = crash_and_recover ~forge:true in
  Alcotest.(check (list (pair int string))) "a forged commit keeps the loser"
    [ (1, "committed"); (2, "loser") ] (Harness.contents forged)

let test_table_check_standalone () =
  (* The index check on a live (never crashed) database, after
     committed inserts, updates and deletes and an aborted mix. *)
  let db = Harness.sim_db ~buffer_capacity:16 in
  let on k fmt = Printf.sprintf fmt (Harness.class_of k) in
  in_txn db (List.init 31 (fun k -> on k "new %s <%d, 'd%d'>" k k)) ~commit:true;
  in_txn db
    (List.filter_map
       (fun k ->
         if k mod 3 = 0 then Some (on k "DELETE FROM %s s WHERE s.k = %d" k)
         else if k mod 3 = 1 then Some (on k "UPDATE %s s SET data = 'e%d' WHERE s.k = %d" k k)
         else None)
       (List.init 31 Fun.id))
    ~commit:true;
  in_txn db
    [ "UPDATE SimB s SET data = 'gone' WHERE s.k = 1";
      "DELETE FROM SimA s WHERE s.k = 2";
      "new SimA <40, 'gone'>"
    ]
    ~commit:false;
  indexes_healthy "live indexes healthy" db;
  Alcotest.(check int) "survivors" 20 (List.length (Harness.contents db))

let test_table_abort_compensates () =
  (* An aborted INSERT and UPDATE leave no posting behind. *)
  let db = Harness.sim_db ~buffer_capacity:16 in
  in_txn db [ "new SimB <1, 'keep'>" ] ~commit:true;
  in_txn db [ "new SimA <2, 'drop'>"; "UPDATE SimB s SET data = 'dirty' WHERE s.k = 1" ]
    ~commit:false;
  Alcotest.(check (list (pair int string))) "rolled back to committed state"
    [ (1, "keep") ] (Harness.contents db);
  indexes_healthy "indexes compensated" db

(* ------------------------------------------------------------------ *)
(* Two-phase-commit cycles (crash_sim phase 5, fast subset)            *)

module Two_pc = Mood_sim.Two_pc

let test_two_pc_clean_run () =
  let r = clean_sweep Two_pc.phase ~quota:40 ~base_seed:500 in
  (* The sweep must actually cross shards and leave survivors in doubt. *)
  exercised r
    [ "two-phase commits"; "one-phase commits"; "aborts"; "in-doubt"; "index checks" ]

let test_two_pc_deterministic () = check_reproducible Two_pc.phase ~quota:3 ~base_seed:91

let test_two_pc_sabotage_caught () =
  (* Resolving in-doubt participants while ignoring the coordinator's
     decision log must surface violations — otherwise the oracle could
     never catch a forgetful coordinator. *)
  ignore (sabotaged_sweep Two_pc.phase ~quota:5 ~base_seed:500)

(* ------------------------------------------------------------------ *)
(* Group-commit cycles (crash_sim phase 6, fast subset)                *)

module Group_commit = Mood_sim.Group_commit

let test_group_commit_clean_run () =
  let r = clean_sweep Group_commit.phase ~quota:40 ~base_seed:300 in
  (* The sweep must actually batch forces and crash inside the window. *)
  exercised r [ "commits"; "crashes" ];
  Alcotest.(check bool) "batches shared a force" true
    (Phase.count r.counts "commits" > Phase.count r.counts "shared forces")

let test_group_commit_deterministic () =
  check_reproducible Group_commit.phase ~quota:3 ~base_seed:41

let test_group_commit_sabotage_caught () =
  (* Acknowledging a batch the log-writer never forced must surface
     lost-ACK violations after the crash — otherwise the oracle could
     never catch an ACK that outruns durability. *)
  ignore (sabotaged_sweep Group_commit.phase ~quota:5 ~base_seed:300)

let suites =
  [ ( "sim.phases",
      List.map
        (fun (phase : Phase.t) -> Alcotest.test_case phase.name `Quick (test_phase phase))
        Mood_sim.Phases.all );
    ( "sim.harness",
      [ Alcotest.test_case "60 seeded cycles, no violations" `Quick
          test_harness_clean_run;
        Alcotest.test_case "cycles reproduce from seed" `Quick
          test_harness_deterministic;
        Alcotest.test_case "skip-undo sweep is caught" `Quick
          test_harness_detects_skipped_undo
      ] );
    ( "sim.table",
      [ Alcotest.test_case "skip-undo handcrafted loser" `Quick
          test_skip_undo_handcrafted;
        Alcotest.test_case "check on a live table" `Quick
          test_table_check_standalone;
        Alcotest.test_case "abort compensates data and indexes" `Quick
          test_table_abort_compensates
      ] );
    ( "sim.two_pc",
      [ Alcotest.test_case "40 seeded cycles, no violations" `Quick
          test_two_pc_clean_run;
        Alcotest.test_case "cycles reproduce from seed" `Quick
          test_two_pc_deterministic;
        Alcotest.test_case "skipped decision replay is caught" `Quick
          test_two_pc_sabotage_caught
      ] );
    ( "sim.group_commit",
      [ Alcotest.test_case "40 seeded cycles, no violations" `Quick
          test_group_commit_clean_run;
        Alcotest.test_case "cycles reproduce from seed" `Quick
          test_group_commit_deterministic;
        Alcotest.test_case "unforced ACK is caught" `Quick
          test_group_commit_sabotage_caught
      ] )
  ]
