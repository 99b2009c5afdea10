(* Tests for Mood_sim: the crash_sim phases and the harness pieces.

   Every phase must reproduce from its seed, come back violation-free
   on clean seeds, and have its negative control caught — the oracle
   has teeth. The per-phase sweeps pin that each phase exercises the
   machinery it exists to check; a recovery with the undo pass
   deliberately skipped is also caught in a handcrafted scenario. *)

module Phase = Mood_sim.Phase
module Harness = Mood_sim.Harness
module Table = Mood_sim.Table
module Model = Mood_sim.Model
module Store = Mood_storage.Store
module Wal = Mood_storage.Wal

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
      "lost log records"
    ]

let test_harness_deterministic () =
  check_reproducible Harness.recovery ~quota:1 ~base_seed:77

let test_harness_detects_skipped_undo () =
  (* Same seeds as the clean run, recovery broken: the sweep must
     surface violations. *)
  ignore (sabotaged_sweep Harness.recovery ~quota:60 ~base_seed:1000)

let test_skip_undo_handcrafted () =
  (* Transaction 2 inserts, a checkpoint is taken while it is active
     (steal: its uncommitted insert is baked into the base image), the
     crash arrives before it ever commits. Correct recovery undoes it;
     a recovery without the undo pass leaves it visible. *)
  let store = Store.create ~buffer_capacity:16 () in
  let wal = Store.wal store in
  let table = Table.create ~store () in
  let model = Model.create () in
  ignore (Wal.append wal (Wal.Begin 1));
  Model.begin_txn model 1;
  Table.insert table ~txn:1 ~key:1 ~data:"committed";
  Model.insert model ~txn:1 ~key:1 ~data:"committed";
  ignore (Wal.append wal (Wal.Commit 1));
  Wal.flush wal;
  Model.commit model 1;
  ignore (Wal.append wal (Wal.Begin 2));
  Model.begin_txn model 2;
  Table.insert table ~txn:2 ~key:2 ~data:"loser";
  Model.insert model ~txn:2 ~key:2 ~data:"loser";
  let cp = Table.checkpoint table ~active:[ 2 ] in
  ignore (Wal.lose_unpersisted wal);
  Model.crash model;
  let recovered, analysis = Table.recover ~wal ~checkpoint:(Some cp) () in
  Alcotest.(check bool) "txn 2 is a loser" true
    (Hashtbl.mem analysis.Wal.a_losers 2);
  Alcotest.(check (list (pair int string))) "undo scrubbed the loser"
    [ (1, "committed") ] (Table.contents recovered);
  Alcotest.(check (list string)) "recovered table healthy" []
    (Table.check recovered);
  let broken, _ = Table.recover ~skip_undo:true ~wal ~checkpoint:(Some cp) () in
  Alcotest.(check bool) "skipping undo leaves the loser visible" true
    (Table.contents broken <> Model.committed_bindings model)

let test_table_check_standalone () =
  (* The invariant checker doubles as a standalone structural test on
     a live (never crashed) table. *)
  let store = Store.create ~buffer_capacity:16 () in
  let wal = Store.wal store in
  let table = Table.create ~store () in
  ignore (Wal.append wal (Wal.Begin 1));
  for k = 0 to 30 do
    Table.insert table ~txn:1 ~key:k ~data:(Printf.sprintf "d%d" k)
  done;
  for k = 0 to 30 do
    if k mod 3 = 0 then Table.delete table ~txn:1 ~key:k
    else if k mod 3 = 1 then
      Table.update table ~txn:1 ~key:k ~data:(Printf.sprintf "d%d'" k)
  done;
  Alcotest.(check (list string)) "live table healthy" [] (Table.check table);
  Alcotest.(check int) "survivors" 20 (List.length (Table.contents table))

let test_table_abort_compensates () =
  let store = Store.create ~buffer_capacity:16 () in
  let wal = Store.wal store in
  let table = Table.create ~store () in
  ignore (Wal.append wal (Wal.Begin 1));
  Table.insert table ~txn:1 ~key:1 ~data:"keep";
  ignore (Wal.append wal (Wal.Commit 1));
  Wal.flush wal;
  ignore (Wal.append wal (Wal.Begin 2));
  Table.insert table ~txn:2 ~key:2 ~data:"drop";
  Table.update table ~txn:2 ~key:1 ~data:"dirty";
  Table.delete table ~txn:2 ~key:1;
  Table.abort table ~txn:2;
  Alcotest.(check (list (pair int string))) "rolled back to committed state"
    [ (1, "keep") ] (Table.contents table);
  Alcotest.(check (list string)) "indexes compensated" [] (Table.check table)

(* ------------------------------------------------------------------ *)
(* Two-phase-commit cycles (crash_sim phase 5, fast subset)            *)

module Two_pc = Mood_sim.Two_pc

let test_two_pc_clean_run () =
  let r = clean_sweep Two_pc.phase ~quota:40 ~base_seed:500 in
  (* The sweep must actually cross shards and leave survivors in doubt. *)
  exercised r [ "two-phase commits"; "one-phase commits"; "aborts"; "in-doubt" ]

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
