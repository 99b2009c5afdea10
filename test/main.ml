let () =
  Alcotest.run "mood"
    (Test_util.suites @ Test_model.suites @ Test_storage.suites @ Test_catalog.suites
   @ Test_funcmgr.suites @ Test_sql.suites @ Test_algebra.suites @ Test_cost.suites
   @ Test_optimizer.suites @ Test_executor.suites @ Test_core.suites
   @ Test_moodview.suites @ Test_workload.suites @ Test_sim.suites
   @ Test_server.suites @ Test_obs.suites @ Test_repl.suites @ Test_mvcc.suites
   @ Test_column.suites @ Test_golden.suites)
