(* Crash–recovery harness runner: the CI gate for ARIES-lite recovery
   and WAL-shipping replication.

   Phase 1 runs MOOD_SIM_QUOTA seeded workload/crash/recover/check
   cycles (default 200) starting at MOOD_SIM_SEED (default 1).
   Phase 2 runs MOOD_SIM_REPL_QUOTA seeded primary-writes/
   replica-applies/crash-mid-batch/catch-up/promote cycles (default
   200) from the same base seed.
   Phase 3 runs MOOD_SIM_MVCC_QUOTA seeded MVCC snapshot cycles
   (default 200): concurrent snapshots re-read against the oracle
   while commits, aborts, checkpoints and version GC run around them,
   then crash/recover proves the chains rebuild.
   Phase 4 runs MOOD_SIM_JOIN_QUOTA seeded differential join-oracle
   cycles (default 200): every join algorithm against the interpreted
   nested loop over randomized skewed/dup-heavy/null-bearing data,
   plus a sabotaged negative control that must be caught.
   Phase 5 runs MOOD_SIM_2PC_QUOTA seeded two-phase-commit cycles
   (default 200): three participant shards plus a coordinator decision
   log, crashed at every protocol site, recovered and resolved against
   the oracle, plus a negative control that skips the decision-log
   replay and must be caught.
   Phase 6 runs MOOD_SIM_GC_QUOTA seeded group-commit cycles (default
   200): batches of session transactions commit through the nodurable
   path and are acknowledged after one shared log force, with crashes
   injected between the batch enqueue and the shared fsync; recovery
   must show no ACKed commit lost and no un-ACKed commit visible, and
   a negative control that ACKs without forcing must be caught.
   Phase 7 runs MOOD_SIM_SCAN_QUOTA seeded differential scan-oracle
   cycles (default 200): the vectorized batch engine over PAX and
   transient-batched row classes against the row engine on the same
   queries, with DML and ANALYZE interleaved so segment invalidation
   and re-encoding are in every cycle. GROUP BY queries are also
   compared in order against the unfused plan. A sabotaged null-bitmap
   negative control must be caught, on grouped queries too. Every
   violation prints the cycle's seed so the failure reproduces exactly
   with

     MOOD_SIM_QUOTA=1 MOOD_SIM_SEED=<seed> dune exec bin/crash_sim.exe *)

let env_int name default =
  match Sys.getenv_opt name with
  | None | Some "" -> default
  | Some s -> (
      match int_of_string_opt s with
      | Some n -> n
      | None ->
          Printf.eprintf "mood_sim: %s=%S is not an integer\n" name s;
          exit 2)

let () =
  let quota = env_int "MOOD_SIM_QUOTA" 200 in
  let repl_quota = env_int "MOOD_SIM_REPL_QUOTA" 200 in
  let base_seed = env_int "MOOD_SIM_SEED" 1 in
  let failed = ref false in
  let report = Mood_sim.Harness.run ~quota ~base_seed () in
  Format.printf "mood_sim: recovery, seeds %d..%d@.%a@." base_seed
    (base_seed + quota - 1)
    Mood_sim.Harness.pp_report report;
  (match report.Mood_sim.Harness.r_violations with
  | [] -> ()
  | violations ->
      failed := true;
      List.iter
        (fun (seed, crash_point, message) ->
          Printf.printf "VIOLATION seed=%d crash=[%s]\n  %s\n" seed crash_point
            message)
        violations);
  let repl = Mood_sim.Harness.run_repl ~quota:repl_quota ~base_seed () in
  Format.printf "mood_sim: replication, seeds %d..%d@.%a@." base_seed
    (base_seed + repl_quota - 1)
    Mood_sim.Harness.pp_repl_report repl;
  (match repl.Mood_sim.Harness.rr_violations with
  | [] -> ()
  | violations ->
      failed := true;
      List.iter
        (fun (seed, message) ->
          Printf.printf "REPL VIOLATION seed=%d\n  %s\n" seed message)
        violations);
  let mvcc_quota = env_int "MOOD_SIM_MVCC_QUOTA" 200 in
  let mvcc = Mood_sim.Harness.run_mvcc ~quota:mvcc_quota ~base_seed () in
  Format.printf "mood_sim: mvcc snapshots, seeds %d..%d@.%a@." base_seed
    (base_seed + mvcc_quota - 1)
    Mood_sim.Harness.pp_mvcc_report mvcc;
  (match mvcc.Mood_sim.Harness.mr_violations with
  | [] -> ()
  | violations ->
      failed := true;
      List.iter
        (fun (seed, message) ->
          Printf.printf "MVCC VIOLATION seed=%d\n  %s\n" seed message)
        violations);
  let join_quota = env_int "MOOD_SIM_JOIN_QUOTA" 200 in
  let join = Mood_sim.Join_oracle.run ~quota:join_quota ~base_seed () in
  Format.printf "mood_sim: join oracle, seeds %d..%d@.%a@." base_seed
    (base_seed + join_quota - 1)
    Mood_sim.Join_oracle.pp_report join;
  (match join.Mood_sim.Join_oracle.jr_violations with
  | [] -> ()
  | violations ->
      failed := true;
      List.iter
        (fun (seed, message) ->
          Printf.printf "JOIN VIOLATION seed=%d\n  %s\n" seed message)
        violations);
  (* Negative control: with the sort-merge duplicate-key rewind
     sabotaged the oracle must catch violations, or it has no teeth. *)
  if join_quota > 0 then begin
    let sab = Mood_sim.Join_oracle.run ~sabotage:true ~quota:(min 5 join_quota) ~base_seed () in
    if sab.Mood_sim.Join_oracle.jr_violations = [] then begin
      failed := true;
      Printf.printf
        "JOIN ORACLE TOOTHLESS: sabotaged sort-merge rewind produced no violations\n"
    end
    else
      Format.printf "mood_sim: join oracle negative control caught %d violation(s)@."
        (List.length sab.Mood_sim.Join_oracle.jr_violations)
  end;
  let tpc_quota = env_int "MOOD_SIM_2PC_QUOTA" 200 in
  let tpc = Mood_sim.Two_pc.run ~quota:tpc_quota ~base_seed () in
  Format.printf "mood_sim: 2pc coordination, seeds %d..%d@.%a@." base_seed
    (base_seed + tpc_quota - 1)
    Mood_sim.Two_pc.pp_report tpc;
  (match tpc.Mood_sim.Two_pc.tr_violations with
  | [] -> ()
  | violations ->
      failed := true;
      List.iter
        (fun (seed, crash_site, message) ->
          Printf.printf "2PC VIOLATION seed=%d crash=[%s]\n  %s\n" seed
            crash_site message)
        violations);
  (* Negative control: resolving in-doubt shards while ignoring the
     coordinator's durable decision log must produce violations, or the
     2PC oracle has no teeth. *)
  if tpc_quota > 0 then begin
    let sab =
      Mood_sim.Two_pc.run ~sabotage:true ~quota:(min 5 tpc_quota) ~base_seed ()
    in
    if sab.Mood_sim.Two_pc.tr_violations = [] then begin
      failed := true;
      Printf.printf
        "2PC ORACLE TOOTHLESS: skipped decision-log replay produced no \
         violations\n"
    end
    else
      Format.printf "mood_sim: 2pc negative control caught %d violation(s)@."
        (List.length sab.Mood_sim.Two_pc.tr_violations)
  end;
  let gc_quota = env_int "MOOD_SIM_GC_QUOTA" 200 in
  let gc = Mood_sim.Group_commit.run ~quota:gc_quota ~base_seed () in
  Format.printf "mood_sim: group commit, seeds %d..%d@.%a@." base_seed
    (base_seed + gc_quota - 1)
    Mood_sim.Group_commit.pp_report gc;
  (match gc.Mood_sim.Group_commit.gr_violations with
  | [] -> ()
  | violations ->
      failed := true;
      List.iter
        (fun (seed, crash_site, message) ->
          Printf.printf "GC VIOLATION seed=%d crash=[%s]\n  %s\n" seed
            crash_site message)
        violations);
  (* Negative control: acknowledging a batch without forcing it must
     produce lost-ACK violations after the crash, or the group-commit
     oracle has no teeth. *)
  if gc_quota > 0 then begin
    let sab =
      Mood_sim.Group_commit.run ~sabotage:true ~quota:(min 5 gc_quota)
        ~base_seed ()
    in
    if sab.Mood_sim.Group_commit.gr_violations = [] then begin
      failed := true;
      Printf.printf
        "GC ORACLE TOOTHLESS: unforced ACKs produced no violations\n"
    end
    else
      Format.printf
        "mood_sim: group-commit negative control caught %d violation(s)@."
        (List.length sab.Mood_sim.Group_commit.gr_violations)
  end;
  let scan_quota = env_int "MOOD_SIM_SCAN_QUOTA" 200 in
  let scan = Mood_sim.Scan_oracle.run ~quota:scan_quota ~base_seed () in
  Format.printf "mood_sim: scan oracle, seeds %d..%d@.%a@." base_seed
    (base_seed + scan_quota - 1)
    Mood_sim.Scan_oracle.pp_report scan;
  (match scan.Mood_sim.Scan_oracle.sr_violations with
  | [] -> ()
  | violations ->
      failed := true;
      List.iter
        (fun (seed, message) ->
          Printf.printf "SCAN VIOLATION seed=%d\n  %s\n" seed message)
        violations);
  (* Negative control: with null bitmaps zeroed at encode time, NULLs
     decode as 0 / "" on the columnar side only — the oracle must
     catch the mismatch, on GROUP BY queries too, or it has no teeth. *)
  if scan_quota > 0 then begin
    let sab =
      Mood_sim.Scan_oracle.run ~sabotage:true ~quota:(min 5 scan_quota)
        ~base_seed ()
    in
    let grouped = sab.Mood_sim.Scan_oracle.sr_grouped_violations in
    if grouped = 0 then begin
      failed := true;
      Printf.printf
        "SCAN ORACLE TOOTHLESS: sabotaged null bitmaps produced %d violation(s), %d on \
         grouped queries\n"
        (List.length sab.Mood_sim.Scan_oracle.sr_violations)
        grouped
    end
    else
      Format.printf
        "mood_sim: scan oracle negative control caught %d violation(s), %d on grouped \
         queries@."
        (List.length sab.Mood_sim.Scan_oracle.sr_violations)
        grouped
  end;
  if !failed then begin
    Printf.printf
      "reproduce one: MOOD_SIM_QUOTA=1 MOOD_SIM_REPL_QUOTA=1 \
       MOOD_SIM_MVCC_QUOTA=1 MOOD_SIM_JOIN_QUOTA=1 MOOD_SIM_2PC_QUOTA=1 \
       MOOD_SIM_GC_QUOTA=1 MOOD_SIM_SCAN_QUOTA=1 MOOD_SIM_SEED=<seed> dune exec \
       bin/crash_sim.exe\n";
    exit 1
  end
