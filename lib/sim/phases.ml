let all =
  [ Harness.recovery;
    Harness.replication;
    Harness.mvcc;
    Join_oracle.phase;
    Two_pc.phase;
    Group_commit.phase;
    Scan_oracle.phase
  ]
