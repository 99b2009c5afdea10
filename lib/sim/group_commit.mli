(** Deterministic group-commit crash simulation.

    A full [Db.t] runs a seeded workload of {e commit batches}: each
    round opens several session transactions, inserts one unique value
    per transaction and commits every one through
    {!Mood.Db.commit_session_txn_nodurable} — the logical half of group
    commit, which appends the [Commit] record and releases locks but
    does {e not} force the log. The round's tickets (Commit LSNs) are
    then resolved the way the server's log-writer would: one shared
    {!Mood_storage.Wal.force_group} covering the batch's highest LSN,
    after which every transaction in the round is acknowledged.

    A seeded fuse crashes the database {e between the batch enqueue and
    the shared fsync} — the window the server's log-writer protocol
    opens — by dropping the unpersisted log tail and running the
    ARIES-lite recovery pass. The oracle then checks both directions of
    the group-commit contract against a SELECT over the recovered
    contents: every {b acknowledged} commit's value must be present
    (the ACK never outruns durability) and every value from the
    {b crashed, unacknowledged} batch must be absent (its Commit record
    died with the tail, so recovery undoes it as a loser). Surviving
    seeds keep committing after recovery, so one cycle exercises
    several crashes against accumulated history. *)

val phase : Phase.t
(** Counts rounds, commits, ACKed commits, shared forces that hit the
    device and injected crashes. Sabotage rigs the log-writer to
    acknowledge every batch {e without} forcing it and blows the fuse
    at the end of the cycle — acknowledged commits die with the
    unpersisted tail, lost-ACK violations the oracle must catch. *)
