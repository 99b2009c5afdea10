(** Deterministic crash–recovery harness: three crash_sim phases that
    share one transactional workload — strict-2PL writers doing
    inserts/updates/deletes over a heap extent with B+-tree and hash
    indexes, under per-key exclusive locks, mirrored in a pure
    {!Model} oracle. Everything derives from the integer seed. *)

val recovery : Phase.t
(** One cycle: run the workload with random sharp checkpoints, crash
    it at a random point — either a disk-level write fault (possibly
    mid log-flush or mid buffer write-back, with torn pages) or a cut
    between operations — then lose the dirty frames and the
    unpersisted log tail, run ARIES-lite recovery, and compare the
    recovered table against the oracle. Sabotage runs recovery without
    its undo pass. *)

val replication : Phase.t
(** One cycle: the primary runs the workload (it never crashes —
    commits are durable at flush) alongside a {!Replica} that
    bootstraps from a sharp snapshot and pulls durable WAL batches.
    The fault stream crashes the replica mid-batch (losing its whole
    in-memory state — recovery is a fresh bootstrap from a {e new}
    snapshot, possibly with different transactions in flight) and
    re-delivers whole batches (torn-connection retry). At the end the
    replica catches up, promotes (drops loser buffers) and must hold
    exactly the oracle's committed bindings with both indexes
    structurally valid. Sabotage skips backing in-flight transactions'
    effects out of the bootstrap image. *)

val mvcc : Phase.t
(** One cycle: the workload runs with version tracking enabled and
    {e no} disk faults — flushes always survive, so the oracle's
    per-snapshot expectations are exact. Up to four concurrent
    snapshots are re-read against {!Model.snapshot_expected} while
    commits, aborts, checkpoints and explicit GC runs happen around
    them (repeatable read, no dirty reads, GC never eats a chain a
    live snapshot needs); then the cycle crashes at the step budget.
    Recovery must reproduce the committed bindings, and a snapshot
    opened on the recovered store must read exactly that state — and
    keep reading it across a post-recovery committed write (version
    chains rebuild consistently). Sabotage is a GC that ignores live
    snapshots: their registrations are dropped before each GC while
    the cycle keeps reading through them. *)
