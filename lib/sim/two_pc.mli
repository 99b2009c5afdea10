(** Deterministic multi-node two-phase-commit simulation.

    Three participant shards — each with its own store, WAL, lock
    manager and keyed table, keys placed by [key mod 3] — execute a
    seeded workload of global transactions against one {!Model}
    oracle. Single-shard transactions commit with an ordinary log
    force; multi-shard ones run 2PC with durable [Prepare] votes, a
    force-written coordinator [Decision] (presumed abort) and per-leg
    [Commit] delivery. A seeded fuse crashes the whole cluster at any
    protocol site (before/after a vote, before the decision, before
    its force, mid-delivery); recovery runs the ARIES-lite pass per
    shard and resolves in-doubt transactions from the coordinator's
    durable decision log. The union of recovered contents must equal
    the oracle's committed bindings — commit point: decision durable. *)

val phase : Phase.t
(** Counts steps, one- and two-phase commits, aborts, deadlock
    victims, checkpoints and in-doubt survivors with their
    resolutions. Sabotage rigs the crash fuse to blow immediately
    after a commit decision turns durable (every delivery pending) and
    resolves all in-doubt transactions as presumed-abort, ignoring the
    decision log — a coordinator that forgets its own decisions, which
    the oracle must catch. *)
