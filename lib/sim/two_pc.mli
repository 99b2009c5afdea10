(** Deterministic multi-node two-phase-commit simulation over the
    shipped participants and decision log.

    Three shard [Db.t]s, each with the {!Harness} schema and keys placed
    by [key mod 3], run a seeded workload of global transactions against
    one {!Model} oracle. Single-shard transactions commit locally
    (append, then the group-commit force); multi-shard ones follow the
    router's protocol: an allocation fence in a [Mood_shard.Decision_log]
    on a temp file, [Db.prepare_session_txn] on every leg, the commit
    decision, then [Db.decide_txn] per leg. A seeded fuse crashes the
    whole cluster at any protocol site (before/after a vote, before the
    decision, mid-delivery); each shard then runs [Db.recover], and the
    coordinator reopens and replays its log to decide every gid in
    [Db.indoubt_txns]. The union of recovered contents must equal the
    oracle's committed bindings — commit point: decision durable — and
    each shard's indexes must pass [Catalog.validate_indexes]. *)

val phase : Phase.t
(** Counts steps, one- and two-phase commits, aborts, deadlock
    victims, checkpoints, in-doubt survivors with their resolutions,
    and index checks. Sabotage rigs the crash fuse to blow immediately
    after a commit decision turns durable (every delivery pending) and
    resolves every in-doubt gid as abort, ignoring the replayed log — a
    coordinator that forgets its own decisions, which the oracle must
    catch. *)
