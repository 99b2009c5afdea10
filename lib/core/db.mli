(** The MOOD database handle: the public entry point of the system.

    A [t] owns one storage manager (simulated disk, buffer pool, lock
    manager, log), the catalog, the Function Manager and a statistics
    snapshot for the optimizer. MOODSQL statements go through [exec]
    (or [query]/[explain] for SELECTs); programmatic access to the
    sub-systems is available through the accessors.

    Interfaces access the database through SQL statements interpreted
    by the kernel (Section 2's uniform architecture) — the text
    MoodView drives everything through [exec]. *)

type t

type exec_result =
  | Rows of Mood_executor.Executor.result   (** SELECT *)
  | Class_created of string
  | Layout_altered of string * string
      (** [ALTER CLASS c SET LAYOUT l]: class and the layout's name *)
  | Index_created of string * string
  | Object_created of Mood_model.Oid.t      (** [new C <...>] *)
  | Updated of int                          (** objects touched *)
  | Deleted of int
  | Method_defined of string * string
  | Method_dropped of string * string
  | Object_named of string * Mood_model.Oid.t  (** [NAME x AS SELECT ...] *)
  | Name_dropped of string
  | Explained of string
      (** [EXPLAIN ...] / [EXPLAIN ANALYZE ...]: the rendered plan or
          est-vs-actual report *)

val create :
  ?buffer_capacity:int ->
  ?plan_cache_capacity:int ->
  ?metrics_enabled:bool ->
  unit ->
  t
(** [plan_cache_capacity] bounds the compiled-plan LRU cache (default
    64 entries). [metrics_enabled] (default [true]) arms the metrics
    registry; when [false] every counter increment is a single boolean
    test and snapshots still work (pull sources read component
    accounting that exists anyway). *)

val store : t -> Mood_storage.Store.t
val catalog : t -> Mood_catalog.Catalog.t
val functions : t -> Mood_funcmgr.Function_manager.t

val stats : t -> Mood_cost.Stats.t
(** The optimizer's current statistics snapshot. Before the first
    [analyze]/[set_stats], an empty snapshot (the optimizer then sees
    zero cardinalities and falls back to trivial plans). *)

val analyze : t -> unit
(** Rebuilds the path indexes writes have made stale
    ([Catalog.refresh_path_indexes]), recomputes statistics from the
    stored data ([Catalog_stats]) and resets the I/O ledger so the
    collection scan does not pollute measurements. *)

val set_stats : t -> Mood_cost.Stats.t -> unit
(** Installs an explicit snapshot (e.g. the paper's Tables 13–15). *)

val optimizer_env : t -> Mood_optimizer.Dicts.env
(** Carries the database's planner settings ([SET JOIN_FORCE],
    [SCAN_FORCE], [JOIN_MEM]), which every session shares and no other
    database sees. *)

val executor_env : t -> Mood_executor.Eval.env
(** Carries the [JOIN_MEM] budget and the database's registry, where
    [join.*] counts. *)

val read_only_text : string -> bool
(** Statement text that cannot mutate anything (SELECT / EXPLAIN
    [ANALYZE] forms) — the server's autocommit fast path runs these
    without opening a transaction. *)

val gc_versions : t -> unit
(** Prunes version chains below the oldest live snapshot (also runs at
    every [checkpoint] and opportunistically as versions accumulate). *)

val exec : ?cache:bool -> t -> string -> (exec_result, string) result
(** Parses, checks, optimizes and executes one MOODSQL statement on its
    own. Returns [Error message] for parse/type/schema/run-time errors
    (the kernel's Exception class behaviour: failures are reported, the
    server survives), for a lock conflict ("extent is locked by another
    transaction") and, for a write on a replica, "NOT_PRIMARY: ...".
    Only the first kind counts in [stmt.error].

    [exec] and {!exec_in_txn} are two contexts of one statement
    pipeline. Every read (SELECT, EXPLAIN ANALYZE, the query of
    [NAME x AS SELECT ...]) reads an MVCC snapshot and takes no lock:
    the snapshot captures the commit clock and resolves every extent
    access through the version chains. Only writes lock, always
    exclusively. A data write (NEW, UPDATE, DELETE) is a one-statement
    transaction: WAL-logged, committed with a log force when the
    statement succeeds, and aborted, its effects compensated, on any
    error, a lock conflict included. An UPDATE or DELETE finds its
    targets by planning [SELECT v FROM C v WHERE ...] through the
    optimizer (index probes, compiled predicates, VSCAN) and running it
    outside any snapshot, under its exclusive extent locks; the SET
    expressions compile once per statement. Schema statements run outside any
    transaction and are not logged; [ALTER CLASS c SET LAYOUT l] takes
    its extent locks on a lock transaction of its own and releases them
    when it ends. [SET name value] and [EXPLAIN [ANALYZE] SELECT ...]
    are statements like any other.

    SELECT statements go through the {e compile-once hot path}: the
    parsed, typechecked, optimized and closure-compiled plan is cached
    under the normalized statement text, so re-executing the same query
    skips everything up to and including plan compilation. Cached plans
    are stamped with the schema/statistics epoch — DDL, index
    create/drop, [analyze] and [set_stats] all advance it, lazily
    invalidating every older plan. Data changes (INSERT/UPDATE/DELETE)
    do not invalidate: plans re-read extents at execution. (The one
    exception is the first write that makes a path index stale: it
    advances the epoch so no cached plan probes that index.) Pass
    [~cache:false] to force the cold parse+typecheck+optimize+compile
    pipeline (benchmark baseline, debugging). *)

val query : ?cache:bool -> t -> string -> Mood_executor.Executor.result
(** [exec] for SELECTs; raises [Failure] on errors or non-SELECTs. *)

val plan_epoch : t -> int
(** The epoch cached plans are keyed under: catalog schema/index epoch
    plus the statistics generation. Any advance makes all cached plans
    stale. *)

val plan_cache_stats : t -> Plan_cache.stats

val explain : t -> string -> string
(** The optimizer's output for a SELECT: the access plan (with the
    paper's T-labelled join temporaries) followed by the ImmSelInfo and
    PathSelInfo dictionaries. The [EXPLAIN SELECT ...] statement
    renders the same text once its query typechecks. *)

val explain_analyze : t -> string -> string
(** Plans the SELECT with per-node cardinality estimates
    ([Mood_optimizer.Card_est]), executes it with per-operator tracing,
    and renders the est-vs-actual operator tree (rows, loops, wall
    time, page-level I/O and buffer charges per node) followed by run
    totals — the text [exec] returns for [EXPLAIN ANALYZE SELECT ...].
    Reads the way a standalone SELECT reads: a snapshot of its own, no
    lock. Always plans fresh — never served from the plan cache.
    Raises [Parse_error]/[Type_error] on a bad query. *)

val analyze_query :
  t -> string -> Mood_executor.Executor.result * Mood_executor.Executor.op_report list
(** The structured form of [explain_analyze], read the same way: the
    query result plus the raw per-operator reports, for programmatic
    assertions. *)

val optimize : t -> string -> Mood_optimizer.Optimizer.optimized
(** The raw optimizer result for a SELECT source text. *)

val dump_schema : t -> string
(** The user schema as a MOODSQL script: CREATE CLASS statements in
    definition order (attributes, inheritance, method signatures)
    followed by DEFINE METHOD statements for every MoodC body the
    Function Manager holds, and CREATE INDEX statements. Executing the
    script against a fresh database recreates the schema — the SQL
    analogue of MoodView's "convert class hierarchy graph into C++
    code". *)

val exec_script : t -> string -> (exec_result list, string) result
(** Executes a ';'-separated script, stopping at the first error
    (statements already executed stay). DEFINE METHOD bodies may
    contain ';' freely — splitting is brace-aware. *)

type snapshot = (string * (int * Mood_model.Value.t) list) list
(** A full-database backup: every extent's objects as [(class, (slot,
    value) list)] (system classes included, so object names survive),
    slot-faithful. *)

val snapshot : t -> snapshot
(** The ESM "backup" function at the facade level. The schema itself is
    not part of the snapshot: [restore] requires the same classes to
    exist (restore into the same or an identically-defined database). *)

val restore : t -> snapshot -> unit
(** Replaces every extent's contents with the snapshot's and rebuilds
    all indexes; statistics are re-derived. Raises [Schema_error] when
    the snapshot mentions a class the database lacks. *)

(** {2 Session transactions}

    Built for the network server's BEGIN/COMMIT/ABORT statements: the
    transaction spans many [exec_in_txn] calls, DML inside it is
    WAL-logged under its id, and its write locks follow strict
    two-phase locking — they accumulate on the session's lock-manager
    transaction and are only released by
    [commit_session_txn]/[abort_session_txn]. Its reads take none.

    {b Thread-safety:} [t] is single-threaded — the plan cache, buffer
    pool LRU, catalog hash tables and the statistics snapshot are all
    unsynchronized mutable state. A multi-threaded caller (the server)
    must serialize every call into the same [t] behind one kernel lock;
    [Txn_busy] is returned precisely so the caller can retry {e
    outside} that lock while the conflicting session commits. *)

type session_txn

type txn_error =
  | Txn_busy
      (** A write's statement lock is held by another live
          transaction; the wait is registered in the waits-for graph. Locks granted so
          far stay held (2PL growth). Retry the same statement. *)
  | Txn_deadlock
      (** Waiting would close a waits-for cycle: this transaction is
          the victim. The caller must [abort_session_txn] and report a
          retryable abort. *)
  | Txn_fail of string
      (** Parse/type/schema/run-time error. The transaction stays
          open; earlier effects are kept until commit/abort. *)
  | Txn_redirect of string
      (** NOT_PRIMARY: this node is a read-only replica (or a fenced
          ex-primary); nothing was executed or locked. The payload is
          the address writes should be retried at. The transaction
          stays open — its reads remain valid. *)

val begin_session_txn : t -> session_txn
(** Appends [Begin] to the WAL, registers the transaction as active
    (checkpoints record it), opens a lock-manager transaction and
    captures the snapshot every read in the transaction sees. *)

val session_txn_id : session_txn -> int

val session_txn_open : session_txn -> bool

val exec_in_txn : t -> session_txn -> string -> (exec_result, txn_error) result
(** {!exec}'s pipeline in the session context, once the transaction is
    checked to be open and not prepared. SELECTs share the compiled
    plan cache (prepared-statement reuse across sessions and
    statements); DML is WAL-logged under the transaction's id so
    [abort_session_txn] compensates it. A write's exclusive locks are
    acquired on the session's lock transaction and {e not} released
    when the statement finishes. A read (SELECT, EXPLAIN ANALYZE,
    NAME's query) uses the snapshot captured at BEGIN — no locks,
    never [Txn_busy]. *)

val commit_session_txn : t -> session_txn -> unit
(** Appends [Commit], forces the log, and releases every lock. Raises
    [Invalid_argument] when the transaction is already finished. *)

val commit_session_txn_nodurable : t -> session_txn -> Mood_storage.Wal.lsn
(** The group-commit half: appends [Commit], stamps versions and
    releases every lock, but does {e not} force the log. Returns the
    Commit record's LSN as a ticket — the caller must withhold the
    commit acknowledgement until a covering [Wal.force_group] made
    that LSN durable (the server's log-writer batches the tickets of
    every committer that arrived during the previous force into one
    shared force). Early lock release is safe because the log forces
    in order: a transaction that read this one's writes cannot turn
    durable first. *)

val abort_session_txn : t -> session_txn -> unit
(** Compensates the transaction's logged effects (newest first),
    appends [Abort] and releases every lock — also the path the server
    takes for orphaned transactions of disconnected sessions. *)

(** {2 Two-phase commit, participant side}

    PREPARE force-writes a [Wal.Prepare] vote and freezes the
    transaction: no further statements, locks held, and — unlike an
    ordinary open transaction — it survives client disconnects and
    crashes (in-doubt) until the coordinator's DECIDE arrives.
    Presumed abort: deciding an unknown gid answers [`Unknown] and an
    in-doubt transaction whose coordinator logged no commit decision
    is aborted on resolution. *)

val prepare_session_txn : t -> session_txn -> gid:int -> (unit, string) result
(** Votes yes under the coordinator's global transaction id: appends
    [Wal.Prepare], forces the log, and registers the transaction in the
    prepared table. Fails when the transaction is not open, is already
    prepared, or the gid is in use. *)

val session_txn_prepared : session_txn -> int option
(** The gid this transaction is prepared under, if any. *)

val decide_txn : t -> gid:int -> commit:bool -> [ `Committed | `Aborted | `Unknown ]
(** The coordinator's decision. Commits or aborts the prepared
    transaction registered under [gid]; idempotent — an unknown gid
    (never prepared here, or already resolved) answers [`Unknown]. *)

val indoubt_txns : t -> (int * int) list
(** Currently prepared transactions as [(gid, txn_id)] — after
    [recover], exactly the in-doubt set awaiting coordinator replay. *)

val set_ddl_hook : t -> (string -> unit) option -> unit
(** Statement-journal hook: called with the source text of every
    successful schema statement (CREATE CLASS, CREATE INDEX, DEFINE/
    DROP METHOD, NAME/DROP NAME). Schema lives in catalog extents
    outside the WAL, so a durable restart log must capture these
    statements and re-execute them before reapplying logged records. *)

val active_transactions : t -> int list
(** Ids of the open transactions — the table a checkpoint records:
    session transactions begun and not yet committed or aborted
    (prepared ones included, and the one-statement transaction of an
    [exec] data write while it runs), and in-doubt transactions
    [recover] brought back prepared. *)

val checkpoint : t -> unit
(** Sharp ARIES-lite checkpoint: forces dirty buffer pages and the log,
    appends a [Checkpoint] record carrying the active-transaction
    table, and installs the current database contents as the recovery
    base image. The image is installed only after the checkpoint
    record is durable, so a crash mid-checkpoint leaves the previous
    one in force. *)

val recover : t -> Mood_storage.Wal.analysis
(** Crash restart: reinstalls the last checkpoint's base image (or
    empties every extent when no checkpoint was taken), then runs the
    WAL's redo-of-committed / undo-of-losers pass bounded by that
    checkpoint, rebuilds all indexes and re-derives statistics. Every
    committed data write after the checkpoint survives, made through
    [exec] or in a session transaction alike. The unlogged writes —
    [insert], schema statements and writes made straight through
    [Mood_catalog.Catalog] — are durable only up to the last
    checkpoint. Returns the log analysis (committed set, losers,
    checkpoint position) for inspection.

    In-doubt transactions (durable [Wal.Prepare], no durable outcome)
    are redone alongside the committed, re-registered as prepared
    session transactions with their extent write locks re-acquired,
    and counted in [active_transactions] until a coordinator decision
    resolves them. Fresh transaction ids are bumped past every id in
    the surviving log. *)

(** {2 Replication surface}

    The hooks [Mood_repl] builds on: a role/term pair for routing and
    fencing, batch redo for the replica-side applier (one record at a
    time, [Mood_catalog.Catalog.put_image]), and the extent contents
    ({!snapshot}) and class-to-heap-file correspondence a bootstrap
    snapshot ships. All calls follow the same thread-safety rule as
    everything else on [t]: one caller at a time (the server's kernel
    lock). *)

type role =
  | Primary             (** accepts writes *)
  | Replica of string   (** read-only; writes redirect to the address *)
  | Fenced of string    (** an ex-primary superseded by a higher term;
                            writes redirect to the new primary *)

val role : t -> role
(** [Primary] on a fresh database. *)

val set_role : t -> role -> unit

val term : t -> int
(** The replication term this node believes in — monotonically
    increasing, bumped by promotion, stamped on every shipped batch.
    1 on a fresh database. *)

val set_term : t -> int -> unit
(** Raises [Invalid_argument] when the term would regress. *)

val apply_committed : t -> lsn:int -> Mood_storage.Wal.record list -> unit
(** Replica-side batch apply: puts each record's after-image back
    ([Mood_catalog.Catalog.put_image], in order, indexes untouched)
    with its version-chain entries stamped [Committed lsn] — the
    primary's commit LSN — so replica snapshot reads are
    consistent-as-of-[applied_lsn] and report primary LSNs. Call
    [Mood_catalog.Catalog.rebuild_indexes] after a batch. *)

val bump_commit_stamp : t -> int -> unit
(** Raises the MVCC commit clock to at least the given LSN (never
    lowers it) — a replica bootstrap aligns its clock with the shipped
    snapshot's LSN. *)

val without_version_tracking : t -> (unit -> 'a) -> 'a
(** Runs [f] with version tracking off: image scrubs and other
    wholesale rewrites must not mint version-chain entries. *)

val install_contents : t -> snapshot -> unit
(** Slot-faithfully replaces every extent's contents, without minting
    versions; classes absent from the snapshot are emptied. Indexes
    are {e not} rebuilt here ({!restore} does). *)

val class_files : t -> (string * int) list
(** [(class, heap file id)] for every extent-owning class. File ids
    are allocation-order-dependent and differ across nodes — the
    replication layer uses this map on both ends to translate shipped
    records. *)

val insert : t -> class_name:string -> Mood_model.Value.t -> Mood_model.Oid.t
(** The bulk loader: programmatic object creation, type-checked
    against the catalog, unlogged and lock-free. What it loads is
    durable from the next {!checkpoint}; a data write that must survive
    {!recover} before then goes through [exec]. *)

val io_elapsed : t -> float
(** Modeled I/O seconds since the last reset — the measurement the
    benches compare against the cost model. *)

val reset_io : t -> unit

val scope : t -> Mood_funcmgr.Function_manager.scope
(** The session scope: loaded functions stay cached here until
    [new_scope] replaces it (the paper's scope-change unloading). *)

val new_scope : t -> unit

(** {2 Observability}

    Every kernel counter flows through one {!Mood_obs.Metrics} registry
    per database: statement counters are incremented directly; the
    buffer pool, plan cache, simulated disk, WAL and lock manager are
    absorbed as pull sources, read only at snapshot time so their hot
    paths stay untouched. *)

val metrics : t -> Mood_obs.Metrics.t
(** The database's metrics registry (counters under [stmt.*],
    [buffer.*], [plan_cache.*], [disk.*], [wal.*], [locks.*],
    [join.*], [scan.*], [slow_log.*]; a wire server serving the
    database adds [server.*], and a replica's applier [repl.*]). *)

val metrics_snapshot : t -> Mood_obs.Metrics.snapshot
(** [Metrics.snapshot (metrics t)]: every counter as sorted
    [(name, value)] rows — the server's STATS opcode sends these after
    the asking session's own rows. *)

val set_metrics_enabled : t -> bool -> unit
(** Arms/disarms push counters (pull sources are unaffected — they
    read accounting the components keep anyway). *)

(** One slow-query log entry. [sq_key] is the normalized statement
    text; with [sq_epoch] it is exactly the plan-cache key of the run
    that got logged. *)
type slow_query = {
  sq_key : string;
  sq_epoch : int;
  sq_wall : float;  (** wall seconds *)
  sq_io : float;    (** modeled I/O seconds charged by the statement *)
  sq_rows : int;
}

val set_slow_query_threshold : t -> float option -> unit
(** Arms the slow-query log: SELECTs whose wall time reaches the
    threshold (seconds) are recorded (newest first, bounded at 64
    entries), and statement latencies feed the [stmt.latency_s]
    histogram. [None] (the default) disarms — the statement hot path
    then never reads the clock. Raises [Invalid_argument] on a negative
    threshold. *)

val slow_query_threshold : t -> float option

val slow_queries : t -> slow_query list
(** Logged slow queries, newest first. *)

val clear_slow_queries : t -> unit
