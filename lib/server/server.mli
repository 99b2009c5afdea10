(** The MOOD network front end: a concurrent multi-client server over
    one shared kernel.

    Architecture (DESIGN.md §3e, §3k):

    - A single {e reactor} thread owns every client socket behind one
      [Unix.select] and executes every request itself. Each connection
      is an explicit state machine — reading-frame → executing →
      writing-reply — so an idle connection costs one fd and a small
      record: no thread, no stack, no timer. 10k idle sessions are as
      cheap as one.
    - A complete request frame runs at once against the shared [Db.t]
      under one {b kernel lock} — the kernel is single-threaded by
      design (plan cache, buffer-pool LRU, catalog tables are
      unsynchronized), and the lock is shared with the log-writer and
      a replica's applier. A connection has at most one request in
      flight; requests that arrive meanwhile wait in their sockets, so
      there is no server-side queue to overflow. Lock conflicts
      surface as [Txn_busy] {e outside} the kernel lock, and the
      reactor {b never waits}: the statement is parked in a list only
      the reactor touches, and retried once the lock manager's
      {e wake-on-unlock} hook reports a release — every release runs
      on the reactor, so no wakeup is lost and nothing polls. The wait
      ends when the blocker commits, the deadline passes, or the lock
      manager picks this session as a deadlock victim — the latter two
      are reported as a retryable [ABORTED] reply, never a stall.
    - [PROMOTE] is the one request that waits on the network (it
      drains a possibly dead primary); it runs on a short-lived thread
      of its own and hands its reply back like the log-writer does.
    - {b Group commit}: a committing session performs its {e logical}
      commit under the kernel lock (Commit record appended, versions
      stamped, locks released) and then queues its WAL force with a
      dedicated {e log-writer} thread. All commits arriving while one
      force is in flight are covered by the next single force; the
      emulated [commit_latency] is paid once per batch, outside the
      kernel lock. The reply is held until the shared force covers the
      commit's LSN — the ACK never outruns durability — and early
      lock release is safe because the single log forces in order.
      The log-writer hands held replies back to the reactor through a
      completion list and a wake pipe; it never touches a socket.
    - Disconnects (clean or torn) abort the session's open transaction
      through the WAL compensation path and release all its locks.
    - {b Counters} live in the served database's metrics registry
      ({!Mood.Db.metrics}), next to the kernel's, and each has one
      writer: the reactor writes the [server.*] event counters and
      every session's counters, the log-writer's group-commit state is
      written under its mutex and read by a pull source, kernel
      counters are written under the kernel lock, and a replica's
      applier writes only [repl.*]. STATS is {!Session.stats_rows}
      over one registry snapshot taken under the kernel lock.

    Graceful {!shutdown} stops accepting, tears down idle sessions,
    answers in-flight and parked statements, aborts orphaned
    transactions and joins every thread; {!audit} then verifies
    nothing leaked. *)

type config = {
  host : string;             (** TCP bind address (default 127.0.0.1) *)
  port : int option;         (** [Some 0] binds an ephemeral port; [None]
                                 disables TCP *)
  unix_path : string option; (** optional unix-domain listener *)
  lock_timeout : float;      (** seconds a statement may wait for locks
                                 before its transaction is aborted *)
  replica_of : string option;
      (** [Some endpoint] starts the node as a streaming read replica
          of the primary at [endpoint] (HOST:PORT or unix:PATH): a
          {!Replication} thread bootstraps from a snapshot and pulls
          WAL batches continuously; write statements are answered with
          a retryable [Redirect] carrying this endpoint *)
  poll_interval : float;     (** replica pull tick in seconds when the
                                 stream is idle (catch-up bursts pull
                                 back-to-back) *)
  commit_latency : float;
      (** when > 0, every WAL force pays this many seconds of real
          wall time — an emulated synchronous log-force. Statement-
          side forces (PREPARE, checkpoints) pay it inside the kernel
          lock; group-committed forces pay it once per {e batch} in
          the log-writer, outside the kernel. Turns CPU-trivial write
          workloads I/O-bound so scaling experiments measure storage
          parallelism rather than wire overhead; 0 disables *)
}

val default_config : config
(** 127.0.0.1, ephemeral TCP port, no unix socket, 10 s lock timeout,
    no replication, 50 ms poll tick, no emulated commit latency. *)

type t

val start : ?config:config -> Mood.Db.t -> t
(** Binds, listens, adds the server's metrics to the database's
    registry and spawns the reactor and log-writer threads (plus the
    applier on a replica, whose metrics are registered first). The
    caller keeps ownership of the [Db.t] but must stop touching it
    from other threads until [shutdown] (the server serializes all
    access behind its kernel lock). A database is served by at most
    one server, even after [shutdown]: a second [start] on it raises
    [Invalid_argument], since it would register its rows twice. Raises
    [Unix.Unix_error] when binding fails.

    The registry then also holds the [server.*] rows: [statements]
    (requests executed; PING, HELLO and QUIT are answered inline and
    not counted), [deadlock_aborts], [timeout_aborts],
    [disconnect_aborts] (orphans aborted at teardown),
    [protocol_errors] (sessions torn down on framing violations),
    [redirects] (writes refused because this node is a replica),
    [prepares], [decides], [wrong_shard_redirects], [sessions_active],
    [sessions_opened], and the group-commit [gc_commits] (commits
    handed to the log-writer), [gc_batches] (shared forces) and
    [gc_max_batch] (most commits one force released). The event
    counters follow {!Mood.Db.set_metrics_enabled} like the kernel's;
    the source rows do not. *)

val port : t -> int option
(** The actually bound TCP port (resolves [Some 0]). *)

val db : t -> Mood.Db.t

val shutdown : t -> unit
(** Graceful: stop accepting, tear down idle sessions, answer in-flight
    and parked statements, abort orphaned transactions, join all
    threads, close sockets. Idempotent. *)

val audit : t -> (unit, string) result
(** After [shutdown]: checks that no session is still registered, no
    transaction is active in the kernel or the lock manager, and the
    lock table holds no resources. [Error] describes the leak. *)
