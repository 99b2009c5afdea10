(** The MOOD network front end: a concurrent multi-client server over
    one shared kernel.

    Architecture (DESIGN.md §3e, §3k):

    - A single {e reactor} thread owns every client socket behind one
      [Unix.select]. Each connection is an explicit state machine —
      reading-frame → queued/executing → writing-reply — so an idle
      connection costs one fd and a small record: no thread, no stack,
      no timer. 10k idle sessions are as cheap as one.
    - Complete request frames are submitted to a {b bounded} queue; a
      full queue is answered with [BUSY] immediately (admission
      control — the client retries, the server never builds unbounded
      latency). [PING]/[HELLO]/[QUIT] are answered inline by the
      reactor.
    - A fixed {e worker pool} drains the queue and executes statements
      against the shared [Db.t] under one {b kernel lock} — the kernel
      is single-threaded by design (plan cache, buffer-pool LRU,
      catalog tables are unsynchronized), so execution is serialized
      and the pool's win is overlapping parsing, lock waits and commit
      fsyncs across sessions. Workers hand replies back to the reactor
      through a completion list and a wake pipe; they never touch a
      socket. Lock conflicts surface as [Txn_busy] {e outside} the
      kernel lock, and the worker {b never waits}: the statement is
      parked and re-admitted by the lock manager's {e wake-on-unlock}
      hook the instant its blocker releases (a release-generation
      counter closes the attempt→park race, so no wakeup is lost and
      nothing polls). The wait ends when the blocker commits, the
      deadline passes, or the lock manager picks this session as a
      deadlock victim — the latter two are reported as a retryable
      [ABORTED] reply, never a stall.
    - {b Group commit}: a committing session performs its {e logical}
      commit under the kernel lock (Commit record appended, versions
      stamped, locks released) and then queues its WAL force with a
      dedicated {e log-writer} thread. All commits arriving while one
      force is in flight are covered by the next single force; the
      emulated [commit_latency] is paid once per batch, outside the
      kernel lock. The reply is held until the shared force covers the
      commit's LSN — the ACK never outruns durability — and early
      lock release is safe because the single log forces in order.
    - Disconnects (clean or torn) abort the session's open transaction
      through the WAL compensation path and release all its locks.

    Graceful {!shutdown} stops accepting, tears down idle sessions,
    drains in-flight and queued statements, aborts orphaned
    transactions and joins every thread; {!audit} then verifies
    nothing leaked. *)

type config = {
  host : string;             (** TCP bind address (default 127.0.0.1) *)
  port : int option;         (** [Some 0] binds an ephemeral port; [None]
                                 disables TCP *)
  unix_path : string option; (** optional unix-domain listener *)
  workers : int;             (** worker-pool size (lock waits never pin
                                 a worker, so a small pool suffices) *)
  queue_capacity : int;      (** admission-control bound *)
  max_frame : int;           (** request-frame size limit *)
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
  group_commit : bool;
      (** batch concurrent COMMIT forces into one shared WAL force
          (default). [false] restores the one-force-per-commit path —
          the A/B baseline for the group-commit experiments *)
}

val default_config : config
(** 127.0.0.1, ephemeral TCP port, no unix socket, 4 workers, queue of
    64, 4 MiB frames, 10 s lock timeout, no replication, 50 ms poll
    tick, group commit on. *)

type t

type stats = {
  sessions_opened : int;
  sessions_active : int;
  statements : int;          (** jobs executed by the worker pool *)
  busy_rejections : int;     (** admission-control [BUSY] replies *)
  deadlock_aborts : int;     (** transactions aborted as deadlock victims *)
  timeout_aborts : int;      (** transactions aborted on lock timeout *)
  disconnect_aborts : int;   (** orphaned transactions aborted at teardown *)
  protocol_errors : int;     (** sessions torn down on framing violations *)
  redirects : int;           (** write statements refused with [Redirect]
                                 because this node is a replica *)
}

val start : ?config:config -> Mood.Db.t -> t
(** Binds, listens and spawns the reactor/worker/parker/log-writer
    threads. The caller keeps ownership of the [Db.t] but must stop
    touching it from other threads until [shutdown] (the server
    serializes all access behind its kernel lock). Raises
    [Unix.Unix_error] when binding fails. *)

val port : t -> int option
(** The actually bound TCP port (resolves [Some 0]). *)

val stats : t -> stats
(** The wire STATS surface additionally reports [server.queue_forced]
    and the group-commit batching counters [server.gc_batches],
    [server.gc_commits], [server.gc_max_batch]. *)

val db : t -> Mood.Db.t

val shutdown : t -> unit
(** Graceful: stop accepting, tear down idle sessions, drain in-flight
    and queued statements, abort orphaned transactions, join all
    threads, close sockets. Idempotent. *)

val audit : t -> (unit, string) result
(** After [shutdown]: checks that no session is still registered, no
    transaction is active in the kernel or the lock manager, and the
    lock table holds no resources. [Error] describes the leak. *)
