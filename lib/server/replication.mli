(** The replica-side streaming thread: connects to the primary, pulls
    the bootstrap snapshot and then WAL record batches on a poll tick,
    and feeds them to {!Mood_repl.Apply} under the server's kernel
    lock.

    Lifecycle: {!start} spawns the thread; {!stop} joins it;
    {!promote} stops the stream, makes one best-effort final drain
    (the primary is usually already dead when promotion is wanted) and
    flips the node writable. Connection failures never kill the
    thread — it backs off one poll tick and reconnects; a primary
    whose log regressed (restart) triggers a fresh bootstrap.

    Its metrics live in the database's registry, so the STATS opcode
    and [mood top] report them with no extra plumbing: the applier's
    state through one pull source ([repl.applied_lsn],
    [repl.lag_records], [repl.pending_txns], [repl.commits_applied],
    [repl.records_applied], [repl.bootstraps]), and its events as the
    [repl.pulls] and [repl.reconnects] counters and the [repl.lag_s]
    histogram. Only the applier thread writes those, or PROMOTE's
    thread once {!promote} has joined the applier. *)

type t

val start :
  db:Mood.Db.t ->
  kernel:Mutex.t ->
  primary:string ->
  poll_interval:float ->
  unit ->
  t
(** Marks the database as [Replica primary], interns the metrics and
    registers the source above, then spawns the poll thread. [primary]
    is HOST:PORT or unix:PATH ({!Client.connect_endpoint}); [kernel]
    must be the same mutex the server serializes statement execution
    with. Call it before any other thread snapshots the database's
    registry. *)

val stop : t -> unit
(** Signals the thread and joins it. Idempotent. *)

val promote : t -> (int, string) result
(** Stop, final best-effort drain, then {!Mood_repl.Apply.promote}
    under the kernel lock: pending (uncommitted) buffers are the
    losers and are dropped, the term is bumped, the role flips to
    [Primary]. Returns the new term. [Error] only when the node never
    completed a bootstrap — there is no consistent image to promote. *)

val last_error : t -> string option
