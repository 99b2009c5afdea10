(** Multi-version object store: copy-on-write version chains keyed by a
    monotone commit clock, giving SELECTs lock-free snapshot reads
    while writers keep strict 2PL among themselves.

    Every heap slot has at most one entry holding the stamp of the
    value currently in the heap ([Committed s], or [Pending txn] while
    an uncommitted writer owns it) plus a chain of superseded versions,
    newest first. A snapshot captures the clock; a version is visible
    when its stamp is at or below the snapshot stamp (or is the
    reader's own pending write). Commit stamps are
    [max (clock + 1) commit_lsn] — on a primary they coincide with WAL
    commit LSNs, while a promoted replica (whose fresh local WAL
    restarts near LSN 1) keeps counting upward so stamps never regress
    below snapshots already handed out.

    Reads resolve through a dynamically-scoped {i view} installed with
    [with_view]: extent [get]/[scan] consult it, so every read path
    (scans, index fetches, path navigation, pointer joins) becomes
    snapshot-aware without threading a context through the executor.
    This is sound because the kernel serializes all access behind one
    lock (see {!Db}'s thread-safety contract).

    Tracking is {b off} by default — a bare [Store.t] (benchmarks, the
    crash harness) behaves exactly as before; [Db] switches it on. *)

type t

type view

val create : unit -> t

val tracking : t -> bool

val set_tracking : t -> bool -> unit

val without_tracking : t -> (unit -> 'a) -> 'a
(** Runs [f] with tracking disabled: compensation, recovery and image
    installs rewrite the heap without minting versions. *)

val is_empty : t -> bool
(** No versioned history at all — every open snapshot's view equals
    the heap (GC keeps an entry alive while any live snapshot still
    needs its chain), so readers may skip per-record resolution. *)

val bump_stamp : t -> int -> unit
(** Raises the clock to at least the argument (replica bootstrap sets
    it to the snapshot LSN). Never lowers it. *)

val with_commit_stamp : t -> int -> (unit -> 'a) -> 'a
(** Runs [f] with writes stamped [Committed lsn] directly — replica
    apply installs a whole committed batch under the primary's commit
    LSN, bypassing the pending state. *)

val record_write : t -> ?txn:int -> file:int -> slot:int ->
  before:(unit -> Mood_model.Value.t option) -> unit -> unit
(** Called by the extent layer after each heap mutation; [before]
    produces the pre-image ([None] = slot was absent) and is forced
    only when a version is actually chained — decoding the before
    payload is not free, and tracking may be off or the write a
    same-transaction rewrite. With [txn] the slot goes
    [Pending txn] until commit/abort; without, the write is its own
    single-statement commit. First same-transaction rewrite wins: later
    ones chain nothing. No-op when tracking is off. *)

val commit : t -> txn:int -> lsn:int -> unit
(** Stamps the transaction's pending versions [Committed] at
    [max (clock + 1) lsn] and releases its deferred index removals to
    the horizon queue. *)

val abort : t -> txn:int -> unit
(** Pops the transaction's pending versions back to their pre-image
    stamps (the heap itself is restored by compensation, run under
    [without_tracking]) and drops its deferred index removals. *)

val open_snapshot : t -> ?txn:int -> unit -> view
(** Captures the clock and the in-flight writer table. [txn] makes the
    view read its own uncommitted writes. Registers the snapshot so GC
    keeps every version it can still see. *)

val close_snapshot : t -> view -> unit

val active_view : t -> view option

val with_view : t -> view -> (unit -> 'a) -> 'a
(** Installs [view] as the ambient read view for the extent layer while
    [f] runs (restores the previous view after). *)

val note_read : t -> unit
(** Counts one snapshot-served statement (for the metrics surface). *)

val read : t -> view -> file:int -> slot:int ->
  heap:(unit -> Mood_model.Value.t option) -> Mood_model.Value.t option
(** Resolves a slot under a view: the heap value when the current
    version is visible, otherwise the newest chained version at or
    below the snapshot stamp ([None] = the slot did not exist then).
    Must be consulted even when the slot directory misses — a committed
    delete leaves history only the chain remembers. *)

val diverges : t -> view -> file:int -> bool
(** Does any slot of this heap file hold a current version the view
    cannot see (a later commit, or another transaction's pending
    write)? [false] means every {!read} under the view returns the
    heap value and {!hidden_slots} is empty, so a scan may take the raw
    heap path — same invariant as {!is_empty}, refined per file and
    per view. *)

val hidden_slots : t -> view -> file:int -> present:(int -> bool) ->
  (int * Mood_model.Value.t) list
(** Slots of [file] that are invisible (or absent) in the current heap
    but hold a chained version visible to [view] — a snapshot scan
    appends these to the directory scan. *)

val defer_removal : t -> ?txn:int -> (unit -> unit) -> unit
(** Queues an index-posting removal so snapshot readers can still find
    superseded versions through the index (a recheck on fetch filters
    the false positives). Applied once the horizon passes the removing
    commit; dropped if the transaction aborts. Runs immediately when
    tracking is off or no snapshot is open. *)

val drain_removals : t -> unit
(** Applies deferred removals whose stamp is at or below the horizon. *)

val clear_removals : t -> unit
(** Forgets all queued removals — index rebuilds replace the structures
    the closures point into. *)

val drop_file : t -> file:int -> unit
(** Discards all version history for a heap file ([Extent.clear]). *)

val gc : t -> unit
(** Prunes chains below the horizon (the oldest open snapshot's stamp;
    everything when none is open), drops entries equivalent to plain
    heap state, and drains matured index removals. Hooked into
    checkpoints and run opportunistically every few hundred versions. *)

val reset : t -> unit
(** Drops all chains and queues (recovery / image install rebuilds the
    heap wholesale) but keeps the clock and counters — stamps must
    never regress. *)

val drop_snapshots : t -> unit
(** Crash restart: unregisters every open snapshot. Their readers died
    with the crash, so GC and deferred index removals stop waiting for
    them. *)

val snapshots_open : t -> int

val metrics : t -> (string * int) list
(** The [mvcc.*] gauge/counter rows for the metrics registry. *)
