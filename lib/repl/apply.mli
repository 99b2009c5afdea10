(** Replica-side applier: the state machine that turns shipped
    snapshots and record batches into a database image that converges
    to the primary's committed state.

    Networking-free — the server's poll loop and the sim harness both
    drive it with decoded {!Codec} payloads, so every transition is
    unit-testable.

    Apply-on-commit: data records buffer per transaction and hit the
    stored image only when that transaction's [Commit] arrives (an
    [Abort] discards the buffer). The replica therefore never holds
    uncommitted effects in its image, which makes promotion's
    undo-of-losers a buffer drop, and makes re-application after a
    re-pull idempotent, since putting a record's image back twice
    ({!Mood_catalog.Catalog.put_image}) equals putting it back once.
    Shipped records carry the {e primary's} heap-file ids; they are
    rewritten through the translation map the bootstrap snapshot
    established before touching the image.

    All calls touching the [Db.t] follow its single-threaded rule —
    the server serializes them behind the kernel lock. *)

type t

val create : Mood.Db.t -> t
(** Wraps a database (fresh or re-bootstrapping) as an applier target.
    Does not change the database's role — the caller decides when the
    node becomes a [Replica]. *)

val install_snapshot : t -> Codec.snapshot -> unit
(** Full bootstrap: executes the schema script (only when the database
    has no user classes yet — a re-bootstrap over an identical schema
    skips it), builds the file-id translation map, installs the
    slot-faithful contents, scrubs the image-resident effects of
    transactions that were in flight at the checkpoint and re-buffers
    them as pending, rebuilds indexes, re-derives statistics, and
    positions the cursor at the snapshot LSN. Raises [Failure] when
    the schema script fails or the snapshot names unknown classes. *)

val apply_batch :
  t -> Codec.batch -> [ `Applied | `Stale_primary of int | `Primary_regressed ]
(** Feeds one pulled batch. Records at or below the cursor are skipped
    (a crash-retried pull re-delivers them harmlessly); fresh records
    advance the cursor one by one. [`Stale_primary term] means the
    answering node's term is behind ours — stop pulling from it.
    [`Primary_regressed] means its durable horizon is behind our
    cursor (a restarted primary with a fresh log) — re-bootstrap.
    A batch term higher than ours is adopted. *)

val promote : t -> int
(** Promotion after drain: discards pending (never-applied) loser
    buffers, rebuilds indexes, re-derives statistics, bumps the term,
    flips the database's role to [Primary] and returns the new term.
    The caller is responsible for having drained the pull stream as
    far as it wants to (committed-and-shipped transactions survive;
    in-flight ones are the losers). *)

(** {2 Watermarks and accounting} *)

val applied_lsn : t -> int
(** The cursor: every shipped record at or below this LSN has been
    processed (buffered, applied, or skipped as known). *)

val horizon : t -> int
(** The primary's durable horizon as of the last batch. *)

val lag_records : t -> int
(** [horizon - applied_lsn], never negative. *)

val term : t -> int
val pending_txns : t -> int
val commits_applied : t -> int
val records_applied : t -> int
val bootstraps : t -> int
val last_batch_sent_us : t -> int
(** The [b_sent_us] stamp of the newest batch (0 before the first) —
    the caller turns it into a lag histogram observation. *)
