(** ARIES-lite write-ahead log.

    ESM supplies "backup and recovery of data"; this substitute logs
    logical record operations against heap files, stamps every record
    with a monotonically increasing LSN, supports checkpoints carrying
    the active-transaction table, and drives a redo-of-committed /
    undo-of-losers recovery pass bounded by the last checkpoint. The
    log is an in-memory sequence with an explicit [persisted]
    watermark so tests can model a crash that loses the unpersisted
    tail; an optional persist hook charges (and can fail) each log
    write, modelling a torn log flush. *)

type t

type lsn = int
(** Log sequence number: strictly increasing from 1, dense. *)

type record =
  | Begin of int                       (** transaction id *)
  | Commit of int
  | Abort of int
  | Insert of { txn : int; file : int; rid : Heap_file.rid; payload : string }
  | Delete of { txn : int; file : int; rid : Heap_file.rid; before : string }
  | Update of { txn : int; file : int; rid : Heap_file.rid; before : string; after : string }
  | Checkpoint of int list             (** active transactions at the checkpoint *)
  | Prepare of { txn : int; gid : int }
      (** 2PC vote: the participant promises to commit [txn] if told to.
          [gid] is the coordinator's global transaction id. *)
  | Decision of { gid : int; commit : bool }
      (** 2PC outcome — force-written by the *coordinator* to its own
          log before any COMMIT decision is announced (presumed abort:
          no record is needed for an abort decision). *)

val create : unit -> t

val append : t -> record -> lsn
(** Appends and returns the record's LSN. *)

val set_persist_hook : t -> ?sync:(unit -> unit) -> (record -> unit) -> unit
(** Called once per record as [flush] persists it — typically wired to
    [Disk.write_page] so log forces are charged (and can crash) like
    any other write. If the hook raises, the watermark stops just
    before the failing record: the log tail is torn exactly at the
    crash point and the exception propagates (the commit was never
    acknowledged). [sync], when given, runs once per [flush] after the
    whole unpersisted batch went through the hook — a real log backing
    the hook fsyncs there, so the flush returning means the decision
    survived the OS too, not just the page cache. *)

val clear_persist_hook : t -> unit

val flush : t -> unit
(** Moves the persisted watermark to the end of the log (force at
    commit / checkpoint), invoking the persist hook per record. *)

val forces : t -> int
(** Number of [flush] calls — each is one log force, however many
    records it persisted. *)

(** {2 Group commit}

    A committing transaction appends its [Commit] record and takes a
    {e ticket} — the LSN its durability claim depends on. A dedicated
    log-writer then issues one [force_group] covering every ticket
    taken during the previous force, and each committer is released
    (its commit acknowledged) only once its ticket is [covered]. One
    device force amortizes over the whole batch. *)

val ticket : t -> lsn
(** The current end of the log: a force covering this LSN makes
    everything appended so far durable. Equal to [last_lsn]. *)

val covered : t -> lsn -> bool
(** Is the ticket inside the durable prefix? [true] releases the
    committer that took it. *)

val force_group : t -> lsn -> bool
(** Forces the log iff the ticket is not yet covered; [false] means a
    concurrent force already carried it past the watermark and no
    device write was paid. *)

val lose_unpersisted : t -> int
(** Simulates a crash: truncates the log at the watermark, returning
    the number of records lost. *)

val records : t -> record list
(** Persisted and unpersisted records, oldest first. *)

val records_with_lsn : t -> (lsn * record) list

val persisted_records : t -> (lsn * record) list
(** The durable prefix only, oldest first. *)

val persisted_last_lsn : t -> lsn
(** LSN of the newest durable record; 0 when nothing is persisted.
    This is the primary's shipping horizon: replication never sends a
    record that a crash could still take back. *)

val persisted_after : t -> lsn -> (lsn * record) list
(** The streaming cursor: durable records with LSN strictly greater
    than the argument, oldest first. [persisted_after t 0] is the
    whole durable prefix; a replica polls with its applied watermark
    and receives exactly the records it has not yet seen. *)

val txn_of : record -> int option
(** The transaction a record belongs to ([None] for [Checkpoint] and
    [Decision], which are log-global). *)

val length : t -> int

val last_lsn : t -> lsn
(** 0 when the log is empty. *)

val commit_persisted : t -> int -> bool
(** Is this transaction's [Commit] in the durable prefix? Resolves
    commits in limbo after a crash mid-flush: the commit record made
    it to disk iff this returns true. *)

val last_checkpoint : t -> (lsn * int list) option
(** The newest persisted [Checkpoint] (its LSN and active-transaction
    table). *)

type analysis = {
  a_checkpoint_lsn : lsn;        (** 0 when recovering without a checkpoint *)
  a_checkpoint_active : int list;
  a_committed : (int, unit) Hashtbl.t;
  a_losers : (int, unit) Hashtbl.t;
      (** transactions with data records baked into the checkpoint base
          image (LSN <= checkpoint) that neither committed nor finished
          aborting before the image was taken — their image-resident
          effects must be undone *)
  a_indoubt : (int, int) Hashtbl.t;
      (** transaction id -> coordinator gid for durable [Prepare]s with
          no durable [Commit]/[Abort]: the participant may neither undo
          nor forget these — their fate belongs to the coordinator.
          In-doubt transactions are excluded from [a_losers] and their
          data records are fed to [redo] alongside the committed. *)
}

val decisions : t -> (int * bool) list
(** Durable [Decision] records, oldest first, as [(gid, commit)] —
    what a restarting coordinator replays to resolve in-doubt
    participants (any prepared gid absent here is presumed aborted). *)

val analyze : ?checkpoint_lsn:lsn -> t -> analysis
(** The analysis pass over the durable prefix. [checkpoint_lsn]
    overrides checkpoint discovery — pass the LSN of the checkpoint
    whose base image you actually hold (0 for "no checkpoint, replay
    from scratch"); omitting it uses the newest persisted checkpoint. *)

val recover :
  ?checkpoint_lsn:lsn ->
  ?redo:(record -> unit) ->
  ?undo:(record -> unit) ->
  t ->
  analysis
(** The ARIES-lite restart pass against a store holding the checkpoint
    base image: first [undo] is fed the losers' data records with
    LSN <= checkpoint, newest first (scrubbing uncommitted effects out
    of the image); then [redo] is fed committed transactions' data
    records with LSN > checkpoint, in log order (replaying the
    surviving suffix of history). Under strict two-phase locking the
    two passes never touch the same object out of order. *)

val undo_records : t -> int -> record list
(** The data records of the given transaction, newest first — what an
    abort must compensate. Includes unpersisted records (a live abort
    compensates everything it did, flushed or not). Walks the log only
    back to the transaction's [Begin], so its cost grows with the
    transaction's age, not the log's; a log holding no [Begin] for it
    is walked whole. *)

(** {2 Binary record codec}

    Replication ships log records over the wire; the log layer owns
    their serialization. Tag byte per variant, big-endian u32 integers,
    u32-length-prefixed strings. *)

exception Codec_error of string
(** Raised by the decoders on truncated, oversized or unknown input —
    never a bare [Invalid_argument] from an out-of-bounds read. *)

val buf_u32 : Buffer.t -> int -> unit
(** Appends a big-endian u32. Raises [Invalid_argument] outside
    [0, 0xFFFF_FFFF]. *)

val buf_str : Buffer.t -> string -> unit
(** Appends a u32 length, then the bytes. *)

val read_u32 : string -> int ref -> int
(** Reads a big-endian u32 at [!pos] and advances the cursor; raises
    {!Codec_error} when fewer than four bytes remain. *)

val read_str : string -> int ref -> string
(** Reads a u32-length-prefixed string at [!pos] and advances the
    cursor; raises {!Codec_error} on a truncated string. *)

val encode_record : record -> string

val decode_record : string -> record
(** Inverse of [encode_record]; rejects trailing bytes. *)

val decode_record_at : string -> int ref -> record
(** Decodes one record starting at [!pos] and advances the cursor past
    it — the building block for reading a concatenated record batch. *)
