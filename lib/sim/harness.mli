(** Deterministic crash–recovery harness: three crash_sim phases that
    drive the shipped [Db] with one transactional workload, mirrored in
    a pure {!Model} oracle. Writers are session transactions running
    MOODSQL inserts, updates and deletes over two classes, [SimA] (even
    keys) and [SimB] (odd keys), each with a B+-tree on [k] and a hash
    index on [data]. [Db] locks whole extents, so writers wait on each
    other and deadlock victims abort. Whenever no transaction is open,
    and after every restart, [Catalog.validate_indexes] must find the
    indexes equal to the data; each phase counts these [index checks].
    Everything derives from the integer seed. *)

val recovery : Phase.t
(** One cycle: run the workload with random sharp checkpoints, crash
    it at a random point — either a disk-level write fault (possibly
    mid log-flush or mid buffer write-back, with torn pages) or a cut
    between operations — then lose the dirty frames and the
    unpersisted log tail, run [Db.recover], and compare the recovered
    classes against the oracle. A write to each class after the restart
    must be granted. Sabotage persists a forged [Commit] for every
    transaction open at the crash. *)

val replication : Phase.t
(** One cycle: the primary runs the workload (it never crashes —
    commits are durable at flush) while a second [Db] pulls from it
    through [Mood_repl]: [Primary.snapshot] and [Primary.batch]
    payloads cross [Codec] and feed [Apply]. The fault stream crashes
    the replica mid-batch (a fresh database bootstraps from a {e new}
    snapshot, possibly with different transactions in flight) and
    delivers whole batches twice, which [Apply]'s cursor must skip. At
    the end the replica catches up and promotes, and must hold exactly
    the oracle's committed bindings. Sabotage installs snapshots whose
    in-flight transactions ([s_active], [s_undo]) are emptied. *)

val mvcc : Phase.t
(** One cycle: the workload runs with {e no} disk faults — flushes
    always survive, so the oracle's per-snapshot expectations are
    exact. Up to four snapshots, each a read-only session transaction
    read with [Db.exec_in_txn], are re-read against
    {!Model.snapshot_expected} while commits, aborts, checkpoints and
    [Db.gc_versions] runs happen around them; then the cycle crashes at
    the step budget. Recovery must reproduce the committed bindings,
    and a snapshot opened afterwards must read exactly that state and
    keep reading it across a committed write. Sabotage calls
    [Version_store.reset] where the cycle would call
    [Db.gc_versions]. *)

(** {2 Shared with the 2PC phase} *)

val sim_db : buffer_capacity:int -> Mood.Db.t
(** A fresh database with the [SimA]/[SimB] schema. *)

val class_of : int -> string
(** The class holding a key. *)

val contents : Mood.Db.t -> (int * string) list
(** Both classes as a standalone SELECT reads them, ascending by key. *)

val check_indexes : Mood.Db.t -> string list
(** [Catalog.validate_indexes], as violations. *)

val probe_write : Mood.Db.t -> string list
(** Writes to each class in a session transaction, then aborts it: a
    violation for each refused write. After a restart no lock of the
    crashed transactions may outlive them. *)

val against_oracle :
  string -> (int * string) list -> (int * string) list -> string list
(** [[]] when the read bindings equal the oracle's, else one
    violation naming what was read. *)

val guard : string -> (unit -> string list) -> string list
(** Runs a check; an exception it raises becomes a violation. *)
