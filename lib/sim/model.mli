(** Pure in-memory oracle for the crash–recovery harness.

    Tracks what a correct database must contain: a [committed] map
    (durable truth), a [live] view (committed plus every open
    transaction's pending effects — what the SUT's heap should read
    mid-run under strict 2PL), and per-transaction pending-op lists so
    commit, abort and crash transitions replay exactly. No storage
    code is shared with the system under test. *)

type t

val create : unit -> t

val begin_txn : t -> int -> unit

val insert : t -> txn:int -> key:int -> data:string -> unit

val update : t -> txn:int -> key:int -> data:string -> unit
(** The before-image is taken from the live view; the key must be
    live. *)

val delete : t -> txn:int -> key:int -> unit

val find_live : t -> int -> string option
(** The live view — used by the workload generator to decide between
    insert and update/delete for a key. *)

val commit : t -> int -> unit
(** Folds the transaction's pending ops (oldest first) into
    [committed]. Also how a limbo commit is resolved after a crash:
    called iff the commit record made the durable log prefix. *)

val abort : t -> int -> unit
(** Rolls the live view back, newest op first. *)

val crash : t -> unit
(** Discards every pending transaction and resets the live view to the
    committed map. *)

val committed_bindings : t -> (int * string) list
(** Ascending by key — the exact contents a correct recovery must
    reproduce. *)

(** {2 Per-snapshot expectations (MVCC cycles)}

    An MVCC snapshot must keep returning the committed state as of its
    capture, however much history commits after it. The oracle records
    that state per snapshot id; [crash] forgets all of them (snapshots
    do not survive a restart). *)

val register_snapshot : t -> int -> unit
(** Captures the current committed map under the given snapshot id. *)

val snapshot_expected : t -> int -> (int * string) list option
(** The bindings the snapshot must read, ascending by key; [None] for
    an unknown (or forgotten) id. *)

val forget_snapshot : t -> int -> unit
