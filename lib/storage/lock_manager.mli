(** Strict two-phase lock manager.

    ESM gives MOOD "controlling data access and concurrency"; MOOD
    itself additionally locks a class's shared object while the Function
    Manager rebuilds it (Section 2). Transactions are explicit tokens;
    every lock is exclusive, on a named resource (a class extent, an
    index, a shared-object file), and has one holder. Conflicts either
    block (reported as [`Would_block]) or, when a cycle arises in the
    waits-for graph, the requester is chosen as the deadlock victim. *)

type t

type txn

type resource = string
(** E.g. ["extent:Vehicle"], ["shared_object:Vehicle"]. *)

type outcome = Granted | Would_block | Deadlock

val create : unit -> t

val begin_txn : t -> txn

val txn_id : txn -> int

val acquire : t -> txn -> resource -> outcome
(** [Granted] also when the transaction already holds the lock.
    [Would_block] registers the wait and leaves the waits-for edge in
    place; a subsequent conflicting [acquire] that closes a cycle
    returns [Deadlock] (the requester aborts). *)

val release_all : t -> txn -> unit
(** Commit/abort: drops every lock and wait of the transaction, then
    fires the release hook (if any). *)

val set_release_hook : t -> (unit -> unit) -> unit
(** Called after every [release_all] — the server hooks this to retry
    parked lock-waiters the moment a blocker finishes, instead of on a
    fixed retry tick. The hook runs on the releasing thread and must be
    cheap and non-blocking (the server's only marks that a release
    happened; its reactor, which also does the releasing, retries the
    parked statements before it next sleeps). *)

val clear_release_hook : t -> unit

val reset : t -> unit
(** Crash restart: forgets every lock, wait and live transaction. The
    holders died with the crash; transaction ids and the outcome
    counters keep counting. *)

val holder : t -> resource -> int option
(** The id of the transaction holding the lock, for inspection and
    tests. *)

val resource_count : t -> int
(** Resources with at least one holder tracked in the lock table.
    [release_all] drains empty entries, so this returns to 0 when all
    transactions finish (leak regression guard). *)

val active_transactions : t -> int

(** Monotonic outcome counts of [acquire] over the manager's life:
    every [Granted] (including re-grants), every
    [Would_block] and every [Deadlock] verdict. *)
type counters = { grants : int; waits : int; deadlocks : int }

val counters : t -> counters
