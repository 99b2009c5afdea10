(** Per-connection server sessions and their registry.

    A session is born when a connection is accepted and dies when the
    peer quits, disconnects, or commits a protocol violation. It
    carries the connection's identity (id, peer name), its current
    transaction (at most one — the wire protocol has no nesting) and
    its statement counters, which only the thread serving the
    connection writes. The registry is the server's authoritative
    view of who is connected: shutdown walks it to wake blocked
    readers, and the leak audit checks it drains to zero.

    The registry also owns the socket lifecycle: [remove_and_close]
    and [shutdown_read] are serialized by the registry lock and gated
    on the session's liveness, so a handler tearing its session down
    can never race the server shutting the same descriptor down (or a
    recycled descriptor belonging to someone else). *)

type t = {
  id : int;
  fd : Unix.file_descr;
  peer : string;
  mutable txn : Mood.Db.session_txn option;  (** open transaction, if any *)
  mutable hello : int option;
      (** protocol version negotiated by HELLO, if the client sent one;
          the v2-gated sharding opcodes (PREPARE/DECIDE/SHARD_MAP)
          refuse to run without it *)
  mutable statements : int;   (** statements executed (all kinds) *)
  mutable rows_returned : int;  (** result rows sent back over the wire *)
  mutable aborts : int;       (** transactions rolled back on this session *)
  mutable alive : bool;       (** flipped once, by [remove_and_close] *)
}

type registry

val create_registry : unit -> registry

val register : registry -> fd:Unix.file_descr -> peer:string -> t
(** Allocates the next session id and tracks the session. *)

val remove_and_close : registry -> t -> unit
(** Untracks, marks dead, closes the descriptor. Idempotent. *)

val shutdown_read : registry -> t -> unit
(** Half-closes the receive side so a blocked frame read returns EOF
    and the handler runs its normal teardown (aborting any orphaned
    transaction). No-op on a dead session. *)

val count : registry -> int
(** Live sessions. *)

val total_opened : registry -> int

val snapshot : registry -> t list
(** The live sessions at this instant (shutdown iterates this). *)

val stats_rows : t -> Mood_obs.Metrics.snapshot -> string list
(** A STATS reply's rows, ["name value"] each: the session's
    [session.statements], [session.rows_returned] and
    [session.aborts], then the node's registry [snapshot]. The one
    place the server and the router render them. *)
