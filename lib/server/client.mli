(** Blocking wire-protocol client: one socket, one outstanding request.

    Shared by the load generator, [mood_cli --connect] and the tests —
    there is exactly one implementation of the framing rules on the
    client side. All calls raise {!Wire.Protocol_error} on framing
    violations and {!Disconnected} when the server hangs up. *)

exception Disconnected

type t

val connect : ?handshake:bool -> port:int -> unit -> t
(** TCP to 127.0.0.1. [handshake] (default true)
    sends [Hello] with {!Wire.protocol_version} before returning and
    raises [Failure] with the server's explanation on a version
    mismatch — pass [~handshake:false] to speak to v0 servers. *)

val resolve_host : string -> Unix.inet_addr
(** An IP address as written, else the first address
    [Unix.gethostbyname] finds for the name. Raises [Failure] when the
    name does not resolve. The one resolver of clients, servers and
    the router. *)

val sockaddr_name : Unix.sockaddr -> string
(** [IP:PORT] or [unix:PATH]: how the session registries name a
    peer. *)

val endpoint : string -> Unix.sockaddr
(** Parses an endpoint spec: [HOST:PORT], where HOST is resolved by
    {!resolve_host} and an empty HOST means 127.0.0.1, or [unix:PATH].
    Raises [Failure] naming the spec when it is neither, and
    {!resolve_host}'s [Failure] when HOST does not resolve. *)

val connect_endpoint : string -> t
(** Connects to [endpoint spec] and sends the handshake. *)

val request : t -> Wire.request -> Wire.response
(** Sends one frame, reads one frame. *)

val exec : t -> string -> Wire.response
val query : t -> string -> Wire.response
val begin_txn : t -> Wire.response
val commit : t -> Wire.response
val abort : t -> Wire.response
val ping : t -> Wire.response

val stats : t -> (string * int) list
(** Sends [Stats] and parses the ["name value"] reply rows: this
    session's counters ([session.*]) first, then the node's metrics
    snapshot in key order, which holds the server's counters
    ([server.*]) with the kernel's. Raises [Failure] on an [Err] reply
    and {!Wire.Protocol_error} on any other response shape. *)

(** {2 Replication calls} — thin wrappers returning the raw response;
    the caller interprets [Err]/[Redirect] (stale term, fenced node)
    as protocol outcomes, not transport failures. *)

val repl_snapshot : t -> Wire.response
val repl_pull : t -> term:int -> after:int -> Wire.response
val promote : t -> Wire.response
val fence : t -> term:int -> primary:string -> Wire.response

val server_info : t -> (string * int) option
(** [(role, term)] parsed from the HELLO reply (["role=primary term=3"]
    → [("primary", 3)]); [None] when the handshake was skipped or the
    server predates v2. *)

(** {2 2PC / sharding calls} — raw responses again: the coordinator
    interprets votes, verdicts and in-doubt lists, not the transport. *)

val prepare : t -> gid:int -> Wire.response
(** Phase one for the session's open transaction. [Ok_result] = vote
    yes (durable); anything else is a no vote. *)

val decide : t -> gid:int -> commit:bool -> Wire.response
(** Phase two. Idempotent on the server; [Ok_result] describes the
    outcome (COMMITTED/ABORTED/UNKNOWN). *)

val shard_map : t -> version:int -> self:int -> shards:string list -> Wire.response
(** Installs the node's shard identity; the [Rows] reply lists its
    in-doubt gids for coordinator recovery. *)

val quit : t -> unit
(** Sends [QUIT], waits for [BYE] (best effort) and closes. *)

val close : t -> unit
(** Closes the socket without the QUIT handshake — from the server's
    point of view, an abrupt disconnect. Idempotent. *)
