(** The MOOD wire protocol: length-prefixed frames over a byte stream.

    Every message is one frame: a 4-byte big-endian payload length
    followed by the payload, whose first byte is the opcode. The
    protocol is strictly request/response — a client sends one request
    frame and reads exactly one response frame (MoodView and MOODSQL
    both reach the kernel through SQL text over this boundary, the
    paper's uniform client/server architecture).

    Requests:  [Q]uery sql | [E]xec sql | [B]egin | [C]ommit |
               [A]bort | [S]tats | [P]ing | [X] quit |
               [H]ello version | replicatio[N] snapshot |
               [L] repl pull (term, cursor) | pro[M]ote |
               [F]ence (term, new primary) | p[R]epare gid |
               [D]ecide (gid, verdict) | shard map [T]
    Responses: o[K] message | [R]ows | [E]rror message |
               [A]borted message (transaction rolled back, retryable) |
               bus[Y] message (refused before execution, retry later) |
               [P]ong | bye [X] | re[D]irect address | blob [T] |
               [W]rong shard (owner index, owner address)

    Decoding is defensive: a frame longer than [max_frame] raises
    {!Protocol_error} {e before} any payload is read (no allocation
    proportional to attacker input), as do unknown opcodes, torn length
    prefixes and EOF mid-frame. Only EOF {e between} frames is a clean
    end of stream ([None]). *)

exception Protocol_error of string
(** Framing violation: oversized or torn frame, unknown opcode, or a
    connection reset mid-frame. The stream is unsynchronized after
    this — the peer must be disconnected. *)

val protocol_version : int
(** The version this build speaks (2), sent as the one-byte [Hello]
    body. A server answers a matching [Hello] with [Ok_result] — whose
    text carries the node's role and term, e.g.
    ["mood protocol 2 role=primary term=3"] — and a mismatched one
    with a clean [Err] naming both versions — never a frame-decode
    failure. The session ends after a mismatch, so a v1 client cannot
    reach the sharding opcodes below. v2 adds [Prepare]/[Decide]/
    [Shard_map] and the [Wrong_shard] response. *)

type request =
  | Query of string  (** expects a [Rows] reply *)
  | Exec of string   (** any MOODSQL statement *)
  | Begin
  | Commit
  | Abort
  | Stats
      (** server/session/kernel counters as [Rows] of ["name value"]
          lines: server abort and group-commit counters, the requesting
          session's counters, and the kernel's full metrics snapshot *)
  | Ping
  | Quit
  | Hello of int
      (** protocol version negotiation; optional for plain SQL clients
          (v0 peers never send it), mandatory before repl opcodes *)
  | Repl_snapshot
      (** bootstrap: asks the primary for a sharp-checkpoint snapshot
          blob ([Blob] reply, {!Mood_repl.Codec} payload) *)
  | Repl_pull of { term : int; after : int }
      (** streaming cursor: asks for durable WAL records with LSN
          greater than [after]; [term] is the puller's view of the
          replication term — a primary seeing a higher term fences
          itself, a puller with a stale term gets [Err] *)
  | Promote
      (** replica only: drain the apply queue, discard losers, flip
          writable with a bumped term *)
  | Fence of { term : int; primary : string }
      (** tells an old primary it has been superseded by [term]; its
          subsequent writes answer [Redirect primary] *)
  | Prepare of int
      (** 2PC phase one: force-log a vote for the session's open
          transaction under the coordinator's gid. [Ok_result] = yes
          (the transaction is now frozen and survives disconnects);
          anything else = no. Requires a v2 [Hello] first. *)
  | Decide of { d_gid : int; d_commit : bool }
      (** 2PC phase two: commit or abort the transaction prepared under
          [d_gid]. Idempotent — an unknown gid answers [Ok_result]
          ("presumed resolved"). Requires a v2 [Hello] first. *)
  | Shard_map of { sm_version : int; sm_self : int; sm_shards : string list }
      (** installs this node's view of the cluster: it is shard
          [sm_self] of [sm_shards] (addresses in shard order). From
          then on the node refuses object creations it does not own
          with [Wrong_shard]. The reply is [Rows] of this node's
          in-doubt gids — the coordinator's recovery handshake.
          Requires a v2 [Hello] first. *)

type response =
  | Ok_result of string    (** statement succeeded; human-readable summary *)
  | Rows of string list    (** one rendered value per result row *)
  | Err of string          (** statement failed; session (and any open
                               transaction) survives *)
  | Aborted of string      (** the transaction was rolled back (deadlock
                               victim, lock timeout, disconnect) — safe
                               to retry from BEGIN *)
  | Busy of string         (** the request was refused before
                               execution — retry after backoff. Kept
                               for clients; the server no longer
                               sends it *)
  | Pong
  | Bye
  | Redirect of string     (** NOT_PRIMARY: this node cannot take writes;
                               retry the statement at the given
                               HOST:PORT (retryable, nothing executed) *)
  | Blob of string         (** opaque replication payload (snapshot or
                               record batch), decoded by
                               {!Mood_repl.Codec} *)
  | Wrong_shard of { ws_shard : int; ws_addr : string }
      (** the NOT_PRIMARY redirect generalized to placement: this node
          does not own the object being created — retry the statement
          verbatim at shard [ws_shard] ([ws_addr]); nothing executed.
          Clients self-heal after shard-map changes by following it. *)

val max_frame : int
(** The frame size limit every reader enforces: 4 MiB. *)

(** {2 Pure codecs} (unit-testable without sockets) *)

val encode_request : request -> bytes
(** The full frame: length prefix included. *)

val encode_response : response -> bytes

val decode_request : bytes -> request
(** Decodes one payload (no length prefix). Raises {!Protocol_error}. *)

val decode_response : bytes -> response

(** {2 Blocking stream I/O} *)

val write_frame : Unix.file_descr -> bytes -> unit
(** Writes the whole buffer, looping over partial writes. *)

val read_frame : Unix.file_descr -> bytes option
(** Reads one frame's payload. [None] on clean EOF at a frame
    boundary; {!Protocol_error} on torn prefix/payload, oversized
    frame, or connection reset. Loops over partial reads. *)

val write_request : Unix.file_descr -> request -> unit
val write_response : Unix.file_descr -> response -> unit

val read_request : Unix.file_descr -> request option
val read_response : Unix.file_descr -> response option

(** {2 Nonblocking stream I/O}

    The reactor's building blocks for descriptors in [O_NONBLOCK]
    mode. [EINTR] is always retried (a signal is not a peer event);
    [EAGAIN]/[EWOULDBLOCK] surface as [`Would_block] so the caller
    re-arms the descriptor in its readiness set; a reset/closed peer is
    a returned value, not an exception — for an event loop that is a
    routine state transition, not a failure. *)

val read_nb :
  Unix.file_descr -> bytes -> int -> int ->
  [ `Data of int | `Eof | `Would_block | `Closed ]
(** One [read] into [b.[off..off+len)]: [`Data n] bytes arrived,
    [`Eof] clean end of stream, [`Closed] connection reset. *)

val write_nb :
  Unix.file_descr -> bytes -> int -> int ->
  [ `Wrote of int | `Would_block | `Closed ]
(** One [write] from [b.[off..off+len)]; partial writes are normal —
    the caller advances its cursor by [`Wrote n]. *)

(** {2 Placement} *)

val placement_hash : string -> int
(** The cluster-wide placement function: router and shards hash the
    {e normalized} object-creating statement text (the object's OID
    does not exist until the insert runs, and normalization makes both
    sides see identical bytes). Owner = [hash mod shard_count]. FNV-1a
    folded to 30 bits — platform-independent, non-negative. *)
