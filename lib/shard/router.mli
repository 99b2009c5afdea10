(** The shard router: MOOD's cluster coordinator.

    Speaks the ordinary wire protocol to clients — any v2 client (the
    CLI, the load generator) talks to the router exactly as it would
    to a single server — and fans the work out over a fixed array of
    [mood_server] shards:

    - object creations ([new C <...>]) are hash-routed to the owning
      shard ({!Mood_server.Wire.placement_hash} over the normalized
      statement, owner = hash mod shard count); a [Wrong_shard] answer
      (shard-map drift) is followed transparently;
    - SELECT / EXPLAIN [ANALYZE] are scatter-gathered: every shard
      runs the statement and the result streams are merged in shard
      order (EXPLAIN output is merged with per-shard headers);
    - UPDATE / DELETE scatter to every shard; outside an explicit
      transaction the statement runs as a cluster-wide transaction;
    - DDL broadcasts to every shard (not transactional: a mid-flight
      failure leaves shards divergent and is reported as an error);
    - BEGIN/COMMIT/ABORT span the cluster: statements inside the
      transaction open per-shard legs lazily, and COMMIT runs
      two-phase commit when more than one leg was touched — the gid's
      allocation is fenced into the {!Decision_log} (forced
      [commit = false]: the presumed-abort verdict, and a restart
      barrier so the gid is never reallocated while a shard may still
      hold it PREPAREd), then PREPARE everywhere, force the commit
      decision, then DECIDE everywhere;
    - STATS is the asking session's [session.*] rows, then the
      router's own registry ({!metrics}), then every shard's counter
      snapshot, prefixed ["shard<i>."].

    In-doubt resolution rides the connection handshake: every shard
    leg the router opens installs the shard map, and the shard's reply
    lists its in-doubt gids — each is resolved from the decision log
    (logged commit → DECIDE commit; anything else → presumed abort),
    unless the gid belongs to a 2PC currently in flight on another
    session. A DECIDE that found its shard down is queued and retried:
    through any live leg to that shard on its next use, and by a
    background resolver thread that periodically opens a transient
    connection to each shard still owed a decision — so a PREPAREd
    transaction (and the extent locks it holds) cannot linger on a
    quiet cluster waiting for a brand-new leg. A shard killed mid-2PC
    therefore catches up as soon as it is reachable again — including
    after a router restart, since the decision log is replayed at
    [start]. *)

type config = {
  host : string;
  port : int option;       (** [Some 0] binds an ephemeral port *)
  shards : string list;    (** HOST:PORT or unix:PATH per shard, in
                               shard order *)
  decision_log : string;   (** coordinator log path *)
}

val default_config : config
(** host 127.0.0.1, ephemeral port, no shards (caller must fill),
    decision log ["mood_router.decisions"]. *)

type t

val start : config -> t
(** Replays the decision log, binds the listener and starts accepting.
    Raises [Failure] when [shards] is empty or names a malformed
    address ({!Mood_server.Client.endpoint}). Shards are {e not}
    contacted here — legs connect lazily, so the cluster may come up
    in any order. *)

val port : t -> int option

val metrics : t -> Mood_obs.Metrics.t
(** The router's registry: the counters [shard.routed],
    [shard.scattered], [shard.prepares], [shard.commits_2pc],
    [shard.aborts_2pc], [shard.indoubt_recovered] and
    [shard.wrong_shard_redirects], which every session handler and the
    resolver increment under one mutex, and the session registry's
    [router.sessions_active] and [router.sessions_opened] as a pull
    source. *)

val shutdown : t -> unit
(** Stops accepting, wakes and joins every session handler (aborting
    their open cluster transactions), closes the decision log. *)

val audit : t -> (unit, string) result
(** Post-shutdown leak check: no live sessions, no in-flight 2PC. *)
