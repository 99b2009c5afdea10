module Db = Mood.Db
module Value = Mood_model.Value
module Oid = Mood_model.Oid
module Executor = Mood_executor.Executor
module Lock = Mood_storage.Lock_manager
module Store = Mood_storage.Store
module Wal = Mood_storage.Wal
module Metrics = Mood_obs.Metrics

type config = {
  host : string;
  port : int option;
  unix_path : string option;
  lock_timeout : float;
  replica_of : string option;
  poll_interval : float;
  commit_latency : float;
}

let default_config =
  { host = "127.0.0.1";
    port = Some 0;
    unix_path = None;
    lock_timeout = 10.0;
    replica_of = None;
    commit_latency = 0.;
    poll_interval = 0.05
  }

(* One connection as the reactor sees it: an explicit state machine.

   [`Reading]   the reactor owns the socket and selects on it; bytes
                accumulate in [c_pending] until a whole frame arrives.
   [`Executing] a fully-read request has not been answered yet: it is
                parked on a lock, its commit awaits the log-writer's
                force, or a PROMOTE runs on its own thread; the socket
                is in no readiness set at all — an idle or slow peer
                costs nothing until the reply.
   [`Writing]   a reply frame is draining through [c_out]; the socket
                is in the write set only while the kernel buffer is
                full.
   [`Closed]    torn down; the record is inert (it may still be
                referenced by an in-flight completion).

   Only the reactor thread touches a [conn] — replies finished on
   another thread come back through the completion list + wake pipe,
   never the socket. *)
type conn = {
  c_session : Session.t;
  mutable c_state : [ `Reading | `Executing | `Writing | `Closed ];
  mutable c_pending : string;  (* received bytes not yet parsed *)
  mutable c_out : Bytes.t;     (* reply frame being written *)
  mutable c_outoff : int;
  mutable c_close : bool;      (* tear down once [c_out] drains *)
}

(* One request being executed. [jdeadline]/[jtxn] carry lock-wait
   state across park/retry cycles: a statement whose lock is held
   elsewhere is parked, not waited for, so the reactor is never pinned
   down by a lock conflict (sleeping on the lock would starve the very
   commit that would release it — the classic convoy). *)
type job = {
  jconn : conn;
  jrequest : Wire.request;
  jdeadline : float;  (* give up (abort, reply ABORTED) past this *)
  mutable jtxn : Mood.Db.session_txn option;
      (* the autocommit transaction owned by this statement, kept
         across retries; [None] until first attempt or when the
         session transaction is used instead *)
}

type t = {
  database : Db.t;
  config : config;
  registry : Session.registry;
  kernel : Mutex.t;  (* serializes every Db.t touch — see server.mli *)
  mutable released : bool;
      (* set by the lock manager's release hook. Every lock release
         runs on the reactor (commits, aborts, teardowns, DECIDEs), and
         the reactor clears it when it retries its parked statements *)
  mutable listeners : Unix.file_descr list;
  mutable tcp_port : int option;
  stop_r : Unix.file_descr;  (* self-pipe: shutdown -> reactor *)
  stop_w : Unix.file_descr;
  wake_r : Unix.file_descr;  (* self-pipe: log-writer/PROMOTE -> reactor *)
  wake_w : Unix.file_descr;
  comp_m : Mutex.t;
  mutable completions : (job * Wire.response) list;  (* newest first *)
  mutable reactor : Thread.t option;
  (* Group commit: the reactor performs the logical commit, hands the
     finished reply plus the Commit LSN (the ticket) to the log-writer
     and moves on; the log-writer turns all tickets that arrived during
     the previous force into one force and delivers the held replies
     once it covers them. The reactor is never pinned by a durability
     wait, so the batch grows to the number of concurrent committers. *)
  gc_m : Mutex.t;
  gc_work : Condition.t;   (* wakes the log-writer *)
  mutable gc_waiters : (job * Wire.response * int) list;
      (* replies held until a force covers their ticket *)
  mutable gc_pending : int;   (* highest ticket asked for *)
  mutable gc_durable : int;   (* highest ticket known durable *)
  mutable gc_stop : bool;
  mutable gc_commits : int;   (* tickets submitted *)
  mutable gc_batches : int;   (* shared forces performed *)
  mutable gc_max_batch : int; (* most commits released by one force *)
  mutable log_writer : Thread.t option;
  mutable stopped : bool;
  (* The event counters, interned in the database's registry by
     [start]. Only the reactor writes them, as it does every
     [Session.t] field (server.mli lists every counter's writer). *)
  m_statements : Metrics.counter;
  m_deadlock : Metrics.counter;
  m_timeout : Metrics.counter;
  m_disconnect : Metrics.counter;
  m_protocol : Metrics.counter;
  m_redirects : Metrics.counter;
  m_prepares : Metrics.counter;
  m_decides : Metrics.counter;
  m_wrong_shard : Metrics.counter;
  mutable repl : Replication.t option;  (* streaming thread on a replica *)
  mutable shard_map : (int * int * string array) option;
      (* (map version, own shard index, addresses in shard order):
         installed by a SHARD_MAP request; once present, object
         creations this shard does not own answer WRONG_SHARD *)
}

let poke_byte = Bytes.make 1 '!'

(* Wake a self-pipe. The write ends are nonblocking: a full pipe
   (EAGAIN) means the peer is already signalled, which is all a wakeup
   needs. EINTR retries — a lost byte here would be a lost wakeup. *)
let rec poke fd =
  match Unix.write fd poke_byte 0 1 with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> poke fd
  | exception Unix.Unix_error _ -> ()

let drain_pipe fd =
  let b = Bytes.create 256 in
  let rec go () =
    match Wire.read_nb fd b 0 (Bytes.length b) with
    | `Data _ -> go ()
    | `Eof | `Would_block | `Closed -> ()
  in
  go ()

(* With [commit_latency] > 0 every WAL force a statement performs
   pays that much real wall time before releasing the kernel — an
   emulated synchronous log-force, the cost a durable commit pays on a
   real device. The sleep sits inside the critical section because a
   single node's log device serializes its forces. This is the knob
   that puts a scaling experiment on small containers into the
   I/O-bound regime group commit (and sharding) addresses; 0 (the
   default) is free. Group-committed forces do NOT pass through here:
   the log-writer pays the device once per batch, outside the kernel. *)
let wal_forces t = Wal.forces (Store.wal (Db.store t.database))

let pay_io t forces_before =
  if t.config.commit_latency > 0. then begin
    let d = wal_forces t - forces_before in
    if d > 0 then
      Unix.sleepf (Float.min 0.25 (float_of_int d *. t.config.commit_latency))
  end

let with_kernel t f =
  Mutex.protect t.kernel (fun () ->
      let f0 = if t.config.commit_latency > 0. then wal_forces t else 0 in
      Fun.protect ~finally:(fun () -> pay_io t f0) f)

(* The per-statement accounting, once for every executed request. It
   runs on the reactor: for a reply finished elsewhere, when the
   reactor takes it from the completion list. *)
let account t job resp =
  let session = job.jconn.c_session in
  session.Session.statements <- session.Session.statements + 1;
  (match resp with
  | Wire.Rows rows ->
      session.Session.rows_returned <- session.Session.rows_returned + List.length rows
  | _ -> ());
  Metrics.incr t.m_statements

(* Hand a reply finished on another thread (a group-committed ACK, a
   PROMOTE) to the reactor: only the reactor touches sockets and
   counts statements. The poke is a level trigger — a full pipe means
   the reactor is already awake. *)
let deliver t job resp =
  Mutex.protect t.comp_m (fun () -> t.completions <- (job, resp) :: t.completions);
  poke t.wake_w

(* ------------------------------------------------------------------ *)
(* Group commit (DESIGN.md §3k)                                        *)

(* The dedicated log-writer: while one force is in flight, every
   committer that arrives merely raises [gc_pending] and parks its
   reply; the next force carries them all. The emulated device latency
   is paid once per batch, outside the kernel lock, so the kernel is
   free to execute the statements of the *next* batch during this
   batch's fsync. *)
let log_writer_loop t =
  let wal = Store.wal (Db.store t.database) in
  Mutex.lock t.gc_m;
  let rec loop () =
    if t.gc_pending > t.gc_durable then begin
      let target = t.gc_pending in
      Mutex.unlock t.gc_m;
      let paid, durable, fail =
        Mutex.protect t.kernel (fun () ->
            match Wal.force_group wal target with
            | paid -> (paid, Wal.persisted_last_lsn wal, None)
            | exception e -> (false, Wal.persisted_last_lsn wal, Some e))
      in
      if paid && t.config.commit_latency > 0. then
        Unix.sleepf t.config.commit_latency;
      Mutex.lock t.gc_m;
      if durable > t.gc_durable then t.gc_durable <- durable;
      let covered, kept =
        List.partition (fun (_, _, lsn) -> lsn <= t.gc_durable) t.gc_waiters
      in
      (* On a force failure the uncovered waiters must not hang: their
         commits are logged but not durable — report that. Clamping
         [gc_pending] stops a dead device from spinning this loop; the
         next submission raises it again and retries the force. *)
      let errs =
        match fail with
        | Some e ->
            if t.gc_pending > t.gc_durable then t.gc_pending <- t.gc_durable;
            t.gc_waiters <- [];
            List.map
              (fun (job, _, _) ->
                ( job,
                  Wire.Err
                    ("commit logged but not durable (log force failed): "
                    ^ Printexc.to_string e) ))
              kept
        | None ->
            t.gc_waiters <- kept;
            []
      in
      t.gc_batches <- t.gc_batches + 1;
      let batch = List.length covered in
      if batch > t.gc_max_batch then t.gc_max_batch <- batch;
      Mutex.unlock t.gc_m;
      List.iter (fun (job, resp, _) -> deliver t job resp) covered;
      List.iter (fun (job, resp) -> deliver t job resp) errs;
      Mutex.lock t.gc_m;
      loop ()
    end
    else if t.gc_stop then Mutex.unlock t.gc_m
    else begin
      Condition.wait t.gc_work t.gc_m;
      loop ()
    end
  in
  loop ()

(* Commit a session transaction. The logical commit (Commit record
   appended, versions stamped, locks released) happens under the
   kernel lock but the WAL force is delegated to the log-writer: the
   reply, published with the commit's LSN as its ticket, is held until
   a shared force covers that LSN, so the ACK never outruns
   durability. Early lock release is safe because the single log
   forces in order: no dependent commit can become durable before this
   one. *)
let commit_txn t job txn resp =
  let lsn = with_kernel t (fun () -> Db.commit_session_txn_nodurable t.database txn) in
  Mutex.lock t.gc_m;
  t.gc_commits <- t.gc_commits + 1;
  (* Between the kernel release above and here, the log-writer's force
     for earlier committers may have persisted the whole WAL tail, this
     Commit record included: reply now. Holding the reply would sleep
     until the NEXT committer triggers a batch, which on a quiescing
     server never comes. *)
  let durable = lsn <= t.gc_durable in
  if not durable then begin
    if lsn > t.gc_pending then t.gc_pending <- lsn;
    t.gc_waiters <- (job, resp, lsn) :: t.gc_waiters;
    Condition.signal t.gc_work
  end;
  Mutex.unlock t.gc_m;
  if durable then `Reply resp else `Deferred

(* ------------------------------------------------------------------ *)
(* Statement execution                                                 *)

let render_rows r = Wire.Rows (List.map Value.to_string (Executor.result_values r))

let render_result = function
  | Db.Rows r -> render_rows r
  | Db.Class_created c -> Wire.Ok_result ("class " ^ c)
  | Db.Layout_altered (c, l) -> Wire.Ok_result (Printf.sprintf "layout %s %s" c l)
  | Db.Index_created (c, a) -> Wire.Ok_result (Printf.sprintf "index %s.%s" c a)
  | Db.Object_created oid -> Wire.Ok_result ("oid " ^ Oid.to_string oid)
  | Db.Updated n -> Wire.Ok_result (Printf.sprintf "updated %d" n)
  | Db.Deleted n -> Wire.Ok_result (Printf.sprintf "deleted %d" n)
  | Db.Method_defined (c, m) -> Wire.Ok_result (Printf.sprintf "method %s::%s" c m)
  | Db.Method_dropped (c, m) ->
      Wire.Ok_result (Printf.sprintf "dropped method %s::%s" c m)
  | Db.Object_named (n, oid) ->
      Wire.Ok_result (Printf.sprintf "named %s = %s" n (Oid.to_string oid))
  | Db.Name_dropped n -> Wire.Ok_result ("dropped name " ^ n)
  | Db.Explained text -> Wire.Rows (String.split_on_char '\n' text)

let abort_txn t (session : Session.t) txn =
  with_kernel t (fun () -> Db.abort_session_txn t.database txn);
  session.Session.txn <- None;
  session.Session.aborts <- session.Session.aborts + 1

(* Placement enforcement: once a shard map is installed, an object
   creation this shard does not own is refused before anything runs —
   the reply carries the owner's index and address so the client (or
   router) retries there. Routing keys off the normalized statement
   text, exactly what the router hashes. *)
let wrong_shard t sql =
  match t.shard_map with
  | None -> None
  | Some (_, self, addrs) ->
      let key = Mood.Plan_cache.normalize sql in
      if
        String.length key >= 4
        && String.uppercase_ascii (String.sub key 0 4) = "NEW "
      then begin
        let owner = Wire.placement_hash key mod Array.length addrs in
        if owner <> self then begin
          Metrics.incr t.m_wrong_shard;
          Some (Wire.Wrong_shard { ws_shard = owner; ws_addr = addrs.(owner) })
        end
        else None
      end
      else None

(* A prepared transaction is frozen: the vote promised the coordinator
   its effects, so neither further statements nor a unilateral
   COMMIT/ABORT may touch it — only DECIDE (or recovery) finishes it. *)
let prepared_frozen (session : Session.t) =
  match session.Session.txn with
  | Some txn when Db.session_txn_prepared txn <> None ->
      Some
        (Wire.Err
           "transaction is prepared: its fate belongs to the coordinator's DECIDE")
  | _ -> None

(* One execution attempt of a Query/Exec job. [`Park] means a needed
   lock is held by another live transaction: the reactor must NOT wait
   — it parks the job and serves other connections (the blocker's own
   COMMIT may be the next frame it reads). Locks granted so far stay
   with the transaction across retries.

   [~query] = the Q opcode: the reply must be rows. A non-SELECT under
   Q is refused; in autocommit its (WAL-logged) effects are rolled
   back with the transaction. *)
let attempt_statement t job ~query sql =
  let session = job.jconn.c_session in
  match wrong_shard t sql with
  | Some resp -> `Reply resp
  | None ->
  match prepared_frozen session with
  | Some err -> `Reply err
  | None ->
  (* Autocommit read fast path: a read-only statement outside any
     transaction needs no WAL Begin/Commit, no log force and no lock
     transaction — it runs on a throwaway snapshot and can never park. *)
  if session.Session.txn = None && job.jtxn = None && Db.read_only_text sql then
    match with_kernel t (fun () -> Db.exec t.database sql) with
    | Ok (Db.Rows _ as r) -> `Reply (render_result r)
    | Ok _ when query -> `Reply (Wire.Err "QUERY expects a SELECT statement")
    | Ok r -> `Reply (render_result r)
    | Error m -> `Reply (Wire.Err m)
  else
  let autocommit, txn =
    match session.Session.txn with
    | Some txn -> (false, txn)
    | None -> (
        match job.jtxn with
        | Some txn -> (true, txn) (* retry of a parked autocommit statement *)
        | None ->
            let txn = with_kernel t (fun () -> Db.begin_session_txn t.database) in
            job.jtxn <- Some txn;
            (true, txn))
  in
  let rollback resp =
    with_kernel t (fun () -> Db.abort_session_txn t.database txn);
    session.Session.aborts <- session.Session.aborts + 1;
    if autocommit then job.jtxn <- None else session.Session.txn <- None;
    resp
  in
  let give_up counter reason =
    Metrics.incr counter;
    `Reply (rollback (Wire.Aborted reason))
  in
  match with_kernel t (fun () -> Db.exec_in_txn t.database txn sql) with
  | Ok r -> (
      let finish resp =
        if autocommit then begin
          job.jtxn <- None;
          commit_txn t job txn resp
        end
        else `Reply resp
      in
      match r with
      | Db.Rows _ -> finish (render_result r)
      | _ when query ->
          let resp = Wire.Err "QUERY expects a SELECT statement" in
          `Reply (if autocommit then rollback resp else resp)
      | _ -> finish (render_result r))
  | Error Db.Txn_busy ->
      if Unix.gettimeofday () < job.jdeadline then `Park
      else give_up t.m_timeout "lock timeout"
  | Error Db.Txn_deadlock -> give_up t.m_deadlock "deadlock"
  | Error (Db.Txn_fail m) ->
      (* Statement error: an open session transaction survives it (the
         client decides whether to COMMIT or ABORT); an autocommit
         statement has nothing to keep and rolls back. *)
      `Reply (if autocommit then rollback (Wire.Err m) else Wire.Err m)
  | Error (Db.Txn_redirect addr) ->
      (* NOT_PRIMARY: nothing executed, nothing locked. An open session
         transaction keeps its reads; an autocommit statement has an
         empty transaction to fold up. *)
      Metrics.incr t.m_redirects;
      `Reply
        (if autocommit then rollback (Wire.Redirect addr) else Wire.Redirect addr)

(* The HELLO reply carries role and term so a client (the router, a
   failover script, `mood top`) learns the node's standing at connect
   time instead of discovering it by hitting NOT_PRIMARY. *)
let hello_response t v =
  if v = Wire.protocol_version then begin
    let role, term =
      with_kernel t (fun () ->
          ( (match Db.role t.database with
            | Db.Primary -> "primary"
            | Db.Replica _ -> "replica"
            | Db.Fenced _ -> "fenced"),
            Db.term t.database ))
    in
    Wire.Ok_result
      (Printf.sprintf "mood protocol %d role=%s term=%d" Wire.protocol_version role
         term)
  end
  else
    Wire.Err
      (Printf.sprintf "protocol version mismatch: client speaks %d, server speaks %d"
         v Wire.protocol_version)

(* The sharding opcodes arrived in protocol v2: a session that never
   completed a v2 HELLO has no business preparing transactions. *)
let requires_v2 (session : Session.t) what =
  if session.Session.hello = Some Wire.protocol_version then None
  else
    Some
      (Wire.Err
         (Printf.sprintf "%s requires a protocol %d HELLO handshake" what
            Wire.protocol_version))

let execute t job =
  let session = job.jconn.c_session in
  match job.jrequest with
  | Wire.Query sql -> attempt_statement t job ~query:true sql
  | Wire.Exec sql -> attempt_statement t job ~query:false sql
  | Wire.Begin -> (
      match session.Session.txn with
      | Some _ -> `Reply (Wire.Err "already in a transaction")
      | None ->
          session.Session.txn <-
            Some (with_kernel t (fun () -> Db.begin_session_txn t.database));
          `Reply (Wire.Ok_result "BEGIN"))
  | Wire.Commit -> (
      match prepared_frozen session with
      | Some err -> `Reply err
      | None -> (
          match session.Session.txn with
          | None -> `Reply (Wire.Err "no open transaction")
          | Some txn ->
              session.Session.txn <- None;
              commit_txn t job txn (Wire.Ok_result "COMMIT")))
  | Wire.Abort -> (
      match prepared_frozen session with
      | Some err -> `Reply err
      | None -> (
          match session.Session.txn with
          | None -> `Reply (Wire.Err "no open transaction")
          | Some txn ->
              abort_txn t session txn;
              `Reply (Wire.Ok_result "ABORT")))
  | Wire.Stats ->
      (* Run like any statement (under the kernel lock), so the
         counters it reports are a consistent cut: no statement is
         mid-flight in the kernel while the snapshot is taken. The
         server's own rows are in the snapshot (see [start]). *)
      let snapshot = with_kernel t (fun () -> Db.metrics_snapshot t.database) in
      `Reply (Wire.Rows (Session.stats_rows session snapshot))
  | Wire.Ping -> `Reply Wire.Pong (* normally answered inline by the reactor *)
  | Wire.Quit -> `Reply Wire.Bye
  | Wire.Hello v -> `Reply (hello_response t v) (* normally answered inline *)
  | Wire.Prepare gid -> (
      match requires_v2 session "PREPARE" with
      | Some err -> `Reply err
      | None -> (
          match session.Session.txn with
          | None -> `Reply (Wire.Err "PREPARE: no open transaction")
          | Some txn -> (
              Metrics.incr t.m_prepares;
              match
                with_kernel t (fun () -> Db.prepare_session_txn t.database txn ~gid)
              with
              | Ok () -> `Reply (Wire.Ok_result (Printf.sprintf "PREPARED %d" gid))
              | Error m -> `Reply (Wire.Err m))))
  | Wire.Decide { d_gid; d_commit } -> (
      match requires_v2 session "DECIDE" with
      | Some err -> `Reply err
      | None ->
          Metrics.incr t.m_decides;
          let outcome =
            with_kernel t (fun () ->
                Db.decide_txn t.database ~gid:d_gid ~commit:d_commit)
          in
          (* If the decision resolved this session's own transaction,
             the session is out of it now. *)
          (match session.Session.txn with
          | Some txn when not (Db.session_txn_open txn) -> session.Session.txn <- None
          | _ -> ());
          `Reply
            (Wire.Ok_result
               (match outcome with
               | `Committed -> Printf.sprintf "COMMITTED %d" d_gid
               | `Aborted -> Printf.sprintf "ABORTED %d" d_gid
               | `Unknown -> Printf.sprintf "UNKNOWN %d (presumed resolved)" d_gid)))
  | Wire.Shard_map { sm_version; sm_self; sm_shards } -> (
      match requires_v2 session "SHARD_MAP" with
      | Some err -> `Reply err
      | None ->
          (* Install the map and answer with this node's in-doubt gids:
             the coordinator's recovery handshake resolves them from
             its decision log. *)
          let gids =
            with_kernel t (fun () ->
                t.shard_map <- Some (sm_version, sm_self, Array.of_list sm_shards);
                Db.indoubt_txns t.database)
          in
          `Reply (Wire.Rows (List.map (fun (gid, _) -> string_of_int gid) gids)))
  | Wire.Repl_snapshot ->
      `Reply
        (with_kernel t (fun () ->
             match Db.role t.database with
             | Db.Primary ->
                 Wire.Blob
                   (Mood_repl.Codec.encode_snapshot (Mood_repl.Primary.snapshot t.database))
             | Db.Replica addr | Db.Fenced addr -> Wire.Redirect addr))
  | Wire.Repl_pull { term; after } ->
      `Reply
        (with_kernel t (fun () ->
             let our = Db.term t.database in
             if term > our then begin
               (* The puller has seen a higher term: a promotion we
                  missed. Adopt the term; if we thought we were the
                  primary, we are not any more — fence. *)
               Db.set_term t.database term;
               (match Db.role t.database with
               | Db.Primary -> Db.set_role t.database (Db.Fenced "")
               | _ -> ());
               Wire.Err
                 (Printf.sprintf "fenced: term %d supersedes this node's %d" term our)
             end
             else
               match Db.role t.database with
               | Db.Primary ->
                   if term < our then
                     Wire.Err
                       (Printf.sprintf "stale replication term %d (current is %d)" term
                          our)
                   else
                     Wire.Blob
                       (Mood_repl.Codec.encode_batch
                          (Mood_repl.Primary.batch t.database ~after))
               | Db.Replica addr -> Wire.Redirect addr
               | Db.Fenced addr ->
                   Wire.Err
                     (Printf.sprintf "fenced at term %d%s" our
                        (if addr = "" then "" else "; new primary is " ^ addr))))
  | Wire.Promote -> (
      match t.repl with
      | None -> (
          match Db.role t.database with
          | Db.Primary ->
              `Reply
                (Wire.Ok_result
                   (Printf.sprintf "already primary at term %d" (Db.term t.database)))
          | _ -> `Reply (Wire.Err "no replication stream to promote"))
      | Some repl ->
          (* The one request that waits on the network: promotion joins
             the applier thread and drains a possibly dead primary with
             no timeout. It runs on a thread of its own, holding no
             kernel lock (so the applier's in-flight batch can finish
             and the join cannot deadlock), and hands its reply back
             the way the log-writer does. *)
          let promote () =
            deliver t job
              (match Replication.promote repl with
              | Ok new_term ->
                  t.repl <- None;
                  Wire.Ok_result
                    (Printf.sprintf "promoted: now primary at term %d" new_term)
              | Error m -> Wire.Err ("promotion failed: " ^ m)
              | exception e -> Wire.Err ("internal error: " ^ Printexc.to_string e))
          in
          ignore (Thread.create promote ());
          `Deferred)
  | Wire.Fence { term; primary } ->
      `Reply
        (with_kernel t (fun () ->
             let our = Db.term t.database in
             if term <= our then
               Wire.Err
                 (Printf.sprintf "fence refused: term %d is not newer than %d" term our)
             else begin
               Db.set_term t.database term;
               (match Db.role t.database with
               | Db.Primary | Db.Fenced _ -> Db.set_role t.database (Db.Fenced primary)
               | Db.Replica _ -> Db.set_role t.database (Db.Replica primary));
               Wire.Ok_result
                 (Printf.sprintf "fenced at term %d; primary is %s" term primary)
             end))

(* ------------------------------------------------------------------ *)
(* Connection teardown                                                 *)

(* Abort the orphaned transaction of a dead/leaving session, release
   its locks (the reactor retries its parked waiters before it next
   sleeps), untrack it and close the socket. *)
let teardown t (session : Session.t) =
  (match session.Session.txn with
  | Some txn when Db.session_txn_open txn ->
      if Db.session_txn_prepared txn <> None then
        (* In-doubt: a PREPAREd transaction belongs to the coordinator.
           It survives the disconnect — locks held, registered under
           its gid — until a DECIDE (over any connection) resolves it. *)
        ()
      else begin
        Metrics.incr t.m_disconnect;
        with_kernel t (fun () -> Db.abort_session_txn t.database txn)
      end
  | _ -> ());
  session.Session.txn <- None;
  Session.remove_and_close t.registry session

(* ------------------------------------------------------------------ *)
(* Listeners                                                           *)

let listen_tcp ~host ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (Client.resolve_host host, port));
     Unix.listen fd 256;
     Unix.set_nonblock fd
   with e ->
     Unix.close fd;
     raise e);
  let actual =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  (fd, actual)

let listen_unix ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd 256;
     Unix.set_nonblock fd
   with e ->
     Unix.close fd;
     raise e);
  fd

(* ------------------------------------------------------------------ *)
(* The reactor                                                         *)

(* One thread owns every client socket and executes every request.
   Sessions move through the [conn] state machine, so an idle
   connection costs one fd and ~100 bytes — no thread, no stack, no
   timer. Wakeups are all edge events: new bytes (select), replies
   finished elsewhere (wake pipe), shutdown (stop pipe), and the
   earliest lock-wait deadline (select timeout). *)
let reactor_loop t =
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 64 in
  let rbuf = Bytes.create 65536 in
  let stop_seen = ref false in
  let parked = ref [] in  (* lock-waiters, newest first *)

  let teardown_conn c =
    if c.c_state <> `Closed then begin
      c.c_state <- `Closed;
      Hashtbl.remove conns c.c_session.Session.fd;
      teardown t c.c_session
    end
  in

  let set_out c resp =
    c.c_out <- Wire.encode_response resp;
    c.c_outoff <- 0;
    c.c_state <- `Writing
  in

  (* Framing violation: count it, reply best-effort, hang up. The
     stream is unsynchronized, so pending bytes are dropped. *)
  let protocol_fail c m =
    Metrics.incr t.m_protocol;
    c.c_pending <- "";
    c.c_close <- true;
    set_out c (Wire.Err ("protocol error: " ^ m))
  in

  let rec flush_out c =
    if c.c_state = `Writing then begin
      let len = Bytes.length c.c_out - c.c_outoff in
      if len <= 0 then begin
        if c.c_close || !stop_seen then teardown_conn c
        else begin
          c.c_state <- `Reading;
          c.c_out <- Bytes.empty;
          c.c_outoff <- 0
        end
      end
      else
        match Wire.write_nb c.c_session.Session.fd c.c_out c.c_outoff len with
        | `Wrote n ->
            c.c_outoff <- c.c_outoff + n;
            flush_out c
        | `Would_block -> () (* select re-arms the write set *)
        | `Closed ->
            Metrics.incr t.m_protocol;
            teardown_conn c
    end
  in

  (* One attempt at a job. A reply is staged in [c_out]; the caller
     flushes it. *)
  let run job =
    match
      try execute t job
      with e -> `Reply (Wire.Err ("internal error: " ^ Printexc.to_string e))
    with
    | `Reply resp ->
        account t job resp;
        set_out job.jconn resp
    | `Deferred -> () (* the log-writer (or PROMOTE's thread) delivers *)
    | `Park -> parked := job :: !parked
  in

  let handle_frame c payload =
    match Wire.decode_request payload with
    | exception Wire.Protocol_error m -> protocol_fail c m
    | Wire.Ping -> set_out c Wire.Pong
    | Wire.Quit ->
        c.c_close <- true;
        set_out c Wire.Bye
    | Wire.Hello v ->
        (* A version mismatch ends the session. *)
        let resp = hello_response t v in
        (match resp with
        | Wire.Ok_result _ -> c.c_session.Session.hello <- Some v
        | _ -> c.c_close <- true);
        set_out c resp
    | request ->
        c.c_state <- `Executing;
        run
          { jconn = c;
            jrequest = request;
            jdeadline = Unix.gettimeofday () +. t.config.lock_timeout;
            jtxn = None
          }
  in

  (* Parse and dispatch as many complete frames as [c_pending] holds.
     Iterative (not recursive) so a peer pipelining thousands of tiny
     frames cannot grow the reactor's stack. *)
  let pump c =
    let progress = ref true in
    while !progress do
      progress := false;
      if c.c_state = `Reading then begin
        let pend = c.c_pending in
        let n = String.length pend in
        if n >= 4 then begin
          let len =
            (Char.code pend.[0] lsl 24)
            lor (Char.code pend.[1] lsl 16)
            lor (Char.code pend.[2] lsl 8)
            lor Char.code pend.[3]
          in
          if len > Wire.max_frame then
            protocol_fail c
              (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" len
                 Wire.max_frame)
          else if len = 0 then protocol_fail c "empty frame"
          else if n >= 4 + len then begin
            let payload = Bytes.of_string (String.sub pend 4 len) in
            c.c_pending <- String.sub pend (4 + len) (n - 4 - len);
            handle_frame c payload
          end;
          if c.c_state = `Writing then flush_out c;
          (* the reply drained synchronously: keep pumping pipelined
             frames (or pick up the dropped-pending protocol_fail) *)
          if c.c_state = `Reading && String.length c.c_pending < n then
            progress := true
        end
      end
    done
  in

  (* Write what a staged reply can, then serve frames that arrived
     meanwhile — a pipelining client never waits for a read-set tick. *)
  let resume c =
    flush_out c;
    if c.c_state = `Reading then pump c
  in

  (* Retry parked lock-waiters: all of them after a lock release,
     otherwise only those whose deadline passed (they take the
     lock-timeout abort). A pass that itself releases locks — a retried
     statement committed or aborted — runs another, so no wakeup is
     lost. *)
  let rec retry_parked () =
    let due, waiting =
      if t.released then (!parked, [])
      else
        let now = Unix.gettimeofday () in
        List.partition (fun j -> j.jdeadline <= now) !parked
    in
    t.released <- false;
    if due <> [] then begin
      parked := waiting;
      List.iter
        (fun job ->
          run job;
          resume job.jconn)
        (List.rev due);
      retry_parked ()
    end
  in

  let on_readable c =
    match Wire.read_nb c.c_session.Session.fd rbuf 0 (Bytes.length rbuf) with
    | `Data n ->
        c.c_pending <- c.c_pending ^ Bytes.sub_string rbuf 0 n;
        pump c
    | `Eof ->
        if c.c_pending <> "" then begin
          (* EOF mid-frame: torn, same counter as any framing fault *)
          Metrics.incr t.m_protocol;
          c.c_close <- true;
          set_out c (Wire.Err "protocol error: torn frame");
          flush_out c
        end
        else teardown_conn c
    | `Closed ->
        Metrics.incr t.m_protocol;
        teardown_conn c
    | `Would_block -> ()
  in

  let drain_completions () =
    Mutex.lock t.comp_m;
    let comps = List.rev t.completions in
    t.completions <- [];
    Mutex.unlock t.comp_m;
    List.iter
      (fun (job, resp) ->
        account t job resp;
        let c = job.jconn in
        if c.c_state = `Executing then begin
          set_out c resp;
          resume c
        end)
      comps
  in

  let rec accept_loop lfd =
    match Unix.accept lfd with
    | fd, addr ->
        Unix.set_nonblock fd;
        let session = Session.register t.registry ~fd ~peer:(Client.sockaddr_name addr) in
        Hashtbl.replace conns fd
          { c_session = session;
            c_state = `Reading;
            c_pending = "";
            c_out = Bytes.empty;
            c_outoff = 0;
            c_close = false
          };
        accept_loop lfd
    | exception
        Unix.Unix_error
          ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED | Unix.EINTR), _, _)
      ->
        ()
  in

  let rec main () =
    if !stop_seen && Hashtbl.length conns = 0 then ()
    else begin
      let rfds = ref [ t.wake_r ] in
      let wfds = ref [] in
      if not !stop_seen then begin
        rfds := t.stop_r :: !rfds;
        List.iter (fun lfd -> rfds := lfd :: !rfds) t.listeners
      end;
      Hashtbl.iter
        (fun fd c ->
          match c.c_state with
          | `Reading -> rfds := fd :: !rfds
          | `Writing -> wfds := fd :: !wfds
          | `Executing | `Closed -> ())
        conns;
      (* Sleep until an event, or until the earliest lock-wait deadline;
         with nothing parked an idle server makes no scheduled wakeup. *)
      let timeout =
        match !parked with
        | [] -> -1.0
        | jobs ->
            let earliest =
              List.fold_left (fun acc j -> Float.min acc j.jdeadline) infinity jobs
            in
            Float.max 0.0 (earliest -. Unix.gettimeofday ())
      in
      (match Unix.select !rfds !wfds [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, writable, _ ->
          if (not !stop_seen) && List.mem t.stop_r readable then begin
            drain_pipe t.stop_r;
            stop_seen := true;
            (* Idle sessions are torn down now (aborting their orphaned
               transactions — which also unblocks parked waiters); busy
               ones get their reply written first, then close. *)
            let cs = Hashtbl.fold (fun _ c acc -> c :: acc) conns [] in
            List.iter
              (fun c ->
                match c.c_state with
                | `Reading -> teardown_conn c
                | `Executing | `Writing -> c.c_close <- true
                | `Closed -> ())
              cs
          end;
          if List.mem t.wake_r readable then begin
            drain_pipe t.wake_r;
            drain_completions ()
          end;
          if not !stop_seen then
            List.iter
              (fun lfd -> if List.mem lfd readable then accept_loop lfd)
              t.listeners;
          (* Parked waiters are retried after each connection's turn:
             a request read after the blocker's COMMIT in the same round
             cannot take the freed lock ahead of them. *)
          List.iter
            (fun fd ->
              match Hashtbl.find_opt conns fd with
              | Some c when c.c_state = `Reading ->
                  on_readable c;
                  retry_parked ()
              | _ -> ())
            readable;
          List.iter
            (fun fd ->
              match Hashtbl.find_opt conns fd with
              | Some c when c.c_state = `Writing ->
                  resume c;
                  retry_parked ()
              | _ -> ())
            writable);
      retry_parked ();
      main ()
    end
  in
  main ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let start ?(config = default_config) database =
  (* The registry cannot drop a source: a second server on this
     database would list every server.* row twice. *)
  if List.mem_assoc "server.statements" (Db.metrics_snapshot database) then
    invalid_arg "Server.start: the database already has a server";
  (* A peer hanging up mid-write must be an EPIPE error, not a fatal
     signal. Writes already map it to a closed-connection result. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let stop_r, stop_w = Unix.pipe () in
  let wake_r, wake_w = Unix.pipe () in
  List.iter Unix.set_nonblock [ stop_r; stop_w; wake_r; wake_w ];
  let tcp =
    match config.port with
    | Some port -> Some (listen_tcp ~host:config.host ~port)
    | None -> None
  in
  let unix_l = Option.map (fun path -> listen_unix ~path) config.unix_path in
  let metrics = Db.metrics database in
  let counter name = Metrics.counter metrics ("server." ^ name) in
  let t =
    { database;
      config;
      registry = Session.create_registry ();
      kernel = Mutex.create ();
      released = false;
      listeners =
        (match tcp with Some (fd, _) -> [ fd ] | None -> [])
        @ (match unix_l with Some fd -> [ fd ] | None -> []);
      tcp_port = Option.map snd tcp;
      stop_r;
      stop_w;
      wake_r;
      wake_w;
      comp_m = Mutex.create ();
      completions = [];
      reactor = None;
      gc_m = Mutex.create ();
      gc_work = Condition.create ();
      gc_waiters = [];
      gc_pending = 0;
      gc_durable = 0;
      gc_stop = false;
      gc_commits = 0;
      gc_batches = 0;
      gc_max_batch = 0;
      log_writer = None;
      stopped = false;
      m_statements = counter "statements";
      m_deadlock = counter "deadlock_aborts";
      m_timeout = counter "timeout_aborts";
      m_disconnect = counter "disconnect_aborts";
      m_protocol = counter "protocol_errors";
      m_redirects = counter "redirects";
      m_prepares = counter "prepares";
      m_decides = counter "decides";
      m_wrong_shard = counter "wrong_shard_redirects";
      repl = None;
      shard_map = None
    }
  in
  (* Wake-on-unlock: the hook runs on the reactor (the one thread that
     commits, aborts and tears down), so marking the release is enough —
     the reactor retries its parked statements before it next sleeps. *)
  Lock.set_release_hook (Store.locks (Db.store database)) (fun () -> t.released <- true);
  (* The rest of the server's rows: state the session registry and the
     log-writer keep anyway. The gc_* values are read under [gc_m], one
     consistent cut; STATS takes this under the kernel lock, and the
     log-writer never holds [gc_m] while it waits for the kernel. *)
  Metrics.register_source metrics (fun () ->
      ("server.sessions_active", Session.count t.registry)
      :: ("server.sessions_opened", Session.total_opened t.registry)
      :: Mutex.protect t.gc_m (fun () ->
             [ ("server.gc_batches", t.gc_batches);
               ("server.gc_commits", t.gc_commits);
               ("server.gc_max_batch", t.gc_max_batch)
             ]));
  (* Every cell is interned and every source registered before the
     first thread starts: a STATS snapshot iterates the registry, so
     nothing may be added to it while one can run. The replica comes
     first, so it registers its metrics before any thread is up. *)
  t.repl <-
    Option.map
      (fun primary ->
        Replication.start ~db:database ~kernel:t.kernel ~primary
          ~poll_interval:config.poll_interval ())
      config.replica_of;
  t.log_writer <- Some (Thread.create log_writer_loop t);
  t.reactor <- Some (Thread.create reactor_loop t);
  t

let port t = t.tcp_port

let db t = t.database

let shutdown t =
  if not t.stopped then begin
    t.stopped <- true;
    (* Retire the replication stream first: its thread takes the kernel
       lock like the reactor, and it must not race the teardown below. *)
    (match t.repl with
    | Some repl ->
        Replication.stop repl;
        t.repl <- None
    | None -> ());
    (* The reactor drains: idle sessions are torn down at once, busy
       ones get their in-flight reply first — a parked statement is
       retried when the teardowns release its locks (or times out), and
       the log-writer is still live to ACK deferred commits. It exits
       when no connection remains. *)
    poke t.stop_w;
    Option.iter Thread.join t.reactor;
    t.reactor <- None;
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.listeners;
    (match t.config.unix_path with
    | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | None -> ());
    (* No committer can be waiting any more: stop the log-writer. *)
    Mutex.protect t.gc_m (fun () ->
        t.gc_stop <- true;
        Condition.signal t.gc_work);
    Option.iter Thread.join t.log_writer;
    t.log_writer <- None;
    Lock.clear_release_hook (Store.locks (Db.store t.database));
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ t.stop_r; t.stop_w; t.wake_r; t.wake_w ]
  end

let audit t =
  let problems = ref [] in
  let check cond msg = if not cond then problems := msg :: !problems in
  let locks = Store.locks (Db.store t.database) in
  check (Session.count t.registry = 0)
    (Printf.sprintf "%d session(s) still registered" (Session.count t.registry));
  check
    (Db.active_transactions t.database = [])
    (Printf.sprintf "%d kernel transaction(s) still active"
       (List.length (Db.active_transactions t.database)));
  check
    (Lock.active_transactions locks = 0)
    (Printf.sprintf "%d lock-manager transaction(s) still active"
       (Lock.active_transactions locks));
  check
    (Lock.resource_count locks = 0)
    (Printf.sprintf "%d locked resource(s) leaked" (Lock.resource_count locks));
  let temps = Store.live_temp_files (Db.store t.database) in
  check (temps = 0) (Printf.sprintf "%d join temp file(s) leaked" temps);
  match !problems with [] -> Ok () | ps -> Error (String.concat "; " ps)
