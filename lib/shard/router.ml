module Wire = Mood_server.Wire
module Client = Mood_server.Client
module Session = Mood_server.Session
module Metrics = Mood_obs.Metrics

type config = {
  host : string;
  port : int option;
  shards : string list;
  decision_log : string;
}

let default_config =
  { host = "127.0.0.1";
    port = Some 0;
    shards = [];
    decision_log = "mood_router.decisions"
  }

type t = {
  config : config;
  shards : string array;
  registry : Session.registry;
  coord_m : Mutex.t;
      (* guards the coordinator state below: gid allocation, the
         decision log and its in-memory mirror, and the in-flight set *)
  dlog : Decision_log.t;
  decisions : (int, bool) Hashtbl.t;  (* every logged decision *)
  inflight : (int, unit) Hashtbl.t;
      (* gids mid-2PC right now: a concurrent leg handshake must not
         "resolve" them out from under their coordinator session *)
  pending_decides : (int, (int, unit) Hashtbl.t) Hashtbl.t;
      (* shard index -> gids whose DECIDE could not be delivered (the
         shard was down): the shard holds a PREPAREd transaction with
         its extent locks until the decision reaches it, so delivery
         is retried through any live leg and by the background
         resolver — not left to the next brand-new leg's handshake *)
  mutable next_gid : int;
  metrics : Metrics.t;
  metrics_m : Mutex.t;
      (* every session handler and the resolver count into the shard.*
         counters below, so each increment takes this lock *)
  m_routed : Metrics.counter;
  m_scattered : Metrics.counter;
  m_prepares : Metrics.counter;
  m_commits : Metrics.counter;
  m_aborts : Metrics.counter;
  m_indoubt : Metrics.counter;
  m_redirects : Metrics.counter;
  lfd : Unix.file_descr;
  tcp_port : int;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  mutable acceptor : Thread.t option;
  mutable resolver : Thread.t option;
  handlers_m : Mutex.t;
  mutable handlers : Thread.t list;
  mutable stopping : bool;
  mutable stopped : bool;
}

let count t c = Mutex.protect t.metrics_m (fun () -> Metrics.incr c)

(* Undelivered-decision bookkeeping: a DECIDE that found its shard down
   is queued under the shard's index until some connection gets it
   through. *)
let note_undelivered t i gid =
  Mutex.protect t.coord_m (fun () ->
      let set =
        match Hashtbl.find_opt t.pending_decides i with
        | Some s -> s
        | None ->
            let s = Hashtbl.create 4 in
            Hashtbl.replace t.pending_decides i s;
            s
      in
      Hashtbl.replace set gid ())

let pending_for t i =
  Mutex.protect t.coord_m (fun () ->
      match Hashtbl.find_opt t.pending_decides i with
      | None -> []
      | Some s -> Hashtbl.fold (fun gid () acc -> gid :: acc) s [])

let clear_pending t i gid =
  Mutex.protect t.coord_m (fun () ->
      match Hashtbl.find_opt t.pending_decides i with
      | None -> ()
      | Some s ->
          Hashtbl.remove s gid;
          if Hashtbl.length s = 0 then Hashtbl.remove t.pending_decides i)

let shards_with_pending t =
  Mutex.protect t.coord_m (fun () ->
      Hashtbl.fold (fun i _ acc -> i :: acc) t.pending_decides [])

(* ------------------------------------------------------------------ *)
(* Shard legs                                                          *)

(* One client connection per (session, shard), opened lazily so the
   cluster can come up in any order and a read-only session never
   touches shards it does not query. *)
type conn = {
  session : Session.t;
  mutable legs : (int * Client.t) list;
  mutable txn_open : bool;       (* client-facing BEGIN .. COMMIT *)
  mutable begun : int list;      (* shard legs with an open transaction *)
}

exception Shard_unavailable of int * string

(* Resolve a reconnecting shard's in-doubt transactions from the
   decision log: a logged commit is replayed, anything else is
   presumed aborted. Gids belonging to a 2PC currently in flight are
   left alone — their own coordinator session is about to decide. *)
let resolve_indoubt t leg gids =
  List.iter
    (fun gid ->
      let verdict =
        Mutex.protect t.coord_m (fun () ->
            if Hashtbl.mem t.inflight gid then None
            else Some (Hashtbl.find_opt t.decisions gid = Some true))
      in
      match verdict with
      | None -> ()
      | Some commit ->
          ignore (Client.decide leg ~gid ~commit);
          count t t.m_indoubt)
    gids

(* Push decisions the shard missed (it was down at DECIDE time)
   through a live connection to it. The verdict comes from the log
   mirror: a logged commit commits, anything else — including the
   gid's own allocation fence — aborts. A shard that already resolved
   the gid answers UNKNOWN; either way the delivery is final and the
   entry is dropped. *)
let drain_pending t c i =
  List.iter
    (fun gid ->
      let commit =
        Mutex.protect t.coord_m (fun () -> Hashtbl.find_opt t.decisions gid = Some true)
      in
      ignore (Client.decide c ~gid ~commit);
      count t t.m_indoubt;
      clear_pending t i gid)
    (pending_for t i)

let drop_leg conn i =
  match List.assoc_opt i conn.legs with
  | None -> ()
  | Some c ->
      conn.legs <- List.remove_assoc i conn.legs;
      Client.close c

let leg t conn i =
  match List.assoc_opt i conn.legs with
  | Some c -> c
  | None ->
      let addr = t.shards.(i) in
      let c =
        try Client.connect_endpoint addr
        with Unix.Unix_error _ | Failure _ -> raise (Shard_unavailable (i, addr))
      in
      (* Identity handshake: install the shard map and collect the
         shard's in-doubt gids for resolution. *)
      (match
         try Client.shard_map c ~version:1 ~self:i ~shards:(Array.to_list t.shards)
         with Client.Disconnected | Wire.Protocol_error _ ->
           Client.close c;
           raise (Shard_unavailable (i, addr))
       with
      | Wire.Rows gids -> resolve_indoubt t c (List.filter_map int_of_string_opt gids)
      | _ ->
          Client.close c;
          raise (Shard_unavailable (i, addr)));
      (try drain_pending t c i
       with Client.Disconnected | Wire.Protocol_error _ | Unix.Unix_error _ ->
         Client.close c;
         raise (Shard_unavailable (i, addr)));
      conn.legs <- (i, c) :: conn.legs;
      c

let on_leg t conn i req =
  let c = leg t conn i in
  try
    (* A cached leg proves the shard is reachable: deliver any DECIDEs
       it missed before this session's own traffic. *)
    drain_pending t c i;
    Client.request c req
  with Client.Disconnected | Wire.Protocol_error _ | Unix.Unix_error _ ->
    drop_leg conn i;
    raise (Shard_unavailable (i, t.shards.(i)))

(* Inside a client transaction, the first statement touching a shard
   opens that shard's leg transaction. *)
let ensure_begun t conn i =
  if conn.txn_open && not (List.mem i conn.begun) then begin
    match on_leg t conn i Wire.Begin with
    | Wire.Ok_result _ -> conn.begun <- i :: conn.begun
    | resp ->
        raise
          (Failure
             (Printf.sprintf "shard %d refused BEGIN: %s" i
                (match resp with
                | Wire.Err m -> m
                | Wire.Busy m -> "busy: " ^ m
                | _ -> "unexpected response")))
  end

(* ------------------------------------------------------------------ *)
(* Response merging                                                    *)

let describe = function
  | Wire.Ok_result m -> m
  | Wire.Rows rows -> Printf.sprintf "%d row(s)" (List.length rows)
  | Wire.Err m -> m
  | Wire.Aborted m -> "aborted: " ^ m
  | Wire.Busy m -> "busy: " ^ m
  | Wire.Redirect a -> "redirect to " ^ a
  | Wire.Wrong_shard { ws_shard; ws_addr } ->
      Printf.sprintf "wrong shard (owner %d at %s)" ws_shard ws_addr
  | Wire.Pong -> "pong"
  | Wire.Bye -> "bye"
  | Wire.Blob b -> Printf.sprintf "%d-byte blob" (String.length b)

(* "updated 3" + "updated 0" + "updated 2" = "updated 5": scattered
   DML replies merge by summing the per-shard object counts. *)
let merge_ok_counts responses =
  let parse m =
    match String.rindex_opt m ' ' with
    | None -> None
    | Some i -> (
        match int_of_string_opt (String.sub m (i + 1) (String.length m - i - 1)) with
        | Some n -> Some (String.sub m 0 i, n)
        | None -> None)
  in
  let rec sum acc word = function
    | [] -> Some (Wire.Ok_result (Printf.sprintf "%s %d" word acc))
    | Wire.Ok_result m :: rest -> (
        match parse m with
        | Some (w, n) when w = word -> sum (acc + n) word rest
        | _ -> None)
    | _ :: _ -> None
  in
  match responses with
  | Wire.Ok_result m :: rest -> (
      match parse m with
      | Some (word, n) -> (
          match sum n word rest with
          | Some merged -> merged
          | None -> List.hd responses)
      | None -> List.hd responses)
  | first :: _ -> first
  | [] -> Wire.Err "no shards"

let first_failure responses =
  List.find_opt
    (function
      | Wire.Ok_result _ | Wire.Rows _ -> false
      | _ -> true)
    responses

(* ------------------------------------------------------------------ *)
(* Statement dispatch                                                  *)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.uppercase_ascii (String.sub s 0 (String.length prefix)) = prefix

(* Object creation: hash-routed to the owner; a WRONG_SHARD answer
   (map drift) is followed, bounded by the shard count. *)
let route_creation t conn ~query sql key =
  let n = Array.length t.shards in
  let rec go i attempts =
    if attempts > n then Wire.Err "placement: shards disagree on ownership"
    else begin
      ensure_begun t conn i;
      match on_leg t conn i (if query then Wire.Query sql else Wire.Exec sql) with
      | Wire.Wrong_shard { ws_shard; _ } ->
          count t t.m_redirects;
          go ws_shard (attempts + 1)
      | resp ->
          count t t.m_routed;
          resp
    end
  in
  go (Wire.placement_hash key mod n) 0

(* Scatter-gather over every shard, in shard order. *)
let scatter t conn ~query sql =
  count t t.m_scattered;
  Array.to_list
    (Array.mapi
       (fun i _ ->
         ensure_begun t conn i;
         (i, on_leg t conn i (if query then Wire.Query sql else Wire.Exec sql)))
       t.shards)

let scatter_read t conn ~query ~explain sql =
  let results = scatter t conn ~query sql in
  match first_failure (List.map snd results) with
  | Some failure -> failure
  | None ->
      let rows_of (i, resp) =
        let rows = match resp with Wire.Rows rows -> rows | _ -> [] in
        if explain then
          Printf.sprintf "-- shard %d (%s)" i t.shards.(i) :: rows
        else rows
      in
      Wire.Rows (List.concat_map rows_of results)

let scatter_dml t conn ~query sql =
  let results = List.map snd (scatter t conn ~query sql) in
  match first_failure results with
  | Some failure -> failure
  | None -> merge_ok_counts results

(* ------------------------------------------------------------------ *)
(* Cluster transactions                                                *)

let abort_cluster t conn =
  let begun = conn.begun in
  conn.txn_open <- false;
  conn.begun <- [];
  List.iter
    (fun i ->
      try ignore (on_leg t conn i Wire.Abort) with Shard_unavailable _ -> ())
    begun

let commit_cluster t conn =
  let begun = List.sort compare conn.begun in
  conn.txn_open <- false;
  conn.begun <- [];
  match begun with
  | [] -> Wire.Ok_result "COMMIT"
  | [ i ] -> (
      (* One shard touched: its local commit IS the cluster commit. *)
      try on_leg t conn i Wire.Commit
      with Shard_unavailable (i, addr) ->
        Wire.Aborted
          (Printf.sprintf "shard %d (%s) lost before commit: presumed aborted" i addr))
  | legs ->
      let gid =
        Mutex.protect t.coord_m (fun () ->
            let gid = t.next_gid in
            t.next_gid <- gid + 1;
            (* Durable allocation fence, forced BEFORE the first
               PREPARE leaves: under presumed abort [commit = false]
               is already the gid's correct verdict, and because a
               restarted router derives next_gid from the log's
               maximum, the gid is burned — it can never be handed to
               a later transaction whose commit record would flip a
               shard's still-PREPAREd copy of the old one. *)
            Decision_log.append t.dlog ~gid ~commit:false;
            Hashtbl.replace t.decisions gid false;
            Hashtbl.replace t.inflight gid ();
            gid)
      in
      let finish resp =
        Mutex.protect t.coord_m (fun () -> Hashtbl.remove t.inflight gid);
        resp
      in
      (* Phase one: collect votes. Any failure — an error, a lost
         shard — is a no vote. *)
      let prepared, failures =
        List.fold_left
          (fun (prepared, failures) i ->
            match
              try on_leg t conn i (Wire.Prepare gid)
              with Shard_unavailable (_, addr) ->
                Wire.Err (Printf.sprintf "shard unavailable (%s)" addr)
            with
            | Wire.Ok_result _ ->
                count t t.m_prepares;
                (i :: prepared, failures)
            | resp -> (prepared, (i, resp) :: failures))
          ([], []) legs
      in
      if failures <> [] then begin
        (* Presumed abort: the allocation fence already is the durable
           verdict. Roll back the prepared legs — one that cannot be
           reached keeps its locks until the decision lands, so it
           goes on the retry queue — and fold up the ones that never
           prepared. *)
        List.iter
          (fun i ->
            try ignore (on_leg t conn i (Wire.Decide { d_gid = gid; d_commit = false }))
            with Shard_unavailable _ -> note_undelivered t i gid)
          prepared;
        List.iter
          (fun (i, _) ->
            try ignore (on_leg t conn i Wire.Abort) with Shard_unavailable _ -> ())
          failures;
        count t t.m_aborts;
        let i, resp = List.hd (List.rev failures) in
        finish
          (Wire.Aborted
             (Printf.sprintf "2PC gid %d: shard %d voted no: %s" gid i (describe resp)))
      end
      else begin
        (* Every vote is yes: force the commit decision to the log
           BEFORE any DECIDE leaves — from here the transaction is
           committed whatever happens to us or to the shards. *)
        Mutex.protect t.coord_m (fun () ->
            Decision_log.append t.dlog ~gid ~commit:true;
            Hashtbl.replace t.decisions gid true);
        let undelivered =
          List.filter
            (fun i ->
              try
                ignore (on_leg t conn i (Wire.Decide { d_gid = gid; d_commit = true }));
                false
              with Shard_unavailable _ ->
                note_undelivered t i gid;
                true)
            legs
        in
        count t t.m_commits;
        finish
          (Wire.Ok_result
             (if undelivered = [] then
                Printf.sprintf "COMMIT (2PC gid %d across %d shards)" gid
                  (List.length legs)
              else
                Printf.sprintf
                  "COMMIT (2PC gid %d across %d shards; %d shard(s) in doubt, \
                   resolved on reconnect)"
                  gid (List.length legs) (List.length undelivered)))
      end

(* A mutation outside an explicit transaction still touches every
   shard, so it runs as a cluster-wide transaction of its own. *)
let autocommit_dml t conn ~query sql =
  conn.txn_open <- true;
  conn.begun <- [];
  match scatter_dml t conn ~query sql with
  | Wire.Ok_result _ as ok -> (
      match commit_cluster t conn with
      | Wire.Ok_result _ -> ok
      | failure -> failure)
  | failure ->
      abort_cluster t conn;
      failure
  | exception e ->
      abort_cluster t conn;
      raise e

(* DDL broadcasts to every shard and must succeed everywhere. Not
   transactional: a mid-broadcast failure leaves shards divergent and
   says so. Refused inside a transaction for the same reason. *)
let broadcast_ddl t conn ~query sql =
  if conn.txn_open then
    Wire.Err "DDL through the router is not transactional: run it outside BEGIN"
  else begin
    let results = scatter t conn ~query sql in
    match
      List.filter
        (fun (_, resp) ->
          match resp with Wire.Ok_result _ | Wire.Rows _ -> false | _ -> true)
        results
    with
    | [] -> snd (List.hd results)
    | (i, resp) :: _ as bad ->
        if List.length bad < List.length results then
          Wire.Err
            (Printf.sprintf
               "DDL diverged: shard %d failed (%s) after %d shard(s) applied it"
               i (describe resp)
               (List.length results - List.length bad))
        else resp
  end

let dispatch t conn ~query sql =
  let key = Mood.Plan_cache.normalize sql in
  if starts_with "NEW " key then route_creation t conn ~query sql key
  else if Mood.Db.read_only_text sql then
    scatter_read t conn ~query ~explain:(starts_with "EXPLAIN" key) sql
  else if starts_with "UPDATE " key || starts_with "DELETE " key then
    if conn.txn_open then scatter_dml t conn ~query sql
    else autocommit_dml t conn ~query sql
  else broadcast_ddl t conn ~query sql

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

let stats_rows t conn =
  let own = Session.stats_rows conn.session (Metrics.snapshot t.metrics) in
  (* Per-shard counters, namespaced by shard index — the scatter half
     of STATS. A dead shard is one row, not an error. *)
  let shard_rows =
    List.concat
      (List.init (Array.length t.shards) (fun i ->
           match
             try `Stats (Client.stats (leg t conn i)) with
             | Shard_unavailable _ -> `Down
             | Failure _ | Client.Disconnected | Wire.Protocol_error _ ->
                 drop_leg conn i;
                 `Down
           with
           | `Stats rows ->
               List.map (fun (k, v) -> Printf.sprintf "shard%d.%s %d" i k v) rows
           | `Down -> [ Printf.sprintf "shard%d.unavailable 1" i ]))
  in
  own @ shard_rows

let hello_response v =
  if v = Wire.protocol_version then
    Wire.Ok_result
      (Printf.sprintf "mood protocol %d role=router term=0" Wire.protocol_version)
  else
    Wire.Err
      (Printf.sprintf "protocol version mismatch: client speaks %d, server speaks %d"
         v Wire.protocol_version)

let execute t conn = function
  | Wire.Query sql -> dispatch t conn ~query:true sql
  | Wire.Exec sql -> dispatch t conn ~query:false sql
  | Wire.Begin ->
      if conn.txn_open then Wire.Err "already in a transaction"
      else begin
        conn.txn_open <- true;
        conn.begun <- [];
        Wire.Ok_result "BEGIN"
      end
  | Wire.Commit ->
      if not conn.txn_open then Wire.Err "no open transaction"
      else commit_cluster t conn
  | Wire.Abort ->
      if not conn.txn_open then Wire.Err "no open transaction"
      else begin
        abort_cluster t conn;
        conn.session.Session.aborts <- conn.session.Session.aborts + 1;
        Wire.Ok_result "ABORT"
      end
  | Wire.Stats -> Wire.Rows (stats_rows t conn)
  | Wire.Ping -> Wire.Pong
  | Wire.Quit -> Wire.Bye
  | Wire.Hello v -> hello_response v
  | Wire.Prepare _ | Wire.Decide _ | Wire.Shard_map _ ->
      Wire.Err "2PC opcodes are shard-side: the router coordinates them itself"
  | Wire.Repl_snapshot | Wire.Repl_pull _ | Wire.Promote | Wire.Fence _ ->
      Wire.Err "replication opcodes are not supported by the router"

(* ------------------------------------------------------------------ *)
(* Connection handling                                                 *)

let teardown t conn =
  if conn.txn_open then begin
    (* Disconnect mid-transaction: the cluster-wide abort. (A leg
       PREPAREd by a 2PC in flight cannot exist here — COMMIT is
       synchronous within its request.) *)
    abort_cluster t conn;
    conn.session.Session.aborts <- conn.session.Session.aborts + 1
  end;
  List.iter (fun (_, c) -> Client.quit c) conn.legs;
  conn.legs <- [];
  Session.remove_and_close t.registry conn.session

let handle_connection t (session : Session.t) =
  let conn = { session; legs = []; txn_open = false; begun = [] } in
  let fd = session.Session.fd in
  (try
     let rec loop () =
       match Wire.read_request fd with
       | None -> ()
       | Some Wire.Quit -> Wire.write_response fd Wire.Bye
       | Some (Wire.Hello v) ->
           let resp = hello_response v in
           Wire.write_response fd resp;
           (match resp with
           | Wire.Ok_result _ ->
               session.Session.hello <- Some v;
               loop ()
           | _ -> ())
       | Some request ->
           let resp =
             try execute t conn request with
             | Shard_unavailable (i, addr) ->
                 (* A shard died under a routed statement. Outside a
                    transaction nothing is at stake; inside, the only
                    safe answer is a cluster-wide abort. *)
                 if conn.txn_open then begin
                   abort_cluster t conn;
                   session.Session.aborts <- session.Session.aborts + 1;
                   Wire.Aborted
                     (Printf.sprintf "shard %d (%s) unavailable: transaction aborted"
                        i addr)
                 end
                 else
                   Wire.Err (Printf.sprintf "shard %d (%s) unavailable" i addr)
             | Failure m -> Wire.Err m
             | e -> Wire.Err ("internal error: " ^ Printexc.to_string e)
           in
           session.Session.statements <- session.Session.statements + 1;
           (match resp with
           | Wire.Rows rows ->
               session.Session.rows_returned <-
                 session.Session.rows_returned + List.length rows
           | _ -> ());
           Wire.write_response fd resp;
           loop ()
     in
     loop ()
   with
  | Wire.Protocol_error m -> (
      try Wire.write_response fd (Wire.Err ("protocol error: " ^ m))
      with Wire.Protocol_error _ | Unix.Unix_error _ -> ())
  | Unix.Unix_error _ -> ());
  teardown t conn

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let record_handler t th =
  Mutex.protect t.handlers_m (fun () -> t.handlers <- th :: t.handlers)

let acceptor_loop t =
  let rec loop () =
    if t.stopping then ()
    else begin
      match Unix.select [ t.lfd; t.stop_r ] [] [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | readable, _, _ ->
          if List.mem t.stop_r readable || t.stopping then ()
          else begin
            (match Unix.accept t.lfd with
            | fd, addr ->
                Unix.clear_nonblock fd;
                let session =
                  Session.register t.registry ~fd ~peer:(Client.sockaddr_name addr)
                in
                record_handler t (Thread.create (handle_connection t) session)
            | exception
                Unix.Unix_error
                  ( (Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED | Unix.EINTR),
                    _,
                    _ ) ->
                ());
            loop ()
          end
    end
  in
  loop ()

(* Background in-doubt resolver: while any DECIDE is undelivered, its
   shard sits on a PREPAREd transaction holding exclusive extent
   locks. Session traffic drains the queue through live legs; this
   thread covers the quiet cluster, periodically opening a transient
   connection to each shard still owed a decision and pushing it
   through the same handshake-resolve + drain path. *)
let resolver_tick t =
  List.iter
    (fun i ->
      try
        let c = Client.connect_endpoint t.shards.(i) in
        Fun.protect
          ~finally:(fun () -> Client.quit c)
          (fun () ->
            (match Client.shard_map c ~version:1 ~self:i ~shards:(Array.to_list t.shards) with
            | Wire.Rows gids ->
                resolve_indoubt t c (List.filter_map int_of_string_opt gids)
            | _ -> ());
            drain_pending t c i)
      with
      | Client.Disconnected | Wire.Protocol_error _ | Unix.Unix_error _ | Failure _
        ->
          (* Still unreachable: the queue keeps the debt, next tick
             (or the next live leg) retries. *)
          ())
    (shards_with_pending t)

let resolver_loop t =
  let rec loop () =
    if not t.stopping then begin
      (match Unix.select [ t.stop_r ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | _ -> ());
      if not t.stopping then begin
        resolver_tick t;
        loop ()
      end
    end
  in
  loop ()

let start (config : config) =
  if config.shards = [] then failwith "mood_router: at least one shard is required";
  (* A malformed address is a configuration error: refuse it here, not
     as an unavailable shard on every statement. *)
  List.iter (fun spec -> ignore (Client.endpoint spec)) config.shards;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let dlog, replayed = Decision_log.open_ ~path:config.decision_log in
  let decisions = Hashtbl.create 64 in
  List.iter (fun (gid, commit) -> Hashtbl.replace decisions gid commit) replayed;
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt lfd Unix.SO_REUSEADDR true;
     Unix.bind lfd
       (Unix.ADDR_INET (Client.resolve_host config.host, Option.value ~default:0 config.port));
     Unix.listen lfd 64;
     Unix.set_nonblock lfd
   with e ->
     Unix.close lfd;
     raise e);
  let tcp_port =
    match Unix.getsockname lfd with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  let stop_r, stop_w = Unix.pipe () in
  let metrics = Metrics.create () in
  let t =
    { config;
      shards = Array.of_list config.shards;
      registry = Session.create_registry ();
      coord_m = Mutex.create ();
      dlog;
      decisions;
      inflight = Hashtbl.create 16;
      pending_decides = Hashtbl.create 4;
      (* Every allocated gid is fenced into the log before use, so
         the maximum covers aborted and in-flight gids too — not just
         announced commits. *)
      next_gid = Decision_log.max_gid replayed + 1;
      metrics;
      metrics_m = Mutex.create ();
      m_routed = Metrics.counter metrics "shard.routed";
      m_scattered = Metrics.counter metrics "shard.scattered";
      m_prepares = Metrics.counter metrics "shard.prepares";
      m_commits = Metrics.counter metrics "shard.commits_2pc";
      m_aborts = Metrics.counter metrics "shard.aborts_2pc";
      m_indoubt = Metrics.counter metrics "shard.indoubt_recovered";
      m_redirects = Metrics.counter metrics "shard.wrong_shard_redirects";
      lfd;
      tcp_port;
      stop_r;
      stop_w;
      acceptor = None;
      resolver = None;
      handlers_m = Mutex.create ();
      handlers = [];
      stopping = false;
      stopped = false
    }
  in
  Metrics.register_source metrics (fun () ->
      [ ("router.sessions_active", Session.count t.registry);
        ("router.sessions_opened", Session.total_opened t.registry)
      ]);
  t.acceptor <- Some (Thread.create acceptor_loop t);
  t.resolver <- Some (Thread.create resolver_loop t);
  t

let port t = if t.tcp_port = 0 then None else Some t.tcp_port

let metrics t = t.metrics

let shutdown t =
  if not t.stopped then begin
    t.stopped <- true;
    t.stopping <- true;
    (try ignore (Unix.write t.stop_w (Bytes.of_string "x") 0 1)
     with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.acceptor;
    Option.iter Thread.join t.resolver;
    (try Unix.close t.lfd with Unix.Unix_error _ -> ());
    List.iter (Session.shutdown_read t.registry) (Session.snapshot t.registry);
    List.iter Thread.join (Mutex.protect t.handlers_m (fun () -> t.handlers));
    Decision_log.close t.dlog;
    (try Unix.close t.stop_r with Unix.Unix_error _ -> ());
    try Unix.close t.stop_w with Unix.Unix_error _ -> ()
  end

let audit t =
  let problems = ref [] in
  let check cond msg = if not cond then problems := msg :: !problems in
  check (Session.count t.registry = 0)
    (Printf.sprintf "%d session(s) still registered" (Session.count t.registry));
  check
    (Hashtbl.length t.inflight = 0)
    (Printf.sprintf "%d two-phase commit(s) still in flight" (Hashtbl.length t.inflight));
  match !problems with [] -> Ok () | ps -> Error (String.concat "; " ps)
