(* The MOOD server daemon: serves the wire protocol over TCP (and
   optionally a unix-domain socket) until SIGINT/SIGTERM, then shuts
   down gracefully and audits for leaked sessions/transactions/locks —
   a dirty shutdown is a non-zero exit, so CI smoke runs catch leaks.

     dune exec bin/mood_server.exe -- --demo --port 0 --port-file p.txt

   --port 0 binds an ephemeral port; --port-file publishes the bound
   port for scripts that need to connect without parsing stdout. *)

module Db = Mood.Db
module Server = Mood_server.Server

let run host port unix_path demo demo_schema scale port_file lock_timeout
    replica_of poll_interval journal commit_latency =
  let db = Db.create () in
  (* A replica's schema and contents come from the primary's bootstrap
     snapshot, never from local preloading. *)
  if demo && replica_of = None then begin
    if journal <> None then
      failwith
        "mood_server: --demo data bypasses the statement log; use \
         --demo-schema with --journal";
    Mood_workload.Vehicle.define_schema (Db.catalog db);
    ignore (Mood_workload.Vehicle.generate ~catalog:(Db.catalog db) ~scale ());
    Db.analyze db
  end;
  if demo_schema && (not demo) && replica_of = None then
    Mood_workload.Vehicle.define_schema (Db.catalog db);
  (* Restart-durability for shards: replay the journal into the fresh
     database (DDL re-executed, WAL records re-appended, full recovery
     pass — in-doubt 2PC transactions come back prepared), then attach
     the capture hooks so this process's own history is logged too.
     Replay must run after any schema preloading and before serving. *)
  let jnl =
    Option.map
      (fun path ->
        let ddl, recs = Mood_server.Journal.replay ~path db in
        if ddl + recs > 0 then
          Printf.eprintf "mood_server: journal replayed (%d DDL, %d WAL records)\n%!"
            ddl recs;
        Mood_server.Journal.attach ~path db)
      journal
  in
  let config =
    { Server.host;
      port = Some port;
      unix_path;
      lock_timeout;
      replica_of;
      poll_interval;
      commit_latency
    }
  in
  let server = Server.start ~config db in
  let bound = Option.value ~default:0 (Server.port server) in
  Printf.printf "mood_server listening on %s:%d%s%s%s\n%!" host bound
    (match unix_path with Some p -> " and unix:" ^ p | None -> "")
    (if demo && replica_of = None then " (vehicle demo loaded)" else "")
    (match replica_of with
    | Some primary -> " (replica of " ^ primary ^ ")"
    | None -> "");
  (match port_file with
  | Some path ->
      (* Write then rename so readers never observe a partial file. *)
      let tmp = path ^ ".tmp" in
      Out_channel.with_open_text tmp (fun oc ->
          Printf.fprintf oc "%d\n" bound);
      Sys.rename tmp path
  | None -> ());
  let stop = Atomic.make false in
  let request_stop _ = Atomic.set stop true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  while not (Atomic.get stop) do
    Thread.delay 0.05
  done;
  prerr_endline "mood_server: shutting down";
  Server.shutdown server;
  Option.iter Mood_server.Journal.detach jnl;
  let snapshot = Db.metrics_snapshot db in
  let stat name = Option.value ~default:0 (List.assoc_opt name snapshot) in
  Printf.eprintf
    "mood_server: %d session(s) served, %d statement(s), %d deadlock abort(s), %d disconnect abort(s), %d protocol error(s)\n%!"
    (stat "server.sessions_opened") (stat "server.statements")
    (stat "server.deadlock_aborts") (stat "server.disconnect_aborts")
    (stat "server.protocol_errors");
  match Server.audit server with
  | Ok () ->
      prerr_endline "mood_server: clean shutdown";
      0
  | Error m ->
      Printf.eprintf "mood_server: LEAK at shutdown: %s\n%!" m;
      1

open Cmdliner

let host =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"TCP bind address.")

let port =
  Arg.(
    value
    & opt int 7450
    & info [ "p"; "port" ] ~docv:"PORT" ~doc:"TCP port; 0 binds an ephemeral port.")

let unix_path =
  Arg.(
    value
    & opt (some string) None
    & info [ "unix" ] ~docv:"PATH" ~doc:"Also listen on a unix-domain socket at $(docv).")

let demo =
  Arg.(value & flag & info [ "demo" ] ~doc:"Preload the paper's vehicle database.")

let demo_schema =
  Arg.(
    value
    & flag
    & info [ "demo-schema" ]
        ~doc:
          "Preload the vehicle demo schema only (no objects) — the shard \
           mode: every shard starts with the same classes and the data \
           arrives transactionally, so it composes with --journal.")

let scale =
  Arg.(
    value
    & opt float 0.01
    & info [ "scale" ] ~docv:"S" ~doc:"Demo database scale (with --demo).")

let port_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "port-file" ] ~docv:"FILE" ~doc:"Write the bound TCP port to $(docv).")

let lock_timeout =
  Arg.(
    value
    & opt float 10.0
    & info [ "lock-timeout" ] ~docv:"SECONDS"
        ~doc:"Abort a transaction whose statement waited this long for locks.")

let replica_of =
  Arg.(
    value
    & opt (some string) None
    & info [ "replica-of" ] ~docv:"ENDPOINT"
        ~doc:
          "Start as a streaming read replica of the primary at $(docv) \
           (HOST:PORT or unix:PATH): bootstrap from a snapshot, apply WAL \
           batches continuously, answer writes with a retryable redirect. \
           Promote with the wire PROMOTE opcode (mood_cli promote).")

let poll_interval =
  Arg.(
    value
    & opt float 0.05
    & info [ "poll-interval" ] ~docv:"SECONDS"
        ~doc:"Replica pull tick when the stream is idle (with --replica-of).")

let journal =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Durable restart journal: append every DDL statement and every \
           persisted WAL record to $(docv) and replay it at startup (full \
           recovery — committed effects and in-doubt 2PC transactions \
           survive a kill). Restart with the same preload flags.")

let commit_latency =
  Arg.(
    value
    & opt float 0.
    & info [ "commit-latency" ] ~docv:"SECONDS"
        ~doc:
          "Emulated synchronous log-force: every WAL force a statement \
           performs pays $(docv) seconds of real wall time while it holds \
           the kernel. Makes CPU-trivial write workloads I/O-bound so \
           scaling experiments measure storage parallelism; 0 disables.")

let cmd =
  Cmd.v
    (Cmd.info "mood_server" ~version:"1.0.0"
       ~doc:"MOOD network server: concurrent MOODSQL over the wire protocol")
    Term.(
      const run $ host $ port $ unix_path $ demo $ demo_schema $ scale $ port_file
      $ lock_timeout $ replica_of $ poll_interval $ journal $ commit_latency)

let () = exit (Cmd.eval' cmd)
