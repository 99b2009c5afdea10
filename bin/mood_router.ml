(* The MOOD shard router daemon: one coordinator in front of N
   mood_server shards. Clients speak the ordinary wire protocol to it;
   it hash-routes object creations, scatter-gathers reads, broadcasts
   DDL and coordinates cross-shard transactions with two-phase commit
   (durable commit decisions in --decision-log).

     dune exec bin/mood_router.exe -- \
       --shard 127.0.0.1:7451 --shard 127.0.0.1:7452 --shard 127.0.0.1:7453 \
       --port 0 --port-file router.port --decision-log router.decisions *)

module Router = Mood_shard.Router

let run host port shards decision_log port_file =
  if shards = [] then begin
    prerr_endline "mood_router: at least one --shard is required";
    exit 2
  end;
  let config =
    { Router.host; port = Some port; shards; decision_log }
  in
  let router = Router.start config in
  let bound = Option.value ~default:0 (Router.port router) in
  Printf.printf "mood_router listening on %s:%d, %d shard(s): %s\n%!" host bound
    (List.length shards) (String.concat ", " shards);
  (match port_file with
  | Some path ->
      (* Write then rename so readers never observe a partial file. *)
      let tmp = path ^ ".tmp" in
      Out_channel.with_open_text tmp (fun oc -> Printf.fprintf oc "%d\n" bound);
      Sys.rename tmp path
  | None -> ());
  let stop = Atomic.make false in
  let request_stop _ = Atomic.set stop true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  while not (Atomic.get stop) do
    Thread.delay 0.05
  done;
  prerr_endline "mood_router: shutting down";
  Router.shutdown router;
  List.iter
    (fun (k, v) -> Printf.eprintf "mood_router: %s %d\n%!" k v)
    (Mood_obs.Metrics.snapshot (Router.metrics router));
  match Router.audit router with
  | Ok () ->
      prerr_endline "mood_router: clean shutdown";
      0
  | Error m ->
      Printf.eprintf "mood_router: LEAK at shutdown: %s\n%!" m;
      1

open Cmdliner

let host =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"TCP bind address.")

let port =
  Arg.(
    value
    & opt int 7460
    & info [ "p"; "port" ] ~docv:"PORT" ~doc:"TCP port; 0 binds an ephemeral port.")

let shards =
  Arg.(
    value
    & opt_all string []
    & info [ "shard" ] ~docv:"HOST:PORT"
        ~doc:"A shard endpoint; repeat once per shard, in shard order (the \
              order defines the placement function).")

let decision_log =
  Arg.(
    value
    & opt string "mood_router.decisions"
    & info [ "decision-log" ] ~docv:"FILE"
        ~doc:"Durable 2PC commit-decision log: force-written before any \
              COMMIT verdict, replayed at startup to resolve in-doubt shards.")

let port_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "port-file" ] ~docv:"FILE" ~doc:"Write the bound TCP port to $(docv).")

let cmd =
  Cmd.v
    (Cmd.info "mood_router" ~version:"1.0.0"
       ~doc:"MOOD shard router: hash partitioning and cross-shard 2PC over mood_server shards")
    Term.(const run $ host $ port $ shards $ decision_log $ port_file)

let () = exit (Cmd.eval' cmd)
