(* The MOOD command-line shell: an interactive MOODSQL session over the
   kernel, plus shortcuts for the MoodView text panels.

   Commands inside the REPL:
     .schema            class hierarchy browser
     .class <Name>      class designer panel
     .explain <SELECT>  optimizer plan + dictionaries
     .analyze <SELECT>  EXPLAIN ANALYZE: est-vs-actual operator tree
     .stats             kernel metrics snapshot
     .admin             administration panel
     .history           query history
     .quit
   Anything else is executed as a MOODSQL statement.

   With --connect HOST:PORT (or --connect unix:PATH) the same REPL
   speaks the wire protocol to a running mood_server instead of an
   in-process kernel: statements (including BEGIN/COMMIT/ABORT) go over
   the network, the dot-panels that need the local kernel are
   unavailable, and .ping round-trips a health check. *)

module Db = Mood.Db
module View = Mood_moodview.Moodview
module Qm = Mood_moodview.Query_manager
module Wire = Mood_server.Wire
module Client = Mood_server.Client

let repl ~with_demo () =
  let db = Db.create () in
  if with_demo then begin
    Mood_workload.Vehicle.define_schema (Db.catalog db);
    ignore (Mood_workload.Vehicle.generate ~catalog:(Db.catalog db) ~scale:0.01 ());
    Db.analyze db;
    print_endline "Loaded the vehicle demo database (200 vehicles)."
  end;
  let view = View.create db in
  let qm = View.query_manager view in
  print_string (View.initial_window view);
  print_endline "MOOD interactive shell. Statements end at end of line; .quit exits.";
  let rec loop () =
    print_string "mood> ";
    match In_channel.input_line stdin with
    | None -> ()
    | Some line ->
        let line = String.trim line in
        if line = "" then loop ()
        else if line = ".quit" || line = ".exit" then ()
        else begin
          begin
            if line = ".schema" then print_string (View.schema_browser view)
            else if String.starts_with ~prefix:".class " line then
              print_string
                (View.class_designer view
                   (String.trim (String.sub line 7 (String.length line - 7))))
            else if String.starts_with ~prefix:".explain " line then begin
              match
                Db.explain db (String.trim (String.sub line 9 (String.length line - 9)))
              with
              | text -> print_endline text
              | exception e -> Printf.printf "error: %s\n" (Printexc.to_string e)
            end
            else if String.starts_with ~prefix:".analyze " line then begin
              match
                Db.explain_analyze db
                  (String.trim (String.sub line 9 (String.length line - 9)))
              with
              | text -> print_endline text
              | exception e -> Printf.printf "error: %s\n" (Printexc.to_string e)
            end
            else if line = ".stats" then
              List.iter
                (fun (k, v) -> Printf.printf "%s %d\n" k v)
                (Db.metrics_snapshot db)
            else if line = ".admin" then print_string (View.admin_panel view)
            else if line = ".dump" then print_string (Db.dump_schema db)
            else if line = ".history" then
              List.iteri (fun i q -> Printf.printf "%2d: %s\n" i q) (Qm.history qm)
            else print_endline (Qm.run qm line)
          end;
          loop ()
        end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Remote mode: the REPL over the wire protocol                        *)

let render_response = function
  | Wire.Ok_result m -> "ok: " ^ m
  | Wire.Rows [] -> "(no rows)"
  | Wire.Rows rows -> String.concat "\n" rows
  | Wire.Err m -> "error: " ^ m
  | Wire.Aborted m -> "ABORTED: " ^ m ^ " (transaction rolled back; retry)"
  | Wire.Busy m -> "BUSY: " ^ m
  | Wire.Pong -> "pong"
  | Wire.Bye -> "bye"
  | Wire.Redirect addr -> "NOT_PRIMARY: this node is read-only; retry at " ^ addr
  | Wire.Wrong_shard { ws_shard; ws_addr } ->
      Printf.sprintf "WRONG_SHARD: shard %d owns this key; retry at %s" ws_shard ws_addr
  | Wire.Blob b -> Printf.sprintf "(%d-byte replication blob)" (String.length b)

let remote_repl spec =
  let client = Client.connect_endpoint spec in
  Printf.printf "Connected to mood_server at %s. .quit exits, .ping checks.\n" spec;
  let rec loop () =
    print_string "mood> ";
    match In_channel.input_line stdin with
    | None -> Client.quit client
    | Some line -> (
        let line = String.trim line in
        if line = "" then loop ()
        else if line = ".quit" || line = ".exit" then Client.quit client
        else begin
          (try
             let reply =
               match String.uppercase_ascii line with
               | ".PING" -> Client.ping client
               | ".STATS" -> Client.request client Wire.Stats
               | "BEGIN" -> Client.begin_txn client
               | "COMMIT" -> Client.commit client
               | "ABORT" | "ROLLBACK" -> Client.abort client
               | _ -> Client.exec client line
             in
             print_endline (render_response reply)
           with
          | Client.Disconnected -> failwith "server closed the connection"
          | Wire.Protocol_error m -> failwith ("protocol error: " ^ m));
          loop ()
        end)
  in
  loop ()

open Cmdliner

let demo_flag =
  Arg.(value & flag & info [ "demo" ] ~doc:"Preload the paper's vehicle database.")

let connect_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"HOST:PORT"
        ~doc:
          "Run the shell against a running mood_server (HOST:PORT or unix:PATH) \
           instead of an in-process kernel.")

let repl_cmd =
  let run demo connect =
    match connect with None -> repl ~with_demo:demo () | Some spec -> remote_repl spec
  in
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive MOODSQL shell (local kernel or --connect)")
    Term.(const run $ demo_flag $ connect_opt)

let plans_cmd =
  let run () =
    let db = Db.create () in
    Mood_workload.Vehicle.define_schema (Db.catalog db);
    Db.set_stats db (Mood_workload.Vehicle.paper_stats ());
    List.iter
      (fun (name, q) ->
        Printf.printf "--- %s ---\n%s\n\n%s\n\n" name q (Db.explain db q))
      [ ("Example 8.1", Mood_workload.Vehicle.example_81);
        ("Example 8.2", Mood_workload.Vehicle.example_82)
      ]
  in
  Cmd.v
    (Cmd.info "plans" ~doc:"Print the paper's Example 8.1/8.2 access plans")
    Term.(const run $ const ())

let script_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MOODSQL script")
  in
  let run demo file =
    let db = Db.create () in
    if demo then begin
      Mood_workload.Vehicle.define_schema (Db.catalog db);
      ignore (Mood_workload.Vehicle.generate ~catalog:(Db.catalog db) ~scale:0.01 ());
      Db.analyze db
    end;
    let source = In_channel.with_open_text file In_channel.input_all in
    match Db.exec_script db source with
    | Ok results ->
        Printf.printf "%d statement(s) executed\n" (List.length results);
        List.iter
          (function
            | Db.Rows r ->
                List.iter
                  (fun v -> print_endline (Mood_model.Value.to_string v))
                  (Mood_executor.Executor.result_values r)
            | _ -> ())
          results
    | Error m ->
        prerr_endline ("error " ^ m);
        exit 1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a MOODSQL script file")
    Term.(const run $ demo_flag $ file)

let dump_cmd =
  let run () =
    let db = Db.create () in
    Mood_workload.Vehicle.define_schema (Db.catalog db);
    print_string (Db.dump_schema db)
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Print the demo schema as a replayable MOODSQL script")
    Term.(const run $ const ())

let analyze_cmd =
  let query =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SELECT" ~doc:"The SELECT statement to analyze.")
  in
  let run demo q =
    let db = Db.create () in
    if demo then begin
      Mood_workload.Vehicle.define_schema (Db.catalog db);
      ignore (Mood_workload.Vehicle.generate ~catalog:(Db.catalog db) ~scale:0.01 ());
      Db.analyze db
    end;
    (* Through [exec], so the EXPLAIN ANALYZE statement form itself is
       exercised, exactly as a REPL or server client would reach it. *)
    match Db.exec db ("EXPLAIN ANALYZE " ^ q) with
    | Ok (Db.Explained text) -> print_string text
    | Ok _ -> prerr_endline "error: unexpected result"; exit 1
    | Error m -> prerr_endline ("error: " ^ m); exit 1
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "EXPLAIN ANALYZE a SELECT against an in-process kernel: the est-vs-actual \
          operator tree with per-node rows, loops, wall time and I/O charges")
    Term.(const run $ demo_flag $ query)

let top_cmd =
  let endpoint =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ENDPOINT"
          ~doc:"A running mood_server: HOST:PORT or unix:PATH.")
  in
  let run spec =
    match
      let client = Client.connect_endpoint spec in
      let info = Client.server_info client in
      let rows = Client.stats client in
      Client.quit client;
      (info, rows)
    with
    | info, rows ->
        (* The node's standing first — the HELLO reply carries it, so a
           failover script learns who is primary without grepping
           counters. *)
        (match info with
        | Some (role, term) ->
            Printf.printf "%-34s %s\n%-34s %d\n" "node.role" role "node.term" term
        | None -> ());
        List.iter (fun (k, v) -> Printf.printf "%-34s %d\n" k v) rows
    | exception e ->
        prerr_endline ("error: " ^ Printexc.to_string e);
        exit 1
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "One-shot dump from a running mood_server or mood_router: the node's \
          role and term (from the HELLO handshake) followed by the STATS \
          counters — this session's counters, then the node's metrics \
          snapshot, which holds the server's statement, abort and \
          group-commit counters with the kernel's")
    Term.(const run $ endpoint)

let promote_cmd =
  let endpoint =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ENDPOINT"
          ~doc:"The replica to promote: HOST:PORT or unix:PATH.")
  in
  let fence_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "fence" ] ~docv:"OLD_ENDPOINT"
          ~doc:
            "After promotion, fence the old primary at $(docv): it adopts the \
             new term, refuses further writes and redirects clients to the \
             promoted node. Best effort — the usual reason to promote is that \
             the old primary is already dead.")
  in
  let run spec fence =
    match
      let client = Client.connect_endpoint spec in
      let reply = Client.promote client in
      Client.quit client;
      reply
    with
    | exception e ->
        prerr_endline ("error: " ^ Printexc.to_string e);
        exit 1
    | Wire.Ok_result m -> (
        print_endline ("ok: " ^ m);
        (* "... at term N" — the term rides on the reply so the fence
           can stamp it without a second round trip. *)
        let new_term =
          match String.rindex_opt m ' ' with
          | Some i ->
              int_of_string_opt (String.sub m (i + 1) (String.length m - i - 1))
          | None -> None
        in
        match (fence, new_term) with
        | None, _ -> ()
        | Some _, None ->
            prerr_endline "warning: could not parse the new term; not fencing"
        | Some old_spec, Some term -> (
            match
              let old_client = Client.connect_endpoint old_spec in
              let reply = Client.fence old_client ~term ~primary:spec in
              Client.quit old_client;
              reply
            with
            | Wire.Ok_result m -> print_endline ("fence ok: " ^ m)
            | reply -> print_endline ("fence: " ^ render_response reply)
            | exception e ->
                Printf.eprintf
                  "warning: old primary unreachable for fencing (%s) — it will \
                   fence itself if it ever answers a pull at the new term\n"
                  (Printexc.to_string e)))
    | reply ->
        prerr_endline ("error: " ^ render_response reply);
        exit 1
  in
  Cmd.v
    (Cmd.info "promote"
       ~doc:
         "Promote a streaming replica to primary: drain the apply queue, drop \
          in-flight loser transactions, bump the replication term and flip the \
          node writable. With --fence, also stamp the old primary with the new \
          term so stray writes there are refused.")
    Term.(const run $ endpoint $ fence_opt)

let sql_cmd =
  let endpoint =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ENDPOINT" ~doc:"A running mood_server: HOST:PORT or unix:PATH.")
  in
  let statement =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"STATEMENT" ~doc:"One MOODSQL statement.")
  in
  let run spec stmt =
    match
      let client = Client.connect_endpoint spec in
      let reply = Client.exec client stmt in
      Client.quit client;
      reply
    with
    | exception e ->
        prerr_endline ("error: " ^ Printexc.to_string e);
        exit 1
    | (Wire.Err _ | Wire.Aborted _ | Wire.Busy _ | Wire.Redirect _) as reply ->
        prerr_endline (render_response reply);
        exit 1
    | reply -> print_endline (render_response reply)
  in
  Cmd.v
    (Cmd.info "sql"
       ~doc:
         "Execute one MOODSQL statement against a running mood_server and \
          print the reply; errors, redirects and aborts exit non-zero.")
    Term.(const run $ endpoint $ statement)

let main =
  Cmd.group
    (Cmd.info "mood" ~version:"1.0.0"
       ~doc:"METU Object-Oriented DBMS (MOOD) — an OCaml reproduction")
    [ repl_cmd; plans_cmd; script_cmd; dump_cmd; analyze_cmd; top_cmd;
      promote_cmd; sql_cmd ]

let () = exit (Cmd.eval main)
