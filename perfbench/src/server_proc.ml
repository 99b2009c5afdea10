(* The server under test runs in a child process forked before the
   benchmark creates any thread. The child builds the database, starts
   [Mood_server.Server] with its default configuration (ephemeral port),
   reports its set-up times on a pipe and then obeys one-word commands:
   BEGIN and END bracket the measured phase for the OCaml runtime
   counters, RSS samples the peak resident memory, STOP shuts the server
   down and reports. *)

module Server = Mood_server.Server

type ready = {
  port : int;
  setup_s : float;       (* fork to server ready *)
  phases : Setup.phases;
  start_s : float;       (* Server.start alone *)
}

type final = {
  vmhwm_kb : int;        (* at the RSS command *)
  minor_words : float;   (* between BEGIN and END *)
  major_collections : int;
  top_heap_words : int;
  audit : string;
}

type t = { pid : int; cmd : out_channel; reply : in_channel; ready : ready }

let vmhwm_kb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> 0
        | Some l ->
            if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
            else go ()
      in
      go ())

let child w d ~cmd ~reply =
  let t0 = Unix.gettimeofday () in
  let db, p = Setup.build w d in
  let t1 = Unix.gettimeofday () in
  let server = Server.start ~config:{ Server.default_config with Server.port = Some 0 } db in
  let t2 = Unix.gettimeofday () in
  Printf.fprintf reply "READY %d %.9f %.9f %.9f %.9f %.9f %.9f %.9f\n%!"
    (Option.get (Server.port server))
    (t2 -. t0) p.Setup.ddl_s p.Setup.load_s p.Setup.index_s p.Setup.analyze_s p.Setup.pax_s
    (t2 -. t1);
  let rec serve b e rss =
    match In_channel.input_line cmd with
    | Some "BEGIN" -> serve (Some (Gc.quick_stat ())) e rss
    | Some "END" -> serve b (Some (Gc.quick_stat ())) rss
    | Some "RSS" -> serve b e (vmhwm_kb ())
    | Some _ | None -> (b, e, rss)
  in
  let b, e, rss = serve None None 0 in
  Server.shutdown server;
  let audit = match Server.audit server with Ok () -> "clean" | Error m -> m in
  let minor, majors =
    match b, e with
    | Some b, Some e -> (e.Gc.minor_words -. b.Gc.minor_words, e.Gc.major_collections - b.Gc.major_collections)
    | _ -> (0., 0)
  in
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  Printf.fprintf reply "DONE %d %.1f %d %d %s\n%!" rss minor majors top
    (String.map (fun c -> if c = '\n' then ' ' else c) audit)

let spawn w d =
  let cmd_r, cmd_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close cmd_w;
      Unix.close rep_r;
      let code =
        try
          child w d ~cmd:(Unix.in_channel_of_descr cmd_r) ~reply:(Unix.out_channel_of_descr rep_w);
          0
        with e ->
          prerr_endline ("server process: " ^ Printexc.to_string e);
          1
      in
      Unix._exit code
  | pid -> (
      Unix.close cmd_r;
      Unix.close rep_w;
      let cmd = Unix.out_channel_of_descr cmd_w and reply = Unix.in_channel_of_descr rep_r in
      match In_channel.input_line reply with
      | Some l ->
          let ready =
            Scanf.sscanf l "READY %d %f %f %f %f %f %f %f"
              (fun port setup_s ddl_s load_s index_s analyze_s pax_s start_s ->
                { port; setup_s; phases = { Setup.ddl_s; load_s; index_s; analyze_s; pax_s }; start_s })
          in
          { pid; cmd; reply; ready }
      | None ->
          ignore (Unix.waitpid [] pid);
          failwith "server process died during set-up")

let send t word =
  output_string t.cmd (word ^ "\n");
  flush t.cmd

let stop t =
  send t "STOP";
  let final =
    match In_channel.input_line t.reply with
    | Some l ->
        Scanf.sscanf l "DONE %d %f %d %d %[^\n]" (fun vmhwm_kb minor_words major_collections top_heap_words audit ->
            { vmhwm_kb; minor_words; major_collections; top_heap_words; audit })
    | None -> { vmhwm_kb = 0; minor_words = 0.; major_collections = 0; top_heap_words = 0; audit = "server process died" }
  in
  close_out_noerr t.cmd;
  close_in_noerr t.reply;
  let _, status = Unix.waitpid [] t.pid in
  (match status with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "server process exited abnormally");
  final
