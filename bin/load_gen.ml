(* The VOODB-style load generator: N concurrent client sessions drive a
   seeded mixed read/write MOODSQL workload at a running mood_server,
   then report throughput and latency percentiles and write
   BENCH_server.json.

     dune exec bin/load_gen.exe -- --port P --sessions 8 --ops 500

   MOOD_LOAD_QUOTA (total statements across all sessions) overrides
   --ops for CI smoke runs. The exit code is non-zero on any protocol
   error or unexpected statement error — the acceptance bar is a
   zero-error run. ABORTED (deadlock victim / lock timeout) and BUSY
   replies are part of the protocol: they are counted, retried and
   reported, not errors. *)

module Wire = Mood_server.Wire
module Client = Mood_server.Client
module Prng = Mood_util.Prng

type session_result = {
  mutable latencies : float list;
      (* end-to-end seconds per logical request: first send of the
         request to its final non-BUSY reply, BUSY backoff included *)
  mutable attempt_latencies : float list;
      (* the successful attempt alone — the server-side view, without
         the client's backoff sleeps *)
  mutable requests : int;          (* non-BUSY responses received *)
  mutable rows_seen : int;
  mutable busy_retries : int;
  mutable txn_aborts : int;        (* ABORTED replies (retried) *)
  mutable redirects : int;         (* NOT_PRIMARY replies (retried at primary) *)
  mutable errors : int;            (* ERR replies / protocol failures *)
  mutable error_samples : string list;
  ep_requests : int array;         (* requests per endpoint index *)
  ep_latencies : float list array; (* per-endpoint latency samples *)
  (* Contention broken out by cause and endpoint: BUSY round-trips
     split by what was waiting (a read or a write/control statement),
     ABORTED replies split by the server's reason string. A snapshot-
     read server should show zero in the read column. *)
  ep_busy_read : int array;
  ep_busy_write : int array;
  ep_deadlock_aborts : int array;
  ep_timeout_aborts : int array;
}

let fresh_result ~n_eps () =
  { latencies = [];
    attempt_latencies = [];
    requests = 0;
    rows_seen = 0;
    busy_retries = 0;
    txn_aborts = 0;
    redirects = 0;
    errors = 0;
    error_samples = [];
    ep_requests = Array.make n_eps 0;
    ep_latencies = Array.make n_eps [];
    ep_busy_read = Array.make n_eps 0;
    ep_busy_write = Array.make n_eps 0;
    ep_deadlock_aborts = Array.make n_eps 0;
    ep_timeout_aborts = Array.make n_eps 0
  }

let read_pool =
  [| "SELECT v.id FROM Vehicle v WHERE v.weight > 3000";
     "SELECT v.id FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 8";
     "SELECT e.size FROM VehicleEngine e WHERE e.cylinders = 4";
     "SELECT e.size FROM VehicleEngine e WHERE e.cylinders = 16";
     "SELECT d.transmission FROM VehicleDriveTrain d WHERE d.engine.cylinders = 12";
     "SELECT c.name FROM Company c WHERE c.location = 'Tokyo'"
  |]

let write_statement ?(insert_only = false) rng =
  match (if insert_only then 0 else Prng.int rng ~bound:3) with
  | 0 ->
      Printf.sprintf "new VehicleEngine <%d, %d>"
        (1000 + Prng.int rng ~bound:2000)
        (2 * (1 + Prng.int rng ~bound:16))
  | 1 ->
      Printf.sprintf "UPDATE VehicleEngine e SET size = e.size + 1 WHERE e.cylinders = %d"
        (2 * (1 + Prng.int rng ~bound:16))
  | _ ->
      Printf.sprintf "UPDATE Vehicle v SET weight = v.weight + 1 WHERE v.id = %d"
        (Prng.int rng ~bound:200)

(* One request with BUSY backoff. The headline latency is end-to-end
   for the logical request — first send to final non-BUSY reply, so a
   BUSY storm shows up in the percentiles instead of hiding in a
   separate counter; the successful attempt alone is kept as a second
   sample set. BUSY round-trips are also counted and attributed to the
   statement kind that was waiting. [epi] attributes the response to
   an endpoint for the per-endpoint breakdown. *)
let send res epi client req =
  let busy_bucket =
    match req with
    | Wire.Query _ -> res.ep_busy_read
    | _ -> res.ep_busy_write
  in
  let t_first = Unix.gettimeofday () in
  let rec go tries =
    let t_attempt = Unix.gettimeofday () in
    match Client.request client req with
    | Wire.Busy _ when tries < 200 ->
        res.busy_retries <- res.busy_retries + 1;
        busy_bucket.(epi) <- busy_bucket.(epi) + 1;
        Thread.delay 0.005;
        go (tries + 1)
    | resp ->
        let now = Unix.gettimeofday () in
        let lat = now -. t_first in
        res.latencies <- lat :: res.latencies;
        res.attempt_latencies <- (now -. t_attempt) :: res.attempt_latencies;
        res.requests <- res.requests + 1;
        res.ep_requests.(epi) <- res.ep_requests.(epi) + 1;
        res.ep_latencies.(epi) <- lat :: res.ep_latencies.(epi);
        (match resp with
        | Wire.Rows rows -> res.rows_seen <- res.rows_seen + List.length rows
        | _ -> ());
        resp
  in
  go 0

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

(* An ABORTED reply, classified by the server's reason string
   ("deadlock" from the victim picker, "lock timeout" from the lock
   budget; anything else lands in the timeout column too — both are
   retried the same way). *)
let note_abort res epi reason =
  res.txn_aborts <- res.txn_aborts + 1;
  let bucket =
    if contains_sub reason "deadlock" then res.ep_deadlock_aborts
    else res.ep_timeout_aborts
  in
  bucket.(epi) <- bucket.(epi) + 1

let record_error res what =
  res.errors <- res.errors + 1;
  if List.length res.error_samples < 5 then
    res.error_samples <- what :: res.error_samples

(* A multi-statement transaction: update then read, fixed extent order
   (most cross-session conflicts resolve as short BUSY waits; the
   occasional deadlock comes back as ABORTED and is retried whole).
   Transactions write, so they always run on the primary (endpoint 0). *)
let run_txn res client ~insert_only rng =
  let body =
    [ Wire.Exec (write_statement ~insert_only rng);
      Wire.Query read_pool.(Prng.int rng ~bound:(Array.length read_pool))
    ]
  in
  let commit = Prng.int rng ~bound:10 < 9 in
  let rec attempt tries =
    match send res 0 client Wire.Begin with
    | Wire.Ok_result _ -> (
        let rec steps = function
          | [] -> `Finish
          | req :: rest -> (
              match send res 0 client req with
              | Wire.Ok_result _ | Wire.Rows _ -> steps rest
              | Wire.Aborted m -> `Aborted m
              | Wire.Err m ->
                  record_error res ("txn statement failed: " ^ m);
                  `Failed
              | _ ->
                  record_error res "unexpected reply in transaction";
                  `Failed)
        in
        match steps body with
        | `Aborted m ->
            note_abort res 0 m;
            if tries < 5 then attempt (tries + 1)
        | `Failed -> ignore (send res 0 client Wire.Abort)
        | `Finish -> (
            match send res 0 client (if commit then Wire.Commit else Wire.Abort) with
            | Wire.Ok_result _ -> ()
            | Wire.Aborted m -> note_abort res 0 m
            | _ -> record_error res "commit/abort failed"))
    | _ -> record_error res "BEGIN failed"
  in
  attempt 0

(* Autocommit statement at this session's assigned endpoint. A write
   landing on a replica comes back as a Redirect — the retryable
   NOT_PRIMARY protocol — and is retried once at the primary. *)
let run_autocommit res ~client ~epi ~get_primary rng ~write_pct ~insert_only =
  let roll = Prng.int rng ~bound:100 in
  if roll < write_pct then begin
    let rec attempt tries c ci =
      match send res ci c (Wire.Exec (write_statement ~insert_only rng)) with
      | Wire.Ok_result _ | Wire.Rows _ -> ()
      | Wire.Aborted m ->
          note_abort res ci m;
          if tries < 5 then attempt (tries + 1) c ci
      | Wire.Redirect _ ->
          res.redirects <- res.redirects + 1;
          if ci = 0 then record_error res "primary redirected a write"
          else (
            match get_primary () with
            | primary -> attempt tries primary 0
            | exception e ->
                record_error res ("redirect retry failed: " ^ Printexc.to_string e))
      | Wire.Err m -> record_error res ("write failed: " ^ m)
      | _ -> record_error res "unexpected write reply"
    in
    attempt 0 client epi
  end
  else begin
    match
      send res epi client
        (Wire.Query read_pool.(Prng.int rng ~bound:(Array.length read_pool)))
    with
    | Wire.Rows _ -> ()
    | Wire.Aborted m -> note_abort res epi m
    | Wire.Err m -> record_error res ("read failed: " ^ m)
    | _ -> record_error res "unexpected read reply"
  end

(* Sessions round-robin over the endpoints. A session assigned to a
   replica keeps one lazily opened second connection to the primary
   for its transactions and redirected writes. *)
let run_session ~connect_ep ~n_eps ~ops ~seed ~write_pct ~txn_pct ~insert_only ~idx res =
  let epi = idx mod n_eps in
  let rng = Prng.create ~seed:(seed + (7919 * idx)) in
  match connect_ep epi with
  | exception e -> record_error res ("connect failed: " ^ Printexc.to_string e)
  | client -> (
      let primary = ref (if epi = 0 then Some client else None) in
      let get_primary () =
        match !primary with
        | Some c -> c
        | None ->
            let c = connect_ep 0 in
            primary := Some c;
            c
      in
      let close_second f =
        match !primary with Some c when c != client -> f c | _ -> ()
      in
      try
        (match Client.ping client with
        | Wire.Pong -> ()
        | _ -> record_error res "ping: no pong");
        for _ = 1 to ops do
          if Prng.int rng ~bound:100 < txn_pct then (
            match get_primary () with
            | c -> run_txn res c ~insert_only rng
            | exception e ->
                record_error res
                  ("connect to primary failed: " ^ Printexc.to_string e))
          else run_autocommit res ~client ~epi ~get_primary rng ~write_pct ~insert_only
        done;
        Client.quit client;
        close_second Client.quit
      with e ->
        record_error res ("session died: " ^ Printexc.to_string e);
        Client.close client;
        close_second Client.close)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let run host port unix_path sessions ops seed write_pct txn_pct read_ratio endpoints
    router insert_only baseline idle_sessions out =
  let write_pct =
    match read_ratio with Some r -> max 0 (100 - r) | None -> write_pct
  in
  let ops =
    match Sys.getenv_opt "MOOD_LOAD_QUOTA" with
    | Some q -> (
        match int_of_string_opt (String.trim q) with
        | Some total when total > 0 -> max 1 (total / max 1 sessions)
        | _ -> ops)
    | None -> ops
  in
  (* Endpoint 0 is the primary: transactions and redirected writes land
     there; reads stay on each session's assigned endpoint. *)
  let eps =
    match endpoints with
    | [] ->
        [| (match unix_path with
           | Some p -> "unix:" ^ p
           | None -> Printf.sprintf "%s:%d" host port)
        |]
    | eps -> Array.of_list eps
  in
  let n_eps = Array.length eps in
  let connect_ep epi = Client.connect_endpoint eps.(epi) in
  let results = Array.init sessions (fun _ -> fresh_result ~n_eps ()) in
  (* Dedicated sessions bracket the run with per-endpoint STATS
     snapshots. On a single endpoint the delta of the server's
     statement counter must equal the requests the sessions observed
     (plus the opening STATS itself) — the cross-layer consistency
     check of the whole accounting chain. With replicas in play the
     strict equation no longer holds (the replication stream is not a
     client), so the snapshots feed the per-endpoint breakdown and the
     repl.* lag report instead. *)
  let stats_clients =
    Array.map (fun spec -> try Some (Client.connect_endpoint spec) with _ -> None) eps
  in
  let stat rows name = Option.value ~default:0 (List.assoc_opt name rows) in
  let snap () =
    Array.map
      (function Some c -> ( try Client.stats c with _ -> []) | None -> [])
      stats_clients
  in
  (* Idle ballast: connections that handshake once and then sit silent
     for the whole run. Against the reactor they must cost nothing —
     the session-scaling experiments measure the active mix's latency
     with hundreds of these parked alongside. *)
  let idle_clients =
    List.filter_map
      (fun i ->
        match connect_ep (i mod n_eps) with
        | c -> Some c
        | exception e ->
            Printf.printf "load_gen: idle connect %d failed: %s\n" i
              (Printexc.to_string e);
            None)
      (List.init idle_sessions (fun i -> i))
  in
  let idle_failed = idle_sessions - List.length idle_clients in
  let s0 = snap () in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init sessions (fun idx ->
        Thread.create
          (fun () ->
            run_session ~connect_ep ~n_eps ~ops ~seed ~write_pct ~txn_pct
              ~insert_only ~idx results.(idx))
          ())
  in
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t0 in
  List.iter
    (fun c -> try Client.quit c with _ -> ( try Client.close c with _ -> ()))
    idle_clients;
  let total f = Array.fold_left (fun acc r -> acc + f r) 0 results in
  let requests = total (fun r -> r.requests) in
  let errors = total (fun r -> r.errors) in
  let busy = total (fun r -> r.busy_retries) in
  let aborts = total (fun r -> r.txn_aborts) in
  let redirects = total (fun r -> r.redirects) in
  let rows = total (fun r -> r.rows_seen) in
  let ep_sum sel =
    Array.init n_eps (fun i ->
        Array.fold_left (fun acc r -> acc + (sel r).(i)) 0 results)
  in
  let ep_requests = ep_sum (fun r -> r.ep_requests) in
  let ep_busy_read = ep_sum (fun r -> r.ep_busy_read) in
  let ep_busy_write = ep_sum (fun r -> r.ep_busy_write) in
  let ep_deadlock = ep_sum (fun r -> r.ep_deadlock_aborts) in
  let ep_timeout = ep_sum (fun r -> r.ep_timeout_aborts) in
  let arr_sum = Array.fold_left ( + ) 0 in
  let busy_read = arr_sum ep_busy_read in
  let busy_write = arr_sum ep_busy_write in
  let deadlocks = arr_sum ep_deadlock in
  let timeouts = arr_sum ep_timeout in
  (* Cluster-wide percentiles: nearest-rank over the MERGED sample
     array, all endpoints pooled. Averaging per-endpoint percentiles
     would be wrong (percentiles do not compose); the merged array is
     the distribution the cluster's clients actually experienced. *)
  let latencies =
    Array.of_list (Array.fold_left (fun acc r -> r.latencies @ acc) [] results)
  in
  Array.sort compare latencies;
  let ms p = Mood_util.Percentile.nearest_rank latencies p *. 1000. in
  let attempt_latencies =
    Array.of_list
      (Array.fold_left (fun acc r -> r.attempt_latencies @ acc) [] results)
  in
  Array.sort compare attempt_latencies;
  let ams p = Mood_util.Percentile.nearest_rank attempt_latencies p *. 1000. in
  let ep_lat =
    Array.init n_eps (fun i ->
        let samples =
          Array.of_list
            (Array.fold_left (fun acc r -> r.ep_latencies.(i) @ acc) [] results)
        in
        Array.sort compare samples;
        samples)
  in
  let ep_ms i p = Mood_util.Percentile.nearest_rank ep_lat.(i) p *. 1000. in
  let throughput = if elapsed > 0. then float_of_int requests /. elapsed else 0. in
  Printf.printf
    "load_gen: %d session(s) x %d op(s): %d request(s) in %.3f s (%.0f req/s), %d row(s)\n"
    sessions ops requests elapsed throughput rows;
  Printf.printf
    "load_gen: cluster-wide latency (merged %d samples): p50 %.3f ms, p95 %.3f ms, \
     p99 %.3f ms, max %.3f ms\n"
    (Array.length latencies) (ms 50.) (ms 95.) (ms 99.) (ms 100.);
  Printf.printf
    "load_gen: per-attempt latency (backoff excluded): p50 %.3f ms, p95 %.3f ms, \
     p99 %.3f ms\n"
    (ams 50.) (ams 95.) (ams 99.);
  if idle_sessions > 0 then
    Printf.printf "load_gen: %d idle session(s) held open (%d failed to connect)\n"
      (List.length idle_clients) idle_failed;
  if n_eps > 1 then
    Array.iteri
      (fun i spec ->
        Printf.printf
          "load_gen: endpoint %d %s latency: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms \
           (%d samples)\n"
          i spec (ep_ms i 50.) (ep_ms i 95.) (ep_ms i 99.)
          (Array.length ep_lat.(i)))
      eps;
  Printf.printf
    "load_gen: %d busy retry(ies), %d transaction abort(s), %d redirect(s), %d error(s)\n"
    busy aborts redirects errors;
  Printf.printf
    "load_gen: contention by cause: busy %d read / %d write, aborts %d \
     deadlock / %d timeout\n"
    busy_read busy_write deadlocks timeouts;
  let s1 = snap () in
  Array.iter (function Some c -> ( try Client.quit c with _ -> ()) | None -> ())
    stats_clients;
  (* Router runs: the endpoint's STATS rows carry the router's own
     shard.* counters and every shard's counters namespaced shardN.* —
     report per-shard throughput from their statement deltas. *)
  let shard_indices rows =
    List.sort_uniq compare
      (List.filter_map
         (fun (k, _) ->
           if String.starts_with ~prefix:"shard" k then
             match String.index_opt k '.' with
             | Some dot -> int_of_string_opt (String.sub k 5 (dot - 5))
             | None -> None
           else None)
         rows)
  in
  let dstat name = stat s1.(0) name - stat s0.(0) name in
  let stats_errors =
    if router then begin
      List.iter
        (fun name -> Printf.printf "load_gen: router %s +%d\n" name (dstat name))
        [ "shard.routed"; "shard.scattered"; "shard.prepares"; "shard.commits_2pc";
          "shard.aborts_2pc"; "shard.indoubt_recovered";
          "shard.wrong_shard_redirects"
        ];
      List.iter
        (fun i ->
          Printf.printf "load_gen: shard %d: statements +%d (%.0f stmt/s)\n" i
            (dstat (Printf.sprintf "shard%d.server.statements" i))
            (if elapsed > 0. then
               float_of_int (dstat (Printf.sprintf "shard%d.server.statements" i))
               /. elapsed
             else 0.))
        (shard_indices s1.(0));
      (match baseline with
      | Some base when base > 0. ->
          Printf.printf "load_gen: scaling vs single-shard baseline: %.0f / %.0f = %.2fx\n"
            throughput base (throughput /. base)
      | _ -> ());
      if s1.(0) = [] && stats_clients.(0) <> None then 1 else 0
    end
    else if n_eps = 1 then begin
      (match s1.(0) with
      | [] ->
          if stats_clients.(0) <> None then
            Printf.printf "load_gen: closing STATS failed\n"
      | rows ->
          List.iter
            (fun (k, v) -> Printf.printf "load_gen: stat %s %d\n" k v)
            (List.filter
               (fun (k, _) ->
                 List.exists
                   (fun prefix -> String.starts_with ~prefix k)
                   [ "server."; "stmt."; "plan_cache."; "buffer."; "locks.deadlocks";
                     "repl."; "mvcc."
                   ])
               rows));
      (* The opening STATS is counted by the time the closing one
         snapshots; the closing one is not yet. *)
      let expected = requests + if s0.(0) = [] then 0 else 1 in
      let delta = stat s1.(0) "server.statements" - stat s0.(0) "server.statements" in
      if s0.(0) <> [] && s1.(0) <> [] && delta <> expected then begin
        Printf.printf
          "load_gen: STATS inconsistent: server saw %d statement(s), clients got \
           %d response(s)\n"
          delta expected;
        1
      end
      else if s1.(0) = [] && stats_clients.(0) <> None then 1
      else 0
    end
    else begin
      Array.iteri
        (fun i spec ->
          Printf.printf
            "load_gen: endpoint %d %s: %d request(s), statements +%d, \
             busy %d read / %d write, aborts %d deadlock / %d timeout, \
             repl.applied_lsn %d (+%d), repl.lag_records %d\n"
            i spec ep_requests.(i)
            (stat s1.(i) "server.statements" - stat s0.(i) "server.statements")
            ep_busy_read.(i) ep_busy_write.(i) ep_deadlock.(i) ep_timeout.(i)
            (stat s1.(i) "repl.applied_lsn")
            (stat s1.(i) "repl.applied_lsn" - stat s0.(i) "repl.applied_lsn")
            (stat s1.(i) "repl.lag_records"))
        eps;
      0
    end
  in
  let errors = errors + stats_errors + idle_failed in
  Array.iteri
    (fun i r ->
      List.iter (fun m -> Printf.printf "load_gen: session %d error: %s\n" i m)
        r.error_samples)
    results;
  let endpoint_json =
    String.concat ",\n    "
      (List.mapi
         (fun i spec ->
           Printf.sprintf
             {|{ "endpoint": "%s", "requests": %d, "throughput_req_s": %.1f, "latency_ms": { "p50": %.3f, "p95": %.3f, "p99": %.3f }, "statements_delta": %d, "busy_retries_read": %d, "busy_retries_write": %d, "deadlock_aborts": %d, "timeout_aborts": %d, "repl_applied_lsn": %d, "repl_applied_lsn_delta": %d, "repl_lag_records": %d }|}
             (json_escape spec) ep_requests.(i)
             (if elapsed > 0. then float_of_int ep_requests.(i) /. elapsed else 0.)
             (ep_ms i 50.) (ep_ms i 95.) (ep_ms i 99.)
             (stat s1.(i) "server.statements" - stat s0.(i) "server.statements")
             ep_busy_read.(i) ep_busy_write.(i) ep_deadlock.(i) ep_timeout.(i)
             (stat s1.(i) "repl.applied_lsn")
             (stat s1.(i) "repl.applied_lsn" - stat s0.(i) "repl.applied_lsn")
             (stat s1.(i) "repl.lag_records"))
         (Array.to_list eps))
  in
  (* Per-shard throughput and 2PC counters, present only on --router
     runs; "scaling_x" compares against --baseline-req-s when given. *)
  let router_json =
    if not router then ""
    else
      let shards_json =
        String.concat ", "
          (List.map
             (fun i ->
               let d = dstat (Printf.sprintf "shard%d.server.statements" i) in
               Printf.sprintf
                 {|{ "shard": %d, "statements_delta": %d, "throughput_stmt_s": %.1f }|}
                 i d
                 (if elapsed > 0. then float_of_int d /. elapsed else 0.))
             (shard_indices s1.(0)))
      in
      Printf.sprintf
        {|  "router": {
    "routed": %d,
    "scattered": %d,
    "prepares": %d,
    "commits_2pc": %d,
    "aborts_2pc": %d,
    "indoubt_recovered": %d,
    "wrong_shard_redirects": %d,
    "shards": [%s]%s
  },
|}
        (dstat "shard.routed") (dstat "shard.scattered") (dstat "shard.prepares")
        (dstat "shard.commits_2pc") (dstat "shard.aborts_2pc")
        (dstat "shard.indoubt_recovered") (dstat "shard.wrong_shard_redirects")
        shards_json
        (match baseline with
        | Some base when base > 0. ->
            Printf.sprintf
              ",\n    \"baseline_req_s\": %.1f,\n    \"scaling_x\": %.2f" base
              (throughput /. base)
        | _ -> "")
  in
  let oc = open_out out in
  Printf.fprintf oc
    {|{
  "bench": "mood_server_load",
  "sessions": %d,
  "idle_sessions": %d,
  "ops_per_session": %d,
  "seed": %d,
  "write_pct": %d,
  "txn_pct": %d,
  "requests": %d,
  "rows": %d,
  "elapsed_s": %.6f,
  "throughput_req_s": %.1f,
  "latency_ms": { "p50": %.3f, "p95": %.3f, "p99": %.3f, "max": %.3f },
  "latency_attempt_ms": { "p50": %.3f, "p95": %.3f, "p99": %.3f },
  "cluster_wide": { "samples": %d, "merged_nearest_rank": true, "latency_ms": { "p50": %.3f, "p95": %.3f, "p99": %.3f } },
%s  "busy_retries": %d,
  "busy_retries_read": %d,
  "busy_retries_write": %d,
  "txn_aborts": %d,
  "deadlock_aborts": %d,
  "timeout_aborts": %d,
  "redirects": %d,
  "errors": %d,
  "error_samples": [%s],
  "endpoints": [
    %s
  ]
}
|}
    sessions idle_sessions ops seed write_pct txn_pct requests rows elapsed
    throughput (ms 50.) (ms 95.) (ms 99.) (ms 100.)
    (ams 50.) (ams 95.) (ams 99.)
    (Array.length latencies) (ms 50.) (ms 95.) (ms 99.)
    router_json busy busy_read busy_write aborts deadlocks
    timeouts redirects errors
    (String.concat ", "
       (List.concat_map
          (fun r -> List.map (fun m -> "\"" ^ json_escape m ^ "\"") r.error_samples)
          (Array.to_list results)))
    endpoint_json;
  close_out oc;
  Printf.printf "load_gen: wrote %s\n%!" out;
  if errors > 0 then 1 else 0

open Cmdliner

let host =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"Server address.")

let port =
  Arg.(value & opt int 7450 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Server TCP port.")

let unix_path =
  Arg.(
    value
    & opt (some string) None
    & info [ "unix" ] ~docv:"PATH" ~doc:"Connect to a unix-domain socket instead of TCP.")

let sessions =
  Arg.(value & opt int 8 & info [ "sessions" ] ~docv:"N" ~doc:"Concurrent client sessions.")

let ops =
  Arg.(
    value
    & opt int 200
    & info [ "ops" ] ~docv:"N"
        ~doc:
          "Operations per session (an operation is one autocommit statement or one \
           whole transaction). MOOD_LOAD_QUOTA, if set, is a total-statement budget \
           that overrides this.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")

let write_pct =
  Arg.(
    value
    & opt int 25
    & info [ "write-pct" ] ~docv:"PCT" ~doc:"Percentage of autocommit ops that write.")

let txn_pct =
  Arg.(
    value
    & opt int 15
    & info [ "txn-pct" ] ~docv:"PCT"
        ~doc:"Percentage of ops run as multi-statement transactions.")

let read_ratio =
  Arg.(
    value
    & opt (some int) None
    & info [ "read-ratio" ] ~docv:"PCT"
        ~doc:
          "Percentage of autocommit ops that read (overrides --write-pct with \
           100 - $(docv)). Convenient for read-scaling runs against replicas.")

let endpoints =
  Arg.(
    value
    & opt_all string []
    & info [ "endpoint" ] ~docv:"ENDPOINT"
        ~doc:
          "Repeatable. Target endpoints (HOST:PORT or unix:PATH); sessions \
           round-robin over them. The $(b,first) endpoint is the primary: \
           transactions and redirected writes go there, reads stay on the \
           session's assigned endpoint. Without this flag, --host/--port/--unix \
           name the single endpoint.")

let router =
  Arg.(
    value
    & flag
    & info [ "router" ]
        ~doc:
          "The endpoint is a mood_router: skip the single-server STATS \
           consistency check (the router is not a kernel) and report \
           per-shard throughput and 2PC counters from its scattered STATS \
           rows into the JSON.")

let insert_only =
  Arg.(
    value
    & flag
    & info [ "insert-only" ]
        ~doc:
          "Restrict the write arm to object creations. Through the router an \
           insert routes to one shard while an UPDATE scatters as a \
           cross-shard transaction — this flag isolates the partitionable \
           write path for scaling measurements.")

let baseline =
  Arg.(
    value
    & opt (some float) None
    & info [ "baseline-req-s" ] ~docv:"REQ_S"
        ~doc:
          "Single-shard baseline throughput to compare against; with \
           --router the JSON gains \"scaling_x\" = this run / baseline.")

let idle_sessions =
  Arg.(
    value
    & opt int 0
    & info [ "idle-sessions" ] ~docv:"N"
        ~doc:
          "Open $(docv) extra connections that handshake and then stay \
           silent for the whole run — ballast for session-scaling \
           experiments against the reactor (idle connections must cost \
           nothing). Failures to connect count as errors.")

let out =
  Arg.(
    value
    & opt string "BENCH_server.json"
    & info [ "out" ] ~docv:"FILE" ~doc:"JSON report path.")

let cmd =
  Cmd.v
    (Cmd.info "load_gen" ~version:"1.0.0"
       ~doc:"Concurrent load generator for mood_server (VOODB-style multi-user bench)")
    Term.(
      const run $ host $ port $ unix_path $ sessions $ ops $ seed $ write_pct $ txn_pct
      $ read_ratio $ endpoints $ router $ insert_only $ baseline $ idle_sessions
      $ out)

let () = exit (Cmd.eval' cmd)
