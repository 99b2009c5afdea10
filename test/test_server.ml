(* Tests for the network front end: the wire codec and its defensive
   framing, the session registry, and full-stack server integration —
   transactions over the wire, disconnect-triggered aborts releasing
   locks to waiting sessions, deterministic deadlock victim selection,
   lock timeouts, malformed-frame teardown, and the post-shutdown leak
   audit. *)

module Db = Mood.Db
module Wire = Mood_server.Wire
module Session = Mood_server.Session
module Server = Mood_server.Server
module Client = Mood_server.Client

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Wire codec                                                          *)

let strip_prefix frame =
  let n = Bytes.length frame in
  if n < 4 then Alcotest.fail "frame shorter than its length prefix";
  Bytes.sub frame 4 (n - 4)

let request_label = function
  | Wire.Query s -> "Query " ^ s
  | Wire.Exec s -> "Exec " ^ s
  | Wire.Begin -> "Begin"
  | Wire.Commit -> "Commit"
  | Wire.Abort -> "Abort"
  | Wire.Stats -> "Stats"
  | Wire.Ping -> "Ping"
  | Wire.Quit -> "Quit"
  | Wire.Hello v -> Printf.sprintf "Hello %d" v
  | Wire.Repl_snapshot -> "Repl_snapshot"
  | Wire.Repl_pull { term; after } -> Printf.sprintf "Repl_pull %d %d" term after
  | Wire.Promote -> "Promote"
  | Wire.Fence { term; primary } -> Printf.sprintf "Fence %d %s" term primary
  | Wire.Prepare gid -> Printf.sprintf "Prepare %d" gid
  | Wire.Decide { d_gid; d_commit } -> Printf.sprintf "Decide %d %b" d_gid d_commit
  | Wire.Shard_map { sm_version; sm_self; sm_shards } ->
      Printf.sprintf "Shard_map v%d self=%d [%s]" sm_version sm_self
        (String.concat ";" sm_shards)

let response_label = function
  | Wire.Ok_result s -> "Ok " ^ s
  | Wire.Rows rs -> "Rows [" ^ String.concat ";" rs ^ "]"
  | Wire.Err s -> "Err " ^ s
  | Wire.Aborted s -> "Aborted " ^ s
  | Wire.Busy s -> "Busy " ^ s
  | Wire.Pong -> "Pong"
  | Wire.Bye -> "Bye"
  | Wire.Redirect addr -> "Redirect " ^ addr
  | Wire.Blob b -> Printf.sprintf "Blob(%d bytes)" (String.length b)
  | Wire.Wrong_shard { ws_shard; ws_addr } ->
      Printf.sprintf "Wrong_shard %d %s" ws_shard ws_addr

let test_request_roundtrip () =
  List.iter
    (fun req ->
      let back = Wire.decode_request (strip_prefix (Wire.encode_request req)) in
      Alcotest.(check string) "request" (request_label req) (request_label back))
    [ Wire.Query "SELECT v FROM Vehicle v";
      Wire.Exec "UPDATE Vehicle v SET weight = 1 WHERE v.id = 1";
      Wire.Exec "";
      Wire.Begin; Wire.Commit; Wire.Abort; Wire.Ping; Wire.Stats; Wire.Quit;
      Wire.Hello Wire.protocol_version;
      Wire.Prepare 7;
      Wire.Decide { d_gid = 9; d_commit = true };
      Wire.Decide { d_gid = 10; d_commit = false };
      Wire.Shard_map { sm_version = 3; sm_self = 1;
                       sm_shards = [ "127.0.0.1:7451"; "127.0.0.1:7452" ] };
      Wire.Shard_map { sm_version = 0; sm_self = 0; sm_shards = [ "" ] }
    ]

let test_stats_opcode_strict () =
  (* STATS carries no payload; a non-empty body is a framing bug *)
  match Wire.decode_request (Bytes.of_string "Sjunk") with
  | exception Wire.Protocol_error _ -> ()
  | _ -> Alcotest.fail "decoded STATS with a payload"

(* The 2PC opcodes carry fixed-width payloads; anything torn, padded
   or mislabeled must be refused like a STATS payload is. *)
let be32 n =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.to_string b

let refuse label payload =
  match Wire.decode_request (Bytes.of_string payload) with
  | exception Wire.Protocol_error _ -> ()
  | req -> Alcotest.failf "%s: decoded %s" label (request_label req)

let test_prepare_opcode_strict () =
  refuse "empty gid" "R";
  refuse "truncated gid" "R\x00\x00\x00";
  refuse "trailing bytes" ("R" ^ be32 7 ^ "x");
  match Wire.decode_request (Bytes.of_string ("R" ^ be32 7)) with
  | Wire.Prepare 7 -> ()
  | req -> Alcotest.failf "exact PREPARE: %s" (request_label req)

let test_decide_opcode_strict () =
  refuse "missing verdict" ("D" ^ be32 9);
  refuse "bad verdict byte" ("D" ^ be32 9 ^ "Z");
  refuse "trailing bytes" ("D" ^ be32 9 ^ "Cx");
  refuse "truncated gid" "D\x00\x00C";
  match Wire.decode_request (Bytes.of_string ("D" ^ be32 9 ^ "A")) with
  | Wire.Decide { d_gid = 9; d_commit = false } -> ()
  | req -> Alcotest.failf "exact DECIDE: %s" (request_label req)

let test_shard_map_opcode_strict () =
  let addr s = be32 (String.length s) ^ s in
  refuse "truncated header" ("T" ^ be32 1 ^ be32 0);
  refuse "absurd shard count" ("T" ^ be32 1 ^ be32 0 ^ be32 100_000);
  refuse "missing address" ("T" ^ be32 1 ^ be32 0 ^ be32 2 ^ addr "a:1");
  refuse "torn address" ("T" ^ be32 1 ^ be32 0 ^ be32 1 ^ be32 10 ^ "a:1");
  refuse "trailing bytes" ("T" ^ be32 1 ^ be32 0 ^ be32 1 ^ addr "a:1" ^ "!");
  refuse "self out of range" ("T" ^ be32 1 ^ be32 3 ^ be32 2 ^ addr "a:1" ^ addr "b:2");
  match
    Wire.decode_request
      (Bytes.of_string ("T" ^ be32 4 ^ be32 1 ^ be32 2 ^ addr "a:1" ^ addr "b:2"))
  with
  | Wire.Shard_map { sm_version = 4; sm_self = 1; sm_shards = [ "a:1"; "b:2" ] } -> ()
  | req -> Alcotest.failf "exact SHARD_MAP: %s" (request_label req)

let test_wrong_shard_response_strict () =
  (match Wire.decode_response (Bytes.of_string "W\x00\x00") with
  | exception Wire.Protocol_error _ -> ()
  | r -> Alcotest.failf "torn WRONG_SHARD: %s" (response_label r));
  match Wire.decode_response (Bytes.of_string ("W" ^ be32 2 ^ "c:3")) with
  | Wire.Wrong_shard { ws_shard = 2; ws_addr = "c:3" } -> ()
  | r -> Alcotest.failf "exact WRONG_SHARD: %s" (response_label r)

let test_response_roundtrip () =
  List.iter
    (fun resp ->
      let back = Wire.decode_response (strip_prefix (Wire.encode_response resp)) in
      Alcotest.(check string) "response" (response_label resp) (response_label back))
    [ Wire.Ok_result "updated 3";
      Wire.Rows [];
      Wire.Rows [ "1"; "two"; "3.5" ];
      Wire.Rows [ "row with\nnewline" ];
      Wire.Err "parse error";
      Wire.Aborted "deadlock";
      Wire.Busy "queue full";
      Wire.Pong; Wire.Bye;
      Wire.Redirect "10.0.0.1:7450";
      Wire.Wrong_shard { ws_shard = 2; ws_addr = "127.0.0.1:7453" };
      Wire.Wrong_shard { ws_shard = 0; ws_addr = "" }
    ]

let test_unknown_opcode () =
  (match Wire.decode_request (Bytes.of_string "Zpayload") with
  | exception Wire.Protocol_error _ -> ()
  | _ -> Alcotest.fail "decoded a request with an unknown opcode");
  match Wire.decode_response (Bytes.of_string "?") with
  | exception Wire.Protocol_error _ -> ()
  | _ -> Alcotest.fail "decoded a response with an unknown opcode"

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect ~finally:(fun () -> close a; close b) (fun () -> f a b)

let write_raw fd s =
  let b = Bytes.of_string s in
  let n = Unix.write fd b 0 (Bytes.length b) in
  Alcotest.(check int) "raw write" (Bytes.length b) n

(* A frame claiming a payload far over the limit must be refused from
   the length prefix alone, before any payload is read. *)
let test_oversized_frame () =
  with_socketpair (fun a b ->
      write_raw a "\xff\xff\xff\xff";
      match Wire.read_frame b with
      | exception Wire.Protocol_error m ->
          Alcotest.(check bool) "names the frame size" true (contains m "frame")
      | _ -> Alcotest.fail "accepted an oversized frame")

let test_torn_length_prefix () =
  with_socketpair (fun a b ->
      write_raw a "\x00\x00";
      Unix.close a;
      match Wire.read_frame b with
      | exception Wire.Protocol_error _ -> ()
      | _ -> Alcotest.fail "accepted a torn length prefix")

let test_torn_payload () =
  with_socketpair (fun a b ->
      (* Prefix promises 10 bytes; deliver 3, then hang up. *)
      write_raw a "\x00\x00\x00\x0aQse";
      Unix.close a;
      match Wire.read_frame b with
      | exception Wire.Protocol_error _ -> ()
      | _ -> Alcotest.fail "accepted a torn payload")

let test_clean_eof () =
  with_socketpair (fun a b ->
      Unix.close a;
      match Wire.read_frame b with
      | None -> ()
      | Some _ -> Alcotest.fail "conjured a frame out of EOF")

(* Frames arrive however TCP segments them; byte-at-a-time delivery
   must reassemble into the same request. *)
let test_partial_delivery () =
  with_socketpair (fun a b ->
      let frame = Wire.encode_request (Wire.Exec "NEW Probe <1, 2>") in
      let feeder =
        Thread.create
          (fun () ->
            Bytes.iter
              (fun c ->
                ignore (Unix.write a (Bytes.make 1 c) 0 1);
                Thread.yield ())
              frame;
            Unix.close a)
          ()
      in
      (match Wire.read_request b with
      | Some (Wire.Exec sql) ->
          Alcotest.(check string) "reassembled" "NEW Probe <1, 2>" sql
      | _ -> Alcotest.fail "partial delivery lost the request");
      Thread.join feeder)

(* ------------------------------------------------------------------ *)
(* Session registry                                                    *)

let test_registry_lifecycle () =
  let reg = Session.create_registry () in
  with_socketpair (fun a _b ->
      let s = Session.register reg ~fd:a ~peer:"test" in
      Alcotest.(check int) "registered" 1 (Session.count reg);
      Session.remove_and_close reg s;
      Session.remove_and_close reg s; (* idempotent *)
      Session.shutdown_read reg s;    (* no-op on the dead *)
      Alcotest.(check int) "drained" 0 (Session.count reg);
      Alcotest.(check int) "opened total" 1 (Session.total_opened reg))

(* The reactor's nonblocking primitives: read_nb/write_nb must report
   emptiness and backpressure as values (`Would_block), EOF distinctly,
   and never raise for the reactor to translate. *)
let test_nonblocking_wire () =
  with_socketpair (fun a b ->
      Unix.set_nonblock a;
      let buf = Bytes.create 64 in
      (match Wire.read_nb a buf 0 64 with
      | `Would_block -> ()
      | _ -> Alcotest.fail "empty socket should not have data");
      let n = Unix.write_substring b "hi" 0 2 in
      Alcotest.(check int) "peer wrote" 2 n;
      (match Wire.read_nb a buf 0 64 with
      | `Data 2 -> Alcotest.(check string) "payload" "hi" (Bytes.sub_string buf 0 2)
      | _ -> Alcotest.fail "expected 2 bytes");
      (* Backpressure: keep writing until the kernel buffer refuses. *)
      let big = Bytes.make 65536 'x' in
      let rec fill guard =
        if guard = 0 then Alcotest.fail "socket buffer never filled"
        else
          match Wire.write_nb a big 0 (Bytes.length big) with
          | `Wrote _ -> fill (guard - 1)
          | `Would_block -> ()
          | `Closed -> Alcotest.fail "peer is alive"
      in
      fill 10_000;
      Unix.close b;
      (* Drain what the peer buffered, then see the EOF. *)
      let rec drain guard =
        if guard = 0 then Alcotest.fail "EOF never arrived"
        else
          match Wire.read_nb a buf 0 64 with
          | `Data _ -> drain (guard - 1)
          | `Eof | `Closed -> ()
          | `Would_block -> Alcotest.fail "dead peer reported as live"
      in
      drain 10_000)

(* ------------------------------------------------------------------ *)
(* Server integration                                                  *)

let base_config = { Server.default_config with Server.lock_timeout = 5.0 }

(* Starts a server over a fresh kernel, runs [f], then performs the
   graceful shutdown and insists the leak audit passes — every test
   here doubles as a shutdown/teardown regression. *)
let with_server ?(config = base_config) ?(setup = fun _ -> ()) f =
  let db = Db.create () in
  setup db;
  let server = Server.start ~config db in
  let port =
    match Server.port server with
    | Some p -> p
    | None -> Alcotest.fail "server has no TCP port"
  in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      match Server.audit server with
      | Ok () -> ()
      | Error m -> Alcotest.failf "leak audit failed: %s" m)
    (fun () -> f server port)

(* A server counter as it stands in the served database's registry. *)
let server_stat server name =
  match List.assoc_opt name (Db.metrics_snapshot (Server.db server)) with
  | Some v -> v
  | None -> Alcotest.failf "metrics snapshot is missing %s" name

let seed_accounts db =
  match
    Db.exec_script db
      "CREATE CLASS Acct TUPLE (n Integer); CREATE CLASS Audit TUPLE (n Integer); \
       NEW Acct <100>; NEW Audit <0>"
  with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "seed failed: %s" m

let expect_ok label = function
  | Wire.Ok_result _ -> ()
  | r -> Alcotest.failf "%s: expected OK, got %s" label (response_label r)

let expect_rows label = function
  | Wire.Rows rows -> rows
  | r -> Alcotest.failf "%s: expected rows, got %s" label (response_label r)

(* Row cells render as "<a.n: 60>"; dig the integer out. *)
let cell_int s =
  let digits = ref "" in
  String.iter (fun c -> if (c >= '0' && c <= '9') || c = '-' then digits := !digits ^ String.make 1 c) s;
  match int_of_string_opt !digits with
  | Some n -> n
  | None -> Alcotest.failf "no integer in row %S" s

let test_basic_session () =
  with_server (fun _server port ->
      let c = Client.connect ~port () in
      (match Client.ping c with
      | Wire.Pong -> ()
      | r -> Alcotest.failf "ping: %s" (response_label r));
      expect_ok "create" (Client.exec c "CREATE CLASS Pt TUPLE (x Integer, y Integer)");
      expect_ok "new" (Client.exec c "NEW Pt <3, 4>");
      (match Client.query c "SELECT p.x FROM Pt p" with
      | Wire.Rows [ row ] -> Alcotest.(check int) "select" 3 (cell_int row)
      | r -> Alcotest.failf "select: %s" (response_label r));
      (* The Q opcode promises rows; a DML statement under it must be
         refused and (being autocommit) leave nothing behind. *)
      (match Client.query c "NEW Pt <5, 6>" with
      | Wire.Err m -> Alcotest.(check bool) "names SELECT" true (contains m "SELECT")
      | r -> Alcotest.failf "query-of-dml: %s" (response_label r));
      let rows = expect_rows "recount" (Client.query c "SELECT p.x FROM Pt p") in
      Alcotest.(check int) "rolled back the refused NEW" 1 (List.length rows);
      (match Client.exec c "SELEC nonsense" with
      | Wire.Err _ -> ()
      | r -> Alcotest.failf "parse error: %s" (response_label r));
      Client.quit c)

let test_commit_and_abort () =
  with_server ~setup:seed_accounts (fun _server port ->
      let c = Client.connect ~port () in
      let balance () =
        match expect_rows "balance" (Client.query c "SELECT a.n FROM Acct a") with
        | [ n ] -> cell_int n
        | rows -> Alcotest.failf "expected one account, got %d" (List.length rows)
      in
      (match Client.commit c with
      | Wire.Err _ -> ()
      | r -> Alcotest.failf "commit outside txn: %s" (response_label r));
      expect_ok "begin" (Client.begin_txn c);
      (match Client.begin_txn c with
      | Wire.Err _ -> ()
      | r -> Alcotest.failf "nested begin: %s" (response_label r));
      expect_ok "debit" (Client.exec c "UPDATE Acct a SET n = a.n - 40");
      expect_ok "commit" (Client.commit c);
      Alcotest.(check int) "committed" 60 (balance ());
      expect_ok "begin2" (Client.begin_txn c);
      expect_ok "debit2" (Client.exec c "UPDATE Acct a SET n = a.n - 40");
      (* A statement error inside the transaction must not kill it. *)
      (match Client.exec c "UPDATE Missing m SET n = 0" with
      | Wire.Err _ -> ()
      | r -> Alcotest.failf "bad stmt in txn: %s" (response_label r));
      expect_ok "abort" (Client.abort c);
      Alcotest.(check int) "rolled back" 60 (balance ());
      Client.quit c)

(* The freed-locks regression from the issue: a client dies mid
   transaction while a second session wants its exclusive lock. The
   teardown must abort the orphan through the WAL compensation path
   and release its locks so the waiter proceeds — without the fix the
   waiter would stall until the lock timeout. *)
let test_disconnect_releases_locks () =
  with_server ~setup:seed_accounts (fun server port ->
      let c1 = Client.connect ~port () in
      let c2 = Client.connect ~port () in
      expect_ok "c1 begin" (Client.begin_txn c1);
      expect_ok "c1 lock" (Client.exec c1 "UPDATE Acct a SET n = 0");
      let c2_reply = ref Wire.Bye in
      let waiter =
        Thread.create
          (fun () -> c2_reply := Client.exec c2 "UPDATE Acct a SET n = a.n + 1")
          ()
      in
      Thread.delay 0.05; (* let c2's statement park on c1's lock *)
      Client.close c1;   (* abrupt: no QUIT, no ABORT *)
      Thread.join waiter;
      expect_ok "waiter proceeds once the orphan aborts" !c2_reply;
      (* c1's uncommitted write must be gone: 100 survives, +1 applied. *)
      (match expect_rows "post" (Client.query c2 "SELECT a.n FROM Acct a") with
      | [ row ] -> Alcotest.(check int) "orphan write rolled back" 101 (cell_int row)
      | rows -> Alcotest.failf "bad row count: [%s]" (String.concat ";" rows));
      Alcotest.(check bool) "disconnect abort counted" true
        (server_stat server "server.disconnect_aborts" >= 1);
      Client.quit c2)

(* Deterministic two-session deadlock: opposite lock orders on two
   extents. The reactor serializes execution, so exactly one session is
   picked as the victim (retryable ABORTED) and the other commits. *)
let test_deadlock_victim () =
  with_server ~setup:seed_accounts (fun server port ->
      let c1 = Client.connect ~port () in
      let c2 = Client.connect ~port () in
      expect_ok "c1 begin" (Client.begin_txn c1);
      expect_ok "c2 begin" (Client.begin_txn c2);
      expect_ok "c1 holds Acct" (Client.exec c1 "UPDATE Acct a SET n = a.n + 1");
      expect_ok "c2 holds Audit" (Client.exec c2 "UPDATE Audit a SET n = a.n + 1");
      let r1 = ref Wire.Bye and r2 = ref Wire.Bye in
      let t1 =
        Thread.create (fun () -> r1 := Client.exec c1 "UPDATE Audit a SET n = 9") ()
      in
      Thread.delay 0.05; (* c1's wait-for edge is in place first *)
      let t2 =
        Thread.create (fun () -> r2 := Client.exec c2 "UPDATE Acct a SET n = 9") ()
      in
      Thread.join t1;
      Thread.join t2;
      let aborted r = match r with Wire.Aborted m -> contains m "deadlock" | _ -> false
      and ok r = match r with Wire.Ok_result _ -> true | _ -> false in
      Alcotest.(check bool) "exactly one deadlock victim" true
        ((aborted !r1 && ok !r2) || (aborted !r2 && ok !r1));
      let victim, survivor = if aborted !r1 then (c1, c2) else (c2, c1) in
      expect_ok "survivor commits" (Client.commit survivor);
      (* The victim's transaction is already rolled back: a fresh retry
         must succeed from BEGIN. *)
      (match Client.commit victim with
      | Wire.Err _ -> ()
      | r -> Alcotest.failf "victim still in txn: %s" (response_label r));
      expect_ok "victim retries" (Client.begin_txn victim);
      expect_ok "victim reruns" (Client.exec victim "UPDATE Acct a SET n = 42");
      expect_ok "victim commits" (Client.commit victim);
      Alcotest.(check int) "one deadlock abort" 1
        (server_stat server "server.deadlock_aborts");
      Client.quit c1;
      Client.quit c2)

(* Framing violations: the offending session is torn down (best-effort
   error reply, then disconnect) and the server keeps serving everyone
   else. *)
let test_malformed_frames () =
  with_server ~setup:seed_accounts (fun server port ->
      let attack payload =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        ignore (Unix.write fd (Bytes.of_string payload) 0 (String.length payload));
        (* Half-close: a truncated frame only becomes *torn* once the
           server sees EOF mid-frame. Then the server may reply with a
           protocol error before closing; all we require is EOF on our
           side, not a crash or a hang. *)
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        let buf = Bytes.create 4096 in
        let rec drain () = if Unix.read fd buf 0 4096 > 0 then drain () in
        (try drain () with Unix.Unix_error _ -> ());
        Unix.close fd
      in
      attack "\xff\xff\xff\xff";            (* oversized length prefix *)
      attack "\x00\x00\x00\x05Zoops";       (* unknown opcode *)
      attack "\x00\x00\x00\x0aQ";           (* torn payload, then EOF *)
      attack "\x00\x00";                    (* torn length prefix *)
      Alcotest.(check bool) "violations counted" true
        (server_stat server "server.protocol_errors" >= 3);
      (* The server is still healthy for well-behaved clients. *)
      let c = Client.connect ~port () in
      (match expect_rows "still serving" (Client.query c "SELECT a.n FROM Acct a") with
      | [ row ] -> Alcotest.(check int) "still serving" 100 (cell_int row)
      | rows -> Alcotest.failf "bad rows: [%s]" (String.concat ";" rows));
      Client.quit c;
      (* Attackers' sessions must all be gone (no leaked handlers). *)
      let deadline = Unix.gettimeofday () +. 2.0 in
      let rec settle () =
        let active = server_stat server "server.sessions_active" in
        if active > 0 then
          if Unix.gettimeofday () > deadline then
            Alcotest.failf "%d session(s) leaked" active
          else begin Thread.delay 0.01; settle () end
      in
      settle ())

(* Shutdown with a transaction still open on a connected client: the
   half-close path must wake the reader, abort the orphan and pass the
   audit (which [with_server] enforces). *)
let test_shutdown_aborts_open_txn () =
  with_server ~setup:seed_accounts (fun server port ->
      let c = Client.connect ~port () in
      expect_ok "begin" (Client.begin_txn c);
      expect_ok "write" (Client.exec c "UPDATE Acct a SET n = 0");
      Server.shutdown server;
      Alcotest.(check bool) "orphan aborted" true
        (server_stat server "server.disconnect_aborts" >= 1);
      Alcotest.(check int) "sessions drained" 0 (server_stat server "server.sessions_active");
      (* The kernel survives with the write rolled back. *)
      let r = Db.query (Server.db server) "SELECT a.n FROM Acct a" in
      let vs = Mood_executor.Executor.result_values r in
      Alcotest.(check int) "one row" 1 (List.length vs);
      Alcotest.(check int) "rolled back" 100
        (cell_int (Mood_model.Value.to_string (List.hd vs))))

let acct_balance server =
  let r = Db.query (Server.db server) "SELECT a.n FROM Acct a" in
  match Mood_executor.Executor.result_values r with
  | [ v ] -> cell_int (Mood_model.Value.to_string v)
  | vs -> Alcotest.failf "expected one account, got %d" (List.length vs)

(* A statement parked on a lock that an open transaction holds gives up
   at its deadline with a retryable ABORTED; while it waits, other
   sessions are still answered, and the blocker keeps its transaction. *)
let test_lock_timeout () =
  let config = { base_config with Server.lock_timeout = 0.3 } in
  with_server ~config ~setup:seed_accounts (fun server port ->
      let c1 = Client.connect ~port () in
      let c2 = Client.connect ~port () in
      let c3 = Client.connect ~port () in
      expect_ok "c1 begin" (Client.begin_txn c1);
      expect_ok "c1 holds Acct" (Client.exec c1 "UPDATE Acct a SET n = a.n + 1");
      let sent = Unix.gettimeofday () in
      let c2_reply = ref None and waited = ref 0. in
      let waiter =
        Thread.create
          (fun () ->
            let r = Client.exec c2 "UPDATE Acct a SET n = 0" in
            waited := Unix.gettimeofday () -. sent;
            c2_reply := Some r)
          ()
      in
      Thread.delay 0.05; (* let c2's statement park on c1's lock *)
      (match expect_rows "c3 reads" (Client.query c3 "SELECT a.n FROM Audit a") with
      | [ row ] -> Alcotest.(check int) "audit row" 0 (cell_int row)
      | rows -> Alcotest.failf "bad rows: [%s]" (String.concat ";" rows));
      Alcotest.(check bool) "c2 still parked when c3 is answered" true (!c2_reply = None);
      Thread.join waiter;
      (match !c2_reply with
      | Some (Wire.Aborted m) ->
          Alcotest.(check bool) "names the lock timeout" true (contains m "lock timeout")
      | Some r -> Alcotest.failf "c2: expected ABORTED, got %s" (response_label r)
      | None -> Alcotest.fail "c2 got no reply");
      Alcotest.(check bool) "waited out the deadline" true (!waited >= 0.3);
      Alcotest.(check int) "one timeout abort" 1 (server_stat server "server.timeout_aborts");
      expect_ok "c1 still commits" (Client.commit c1);
      Alcotest.(check int) "c1's write landed, c2's did not" 101 (acct_balance server);
      List.iter Client.quit [ c1; c2; c3 ])

(* Shutdown with a statement parked on an idle session's lock: the
   blocker's teardown aborts its orphan and releases the lock, and the
   waiter's statement completes and is answered before its connection
   closes. [with_server] then checks the audit. *)
let test_shutdown_answers_parked_waiter () =
  with_server ~setup:seed_accounts (fun server port ->
      let c1 = Client.connect ~port () in
      let c2 = Client.connect ~port () in
      expect_ok "c1 begin" (Client.begin_txn c1);
      expect_ok "c1 holds Acct" (Client.exec c1 "UPDATE Acct a SET n = 0");
      let c2_reply = ref Wire.Bye in
      let waiter =
        Thread.create
          (fun () -> c2_reply := Client.exec c2 "UPDATE Acct a SET n = a.n + 1")
          ()
      in
      Thread.delay 0.05; (* let c2's statement park on c1's lock *)
      Server.shutdown server;
      Thread.join waiter;
      expect_ok "parked statement answered" !c2_reply;
      Alcotest.(check int) "orphan aborted" 1
        (server_stat server "server.disconnect_aborts");
      Alcotest.(check int) "orphan rolled back, waiter applied" 101 (acct_balance server);
      Client.close c1;
      Client.close c2)

(* Two sessions issuing the same SELECT text must share one compiled
   plan — the point of putting the plan cache behind the server. *)
let test_plan_cache_shared () =
  with_server ~setup:seed_accounts (fun server port ->
      let run () =
        let c = Client.connect ~port () in
        ignore (expect_rows "select" (Client.query c "SELECT a.n FROM Acct a"));
        Client.quit c
      in
      run ();
      let before = (Db.plan_cache_stats (Server.db server)).Mood.Plan_cache.hits in
      run ();
      let after = (Db.plan_cache_stats (Server.db server)).Mood.Plan_cache.hits in
      Alcotest.(check bool) "second session hits the cache" true (after > before))

(* Autocommit EXPLAIN ANALYZE reads the way an autocommit SELECT does,
   on a snapshot: a second session's uncommitted insert, holding the
   extent lock, neither blocks it nor shows in its actuals. *)
let test_explain_analyze_past_writer () =
  with_server ~setup:seed_accounts (fun _server port ->
      let writer = Client.connect ~port () in
      let reader = Client.connect ~port () in
      expect_ok "begin" (Client.begin_txn writer);
      expect_ok "uncommitted insert" (Client.exec writer "NEW Acct <7>");
      let lines =
        expect_rows "EXPLAIN ANALYZE" (Client.exec reader "EXPLAIN ANALYZE SELECT a FROM Acct a")
      in
      Alcotest.(check bool) "only the committed account" true
        (List.exists (fun l -> contains l "actual rows: 1,") lines);
      expect_ok "abort" (Client.abort writer);
      Client.quit writer;
      Client.quit reader)

(* Every server.* row STATS lists, in key order; the server keeps them
   in its database's registry. *)
let server_keys =
  [ "server.deadlock_aborts"; "server.decides"; "server.disconnect_aborts";
    "server.gc_batches"; "server.gc_commits"; "server.gc_max_batch";
    "server.prepares"; "server.protocol_errors"; "server.redirects";
    "server.sessions_active"; "server.sessions_opened"; "server.statements";
    "server.timeout_aborts"; "server.wrong_shard_redirects" ]

let test_stats_surface () =
  with_server ~setup:seed_accounts (fun server port ->
      let c = Client.connect ~port () in
      let stat rows name =
        match List.assoc_opt name rows with
        | Some v -> v
        | None -> Alcotest.failf "STATS is missing %s" name
      in
      let s0 = Client.stats c in
      Alcotest.(check int) "one session active" 1 (stat s0 "server.sessions_active");
      (* perfbench reads the group-commit rows *)
      Alcotest.(check bool) "group-commit counters present" true
        (List.mem_assoc "server.gc_commits" s0 && List.mem_assoc "server.gc_batches" s0);
      Alcotest.(check bool) "kernel counters included" true
        (List.mem_assoc "stmt.select" s0);
      Alcotest.(check bool) "plan cache included" true
        (List.mem_assoc "plan_cache.hits" s0);
      ignore (expect_rows "select" (Client.query c "SELECT a.n FROM Acct a"));
      (* autocommit: its reply waits for the log-writer's force *)
      expect_ok "update" (Client.exec c "UPDATE Acct a SET n = a.n + 1");
      let s1 = Client.stats c in
      (* the first STATS, the SELECT and the deferred UPDATE each count
         once *)
      Alcotest.(check int) "statements advanced by 3" 3
        (stat s1 "server.statements" - stat s0 "server.statements");
      Alcotest.(check int) "session sees its own statements" 3
        (stat s1 "session.statements" - stat s0 "session.statements");
      (* The registry holds the same server rows, once each; it reads
         one more statement, since a STATS request is counted after
         its reply is built. *)
      let snapshot = Db.metrics_snapshot (Server.db server) in
      List.iter
        (fun key ->
          let once rows =
            List.length (List.filter (fun (k, _) -> k = key) rows) = 1
          in
          Alcotest.(check bool) (key ^ " listed once by STATS") true (once s1);
          Alcotest.(check bool) (key ^ " in the registry once") true (once snapshot);
          let extra = if key = "server.statements" then 1 else 0 in
          Alcotest.(check int) (key ^ " as STATS showed it") (stat s1 key + extra)
            (stat snapshot key))
        server_keys;
      Alcotest.(check (list string)) "no other server rows" server_keys
        (List.filter
           (fun k -> String.length k > 7 && String.sub k 0 7 = "server.")
           (List.map fst snapshot));
      Alcotest.(check int) "kernel counted the SELECT" 1
        (stat s1 "stmt.select" - stat s0 "stmt.select");
      Alcotest.(check bool) "rows flowed back" true
        (stat s1 "session.rows_returned" > stat s0 "session.rows_returned");
      (* a second session sees the shared server totals but fresh
         per-session counters *)
      let c2 = Client.connect ~port () in
      let s2 = Client.stats c2 in
      Alcotest.(check int) "two sessions active" 2 (stat s2 "server.sessions_active");
      Alcotest.(check int) "fresh session counter" 0 (stat s2 "session.aborts");
      Alcotest.(check bool) "shared statement total" true
        (stat s2 "server.statements" > stat s1 "server.statements");
      Client.quit c2;
      Client.quit c)

(* Every client takes one endpoint parser: HOST:PORT (a host name
   resolves, an empty host is 127.0.0.1) and unix:PATH reach the same
   server, and a malformed spec is refused with one message. *)
let test_endpoint_specs () =
  let path = Filename.temp_file "mood_endpoint" ".sock" in
  let config = { base_config with Server.unix_path = Some path } in
  with_server ~config (fun _server port ->
      List.iter
        (fun spec ->
          let c = Client.connect_endpoint spec in
          (match Client.ping c with
          | Wire.Pong -> ()
          | r -> Alcotest.failf "%s: %s" spec (response_label r));
          Client.quit c)
        [ Printf.sprintf "127.0.0.1:%d" port;
          Printf.sprintf "localhost:%d" port;
          Printf.sprintf ":%d" port;
          "unix:" ^ path
        ];
      List.iter
        (fun spec ->
          Alcotest.check_raises spec
            (Failure ("endpoint must be HOST:PORT or unix:PATH, got " ^ spec))
            (fun () -> ignore (Client.connect_endpoint spec)))
        [ "nope"; "127.0.0.1:http" ])

(* The registry cannot drop a source, so a database is served once: a
   second start, even after the first server shut down, is refused
   before it binds anything. *)
let test_one_server_per_database () =
  let db = Db.create () in
  let server = Server.start ~config:base_config db in
  Server.shutdown server;
  Alcotest.check_raises "second start"
    (Invalid_argument "Server.start: the database already has a server")
    (fun () -> ignore (Server.start ~config:base_config db))

(* Group commit: every COMMIT's force goes through the log-writer (the
   gc_* STATS rows advance) and the ACK is durable. *)
let test_group_commit () =
  let stat rows name =
    match List.assoc_opt name rows with
    | Some v -> v
    | None -> Alcotest.failf "STATS is missing %s" name
  in
  with_server ~setup:seed_accounts (fun _server port ->
      let c = Client.connect ~port () in
      expect_ok "autocommit write" (Client.exec c "UPDATE Acct a SET n = a.n + 1");
      expect_ok "begin" (Client.begin_txn c);
      expect_ok "txn write" (Client.exec c "UPDATE Acct a SET n = a.n + 1");
      expect_ok "commit" (Client.commit c);
      (match expect_rows "readback" (Client.query c "SELECT a.n FROM Acct a") with
      | [ n ] -> Alcotest.(check int) "both commits visible" 102 (cell_int n)
      | rows -> Alcotest.failf "expected one account, got %d" (List.length rows));
      let s = Client.stats c in
      Client.quit c;
      Alcotest.(check bool) "commits batched" true (stat s "server.gc_commits" >= 2);
      Alcotest.(check bool) "log-writer forced" true (stat s "server.gc_batches" >= 1);
      Alcotest.(check bool) "batch high-water mark" true
        (stat s "server.gc_max_batch" >= 1))

(* ------------------------------------------------------------------ *)
(* 2PC participant and sharding surface                                *)

(* A HELLO below the server's version gets the documented mismatch
   error and the session is torn down — old clients cannot limp on. *)
let test_old_hello_torn_down () =
  with_server (fun _server port ->
      let c = Client.connect ~handshake:false ~port () in
      (match Client.request c (Wire.Hello 1) with
      | Wire.Err m ->
          Alcotest.(check bool) "names the mismatch" true (contains m "version")
      | r -> Alcotest.failf "old HELLO accepted: %s" (response_label r));
      (match Client.ping c with
      | exception (Client.Disconnected | Wire.Protocol_error _ | Unix.Unix_error _) ->
          ()
      | r -> Alcotest.failf "session survived the mismatch: %s" (response_label r));
      Client.close c)

(* The sharding opcodes are v2: without a completed handshake they are
   refused with an error naming the missing HELLO. *)
let test_2pc_requires_hello () =
  with_server (fun _server port ->
      let c = Client.connect ~handshake:false ~port () in
      (match Client.prepare c ~gid:1 with
      | Wire.Err m -> Alcotest.(check bool) "prepare gated" true (contains m "HELLO")
      | r -> Alcotest.failf "ungated PREPARE: %s" (response_label r));
      (match Client.decide c ~gid:1 ~commit:true with
      | Wire.Err m -> Alcotest.(check bool) "decide gated" true (contains m "HELLO")
      | r -> Alcotest.failf "ungated DECIDE: %s" (response_label r));
      (match Client.shard_map c ~version:1 ~self:0 ~shards:[ "a:1" ] with
      | Wire.Err m -> Alcotest.(check bool) "map gated" true (contains m "HELLO")
      | r -> Alcotest.failf "ungated SHARD_MAP: %s" (response_label r));
      Client.quit c)

let expect_ok_containing label sub = function
  | Wire.Ok_result m ->
      Alcotest.(check bool) (label ^ ": mentions " ^ sub) true (contains m sub)
  | r -> Alcotest.failf "%s: expected OK, got %s" label (response_label r)

(* Full participant cycle over the wire: vote, decide commit, and the
   idempotent re-decide of a forgotten gid. *)
let test_prepare_then_decide () =
  with_server ~setup:seed_accounts (fun _server port ->
      let c = Client.connect ~port () in
      (match Client.prepare c ~gid:41 with
      | Wire.Err m ->
          Alcotest.(check bool) "needs a txn" true (contains m "transaction")
      | r -> Alcotest.failf "prepared nothing: %s" (response_label r));
      expect_ok "begin" (Client.begin_txn c);
      expect_ok "write" (Client.exec c "UPDATE Acct a SET n = 7");
      expect_ok_containing "prepare" "PREPARED 42" (Client.prepare c ~gid:42);
      (* A prepared transaction is frozen: no more statements, and
         neither COMMIT nor ABORT — its fate belongs to the coordinator. *)
      (match Client.commit c with
      | Wire.Err m -> Alcotest.(check bool) "commit refused" true (contains m "prepared")
      | r -> Alcotest.failf "commit bypassed 2PC: %s" (response_label r));
      (match Client.abort c with
      | Wire.Err m -> Alcotest.(check bool) "abort refused" true (contains m "prepared")
      | r -> Alcotest.failf "abort bypassed 2PC: %s" (response_label r));
      (match Client.exec c "UPDATE Acct a SET n = 0" with
      | Wire.Err m -> Alcotest.(check bool) "statement refused" true (contains m "prepared")
      | r -> Alcotest.failf "statement ran in a prepared txn: %s" (response_label r));
      expect_ok_containing "decide" "COMMITTED 42"
        (Client.decide c ~gid:42 ~commit:true);
      (match expect_rows "post" (Client.query c "SELECT a.n FROM Acct a") with
      | [ row ] -> Alcotest.(check int) "decision applied" 7 (cell_int row)
      | rows -> Alcotest.failf "bad rows: [%s]" (String.concat ";" rows));
      (* Presumed abort: deciding an unknown gid is a no-op answer, not
         an error — the coordinator may retry decisions forever. *)
      expect_ok_containing "re-decide" "UNKNOWN 42" (Client.decide c ~gid:42 ~commit:true);
      expect_ok_containing "unknown gid" "UNKNOWN 99"
        (Client.decide c ~gid:99 ~commit:false);
      Client.quit c)

(* The vote is a durable promise: an abrupt client disconnect must NOT
   abort a prepared transaction (ordinary open transactions die with
   their session). A later DECIDE from another session commits it. *)
let test_prepared_survives_disconnect () =
  with_server ~setup:seed_accounts (fun _server port ->
      let c1 = Client.connect ~port () in
      expect_ok "begin" (Client.begin_txn c1);
      expect_ok "write" (Client.exec c1 "UPDATE Acct a SET n = 55");
      expect_ok_containing "prepare" "PREPARED 77" (Client.prepare c1 ~gid:77);
      Client.close c1;
      Thread.delay 0.1;
      let c2 = Client.connect ~port () in
      expect_ok_containing "decide from another session" "COMMITTED 77"
        (Client.decide c2 ~gid:77 ~commit:true);
      (match expect_rows "post" (Client.query c2 "SELECT a.n FROM Acct a") with
      | [ row ] ->
          Alcotest.(check int) "in-doubt write survived the disconnect" 55
            (cell_int row)
      | rows -> Alcotest.failf "bad rows: [%s]" (String.concat ";" rows));
      Client.quit c2)

(* With a shard map installed, an object creation this shard does not
   own is refused with the owner's index and address before anything
   runs; reads and owned creations are untouched. *)
let test_wrong_shard_enforced () =
  with_server (fun _server port ->
      let c = Client.connect ~port () in
      expect_ok "ddl" (Client.exec c "CREATE CLASS Ws TUPLE (n Integer)");
      (match Client.shard_map c ~version:1 ~self:0 ~shards:[ "127.0.0.1:1"; "127.0.0.1:2" ] with
      | Wire.Rows [] -> ()
      | Wire.Rows gids ->
          Alcotest.failf "unexpected in-doubt gids: [%s]" (String.concat ";" gids)
      | r -> Alcotest.failf "shard map: %s" (response_label r));
      let statement k = Printf.sprintf "NEW Ws <%d>" k in
      let owner k =
        Wire.placement_hash (Mood.Plan_cache.normalize (statement k)) mod 2
      in
      let rec find self k = if owner k = self then k else find self (k + 1) in
      expect_ok "owned NEW runs" (Client.exec c (statement (find 0 0)));
      (match Client.exec c (statement (find 1 0)) with
      | Wire.Wrong_shard { ws_shard = 1; ws_addr = "127.0.0.1:2" } -> ()
      | r -> Alcotest.failf "expected WRONG_SHARD, got %s" (response_label r));
      let rows = expect_rows "reads untouched" (Client.query c "SELECT w.n FROM Ws w") in
      Alcotest.(check int) "only the owned row landed" 1 (List.length rows);
      Client.quit c)

(* ------------------------------------------------------------------ *)
(* Restart journal                                                     *)

let db_exec db sql =
  match Db.exec db sql with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "exec %S: %s" sql m

let db_ints db sql =
  Db.query db sql
  |> Mood_executor.Executor.result_values
  |> List.map (fun v -> cell_int (Mood_model.Value.to_string v))
  |> List.sort compare

(* The journal replays a shard back to its pre-kill state: DDL source
   re-executed, WAL records re-appended, recovery rerun. *)
let test_journal_roundtrip () =
  let path = Filename.temp_file "mood_journal" ".log" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let db1 = Db.create () in
      Alcotest.(check (pair int int)) "missing journal is empty" (0, 0)
        (Mood_server.Journal.replay ~path db1);
      let j = Mood_server.Journal.attach ~path db1 in
      db_exec db1 "CREATE CLASS Jt TUPLE (n Integer)";
      (* DML flows through a session transaction — the path whose
         commit forces the log, which is what the journal captures. *)
      let in_txn txn sql =
        match Db.exec_in_txn db1 txn sql with
        | Ok _ -> ()
        | Error (Db.Txn_fail m) -> Alcotest.failf "exec %S: %s" sql m
        | Error _ -> Alcotest.failf "exec %S: unexpected txn outcome" sql
      in
      let txn = Db.begin_session_txn db1 in
      in_txn txn "NEW Jt <5>";
      in_txn txn "NEW Jt <6>";
      in_txn txn "UPDATE Jt j SET n = j.n + 10";
      Db.commit_session_txn db1 txn;
      Mood_server.Journal.detach j;
      let db2 = Db.create () in
      let ddl, recs = Mood_server.Journal.replay ~path db2 in
      Alcotest.(check int) "one DDL statement" 1 ddl;
      Alcotest.(check bool) "WAL records replayed" true (recs > 0);
      Alcotest.(check (list int)) "contents reproduced" [ 15; 16 ]
        (db_ints db2 "SELECT j.n FROM Jt j"))

(* ------------------------------------------------------------------ *)
(* Router end to end                                                   *)

module Router = Mood_shard.Router

let with_cluster ?(shards = 3) f =
  let servers =
    List.init shards (fun _ -> Server.start ~config:base_config (Db.create ()))
  in
  let addrs =
    List.map
      (fun s ->
        match Server.port s with
        | Some p -> Printf.sprintf "127.0.0.1:%d" p
        | None -> Alcotest.fail "shard has no TCP port")
      servers
  in
  let dlog = Filename.temp_file "mood_router" ".decisions" in
  let router =
    Router.start { Router.default_config with Router.shards = addrs; decision_log = dlog }
  in
  Fun.protect
    ~finally:(fun () ->
      Router.shutdown router;
      (match Router.audit router with
      | Ok () -> ()
      | Error m -> Alcotest.failf "router leak audit failed: %s" m);
      List.iter
        (fun s ->
          Server.shutdown s;
          match Server.audit s with
          | Ok () -> ()
          | Error m -> Alcotest.failf "shard leak audit failed: %s" m)
        servers;
      if Sys.file_exists dlog then Sys.remove dlog)
    (fun () ->
      match Router.port router with
      | Some p -> f router p
      | None -> Alcotest.fail "router has no TCP port")

(* One client against a 3-shard cluster: DDL broadcast, hash-routed
   creations, scatter-gather reads, a cross-shard autocommit update
   running as a 2PC transaction, and the router's stats surface. *)
(* A malformed shard address is refused at start, before the decision
   log is opened, not answered as an unavailable shard per statement. *)
let test_router_refuses_bad_shard () =
  let dlog = Filename.temp_file "mood_router" ".decisions" in
  Fun.protect
    ~finally:(fun () -> Sys.remove dlog)
    (fun () ->
      Alcotest.check_raises "bogus shard"
        (Failure "endpoint must be HOST:PORT or unix:PATH, got bogus")
        (fun () ->
          ignore
            (Router.start
               { Router.default_config with
                 Router.shards = [ "127.0.0.1:1"; "bogus" ];
                 decision_log = dlog
               })))

let test_router_end_to_end () =
  with_cluster (fun router port ->
      let c = Client.connect ~port () in
      (match Client.request c (Wire.Hello Wire.protocol_version) with
      | Wire.Ok_result m ->
          Alcotest.(check bool) "router names its role" true (contains m "role=router")
      | r -> Alcotest.failf "router hello: %s" (response_label r));
      expect_ok "broadcast DDL"
        (Client.exec c "CREATE CLASS Pt TUPLE (x Integer, y Integer)");
      for i = 1 to 12 do
        expect_ok "routed NEW" (Client.exec c (Printf.sprintf "NEW Pt <%d, 0>" i))
      done;
      let rows = expect_rows "scatter read" (Client.query c "SELECT p.x FROM Pt p") in
      Alcotest.(check (list int)) "merged rows"
        [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ]
        (List.sort compare (List.map cell_int rows));
      expect_ok_containing "cross-shard update" "12"
        (Client.exec c "UPDATE Pt p SET y = 1");
      (* Explicit transaction across shards commits through 2PC too. *)
      expect_ok "begin" (Client.begin_txn c);
      expect_ok "txn write" (Client.exec c "UPDATE Pt p SET y = 2");
      expect_ok "commit" (Client.commit c);
      let st = Client.stats c in
      let stat name =
        match List.assoc_opt name st with
        | Some v -> v
        | None -> Alcotest.failf "router STATS is missing %s" name
      in
      Alcotest.(check bool) "creations routed" true (stat "shard.routed" >= 12);
      Alcotest.(check bool) "reads scattered" true (stat "shard.scattered" >= 1);
      Alcotest.(check bool) "2PC ran" true (stat "shard.commits_2pc" >= 1);
      Alcotest.(check bool) "votes collected" true
        (stat "shard.prepares" >= 2 * stat "shard.commits_2pc");
      (* Per-shard rows are merged under a shardN. prefix, and the
         placement actually spread the objects around. *)
      let busy_shards =
        List.length
          (List.filter
             (fun i ->
               match List.assoc_opt (Printf.sprintf "shard%d.stmt.dml" i) st with
               | Some n -> n > 0
               | None -> false)
             [ 0; 1; 2 ])
      in
      Alcotest.(check bool) "objects landed on several shards" true (busy_shards >= 2);
      ignore router;
      Client.quit c)

(* Allocation fences burn gids: every allocated gid hits the log as an
   abort decision before its first PREPARE, a later commit record
   supersedes it on replay, and [max_gid] covers both — so a restarted
   coordinator can never reallocate a gid some shard may still hold
   PREPAREd. *)
let test_decision_log_allocation_fence () =
  let module Dl = Mood_shard.Decision_log in
  let path = Filename.temp_file "mood_dlog" ".decisions" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let log, replayed = Dl.open_ ~path in
      Alcotest.(check int) "fresh log is empty" 0 (List.length replayed);
      Dl.append log ~gid:1 ~commit:false;
      (* gid 1: allocated, 2PC aborted — only the fence remains *)
      Dl.append log ~gid:2 ~commit:false;
      Dl.append log ~gid:2 ~commit:true;
      (* gid 2: allocated, then committed *)
      Dl.close log;
      let log2, replayed = Dl.open_ ~path in
      Dl.close log2;
      Alcotest.(check int) "max gid covers aborted allocations" 2
        (Dl.max_gid replayed);
      let decisions = Hashtbl.create 4 in
      List.iter (fun (gid, commit) -> Hashtbl.replace decisions gid commit) replayed;
      Alcotest.(check (option bool)) "gid 1 presumed aborted" (Some false)
        (Hashtbl.find_opt decisions 1);
      Alcotest.(check (option bool)) "commit supersedes gid 2's fence" (Some true)
        (Hashtbl.find_opt decisions 2))

(* The restart scenario the fences exist for: a 2PC aborts while some
   shard still holds its gid PREPAREd (here planted directly), the
   router restarts, and the next transaction must NOT reuse the gid —
   a reused gid's commit decision would flip the old shard's
   presumed-aborted transaction into a commit. *)
let test_router_restart_burns_aborted_gids () =
  let servers = List.init 2 (fun _ -> Server.start ~config:base_config (Db.create ())) in
  let ports =
    List.map
      (fun s ->
        match Server.port s with
        | Some p -> p
        | None -> Alcotest.fail "shard has no TCP port")
      servers
  in
  let addrs = List.map (Printf.sprintf "127.0.0.1:%d") ports in
  let dlog = Filename.temp_file "mood_router" ".decisions" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun s ->
          Server.shutdown s;
          match Server.audit s with
          | Ok () -> ()
          | Error m -> Alcotest.failf "shard leak audit failed: %s" m)
        servers;
      if Sys.file_exists dlog then Sys.remove dlog)
    (fun () ->
      let start_router () =
        let router =
          Router.start
            { Router.default_config with Router.shards = addrs; decision_log = dlog }
        in
        match Router.port router with
        | Some p -> (router, p)
        | None -> Alcotest.fail "router has no TCP port"
      in
      let router, rport = start_router () in
      let c = Client.connect ~port:rport () in
      (* [Pl] holds the planted transaction's write target (one row,
         hash-routed to shard 0); [Bg] is what the router's own 2PC
         writes — disjoint classes, so the planted extent locks never
         block the router's statements. *)
      expect_ok "ddl Pl" (Client.exec c "CREATE CLASS Pl TUPLE (n Integer)");
      expect_ok "ddl Bg" (Client.exec c "CREATE CLASS Bg TUPLE (n Integer)");
      let owner k =
        Wire.placement_hash (Mood.Plan_cache.normalize (Printf.sprintf "NEW Pl <%d>" k))
        mod 2
      in
      let rec find_owned k = if owner k = 0 then k else find_owned (k + 1) in
      let k0 = find_owned 0 in
      expect_ok "seed shard 0" (Client.exec c (Printf.sprintf "NEW Pl <%d>" k0));
      (* Plant: a PREPAREd transaction directly on shard 0 under gid 1,
         the first gid the router will allocate. *)
      let s0 = Client.connect ~port:(List.nth ports 0) () in
      expect_ok "plant begin" (Client.begin_txn s0);
      expect_ok "plant write" (Client.exec s0 "UPDATE Pl p SET n = 666");
      expect_ok_containing "plant prepare" "PREPARED 1" (Client.prepare s0 ~gid:1);
      Client.close s0;
      Thread.delay 0.1;
      (* Cross-shard 2PC: shard 0 votes no (gid 1 is taken), aborting
         the transaction. The gid's allocation fence is now the only
         trace of it in the decision log. *)
      expect_ok "begin" (Client.begin_txn c);
      expect_ok "txn write" (Client.exec c "UPDATE Bg b SET n = 1");
      (match Client.commit c with
      | Wire.Aborted m ->
          Alcotest.(check bool) "names the no-vote" true (contains m "voted no")
      | r -> Alcotest.failf "expected 2PC abort, got %s" (response_label r));
      Client.quit c;
      Router.shutdown router;
      (match Router.audit router with
      | Ok () -> ()
      | Error m -> Alcotest.failf "router leak audit failed: %s" m);
      (* Restarted coordinator: gid 1 is burned. The next 2PC must
         allocate gid 2, and reconnecting to shard 0 presumed-aborts
         the planted transaction. *)
      let router, rport = start_router () in
      let c = Client.connect ~port:rport () in
      expect_ok "begin" (Client.begin_txn c);
      expect_ok "txn write" (Client.exec c "UPDATE Bg b SET n = 2");
      expect_ok_containing "burned gid skipped" "gid 2" (Client.commit c);
      let rows = expect_rows "scatter" (Client.query c "SELECT p.n FROM Pl p") in
      Alcotest.(check (list int)) "planted write presumed aborted" [ k0 ]
        (List.sort compare (List.map cell_int rows));
      Client.quit c;
      Router.shutdown router;
      match Router.audit router with
      | Ok () -> ()
      | Error m -> Alcotest.failf "router leak audit failed: %s" m)

(* A recovered in-doubt transaction's redone effects must be invisible
   to MVCC snapshot reads until the coordinator decides: recovery
   re-chains the WAL before-images as the prepared transaction's
   pending versions, so lock-free SELECTs keep reading the pre-2PC
   state through the in-doubt window. *)
let test_indoubt_hidden_from_snapshot_reads () =
  let path = Filename.temp_file "mood_journal" ".log" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let db1 = Db.create () in
      let j = Mood_server.Journal.attach ~path db1 in
      let in_txn txn sql =
        match Db.exec_in_txn db1 txn sql with
        | Ok _ -> ()
        | Error (Db.Txn_fail m) -> Alcotest.failf "exec %S: %s" sql m
        | Error _ -> Alcotest.failf "exec %S: unexpected txn outcome" sql
      in
      db_exec db1 "CREATE CLASS Iv TUPLE (n Integer)";
      let t0 = Db.begin_session_txn db1 in
      in_txn t0 "NEW Iv <1>";
      Db.commit_session_txn db1 t0;
      (* Prepared, never decided: the journal ends with gid 9 in doubt. *)
      let t1 = Db.begin_session_txn db1 in
      in_txn t1 "UPDATE Iv i SET n = 2";
      (match Db.prepare_session_txn db1 t1 ~gid:9 with
      | Ok () -> ()
      | Error m -> Alcotest.failf "prepare: %s" m);
      Mood_server.Journal.detach j;
      (* Commit side: the crashed shard restarts, the update is redone
         but stays hidden until DECIDE(commit) stamps it. *)
      let db2 = Db.create () in
      ignore (Mood_server.Journal.replay ~path db2);
      Alcotest.(check (list int)) "snapshot reads the pre-2PC value" [ 1 ]
        (db_ints db2 "SELECT i.n FROM Iv i");
      (match Db.decide_txn db2 ~gid:9 ~commit:true with
      | `Committed -> ()
      | _ -> Alcotest.fail "expected gid 9 to commit");
      Alcotest.(check (list int)) "decision published the write" [ 2 ]
        (db_ints db2 "SELECT i.n FROM Iv i");
      (* Abort side: same journal, opposite decision — the hidden
         write is rolled back and never observed. *)
      let db3 = Db.create () in
      ignore (Mood_server.Journal.replay ~path db3);
      Alcotest.(check (list int)) "still the pre-2PC value" [ 1 ]
        (db_ints db3 "SELECT i.n FROM Iv i");
      (match Db.decide_txn db3 ~gid:9 ~commit:false with
      | `Aborted -> ()
      | _ -> Alcotest.fail "expected gid 9 to abort");
      Alcotest.(check (list int)) "abort keeps the pre-2PC value" [ 1 ]
        (db_ints db3 "SELECT i.n FROM Iv i"))

let suites =
  [ ( "server-wire",
      [ Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
        Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
        Alcotest.test_case "unknown opcode" `Quick test_unknown_opcode;
        Alcotest.test_case "STATS opcode strict" `Quick test_stats_opcode_strict;
        Alcotest.test_case "PREPARE opcode strict" `Quick test_prepare_opcode_strict;
        Alcotest.test_case "DECIDE opcode strict" `Quick test_decide_opcode_strict;
        Alcotest.test_case "SHARD_MAP opcode strict" `Quick
          test_shard_map_opcode_strict;
        Alcotest.test_case "WRONG_SHARD response strict" `Quick
          test_wrong_shard_response_strict;
        Alcotest.test_case "oversized frame" `Quick test_oversized_frame;
        Alcotest.test_case "torn length prefix" `Quick test_torn_length_prefix;
        Alcotest.test_case "torn payload" `Quick test_torn_payload;
        Alcotest.test_case "clean EOF" `Quick test_clean_eof;
        Alcotest.test_case "partial delivery" `Quick test_partial_delivery
      ] );
    ( "server-queue",
      [ Alcotest.test_case "session registry" `Quick test_registry_lifecycle;
        Alcotest.test_case "nonblocking wire" `Quick test_nonblocking_wire
      ] );
    ( "server-integration",
      [ Alcotest.test_case "basic session" `Quick test_basic_session;
        Alcotest.test_case "commit and abort" `Quick test_commit_and_abort;
        Alcotest.test_case "disconnect releases locks" `Quick
          test_disconnect_releases_locks;
        Alcotest.test_case "deadlock victim" `Quick test_deadlock_victim;
        Alcotest.test_case "malformed frames" `Quick test_malformed_frames;
        Alcotest.test_case "shutdown aborts open txn" `Quick
          test_shutdown_aborts_open_txn;
        Alcotest.test_case "plan cache shared" `Quick test_plan_cache_shared;
        Alcotest.test_case "EXPLAIN ANALYZE past a writer" `Quick
          test_explain_analyze_past_writer;
        Alcotest.test_case "STATS surface" `Quick test_stats_surface;
        Alcotest.test_case "endpoint specs" `Quick test_endpoint_specs;
        Alcotest.test_case "one server per database" `Quick
          test_one_server_per_database;
        Alcotest.test_case "group commit" `Quick test_group_commit;
        Alcotest.test_case "lock timeout" `Quick test_lock_timeout;
        Alcotest.test_case "shutdown answers a parked waiter" `Quick
          test_shutdown_answers_parked_waiter
      ] );
    ( "server-sharding",
      [ Alcotest.test_case "old HELLO torn down" `Quick test_old_hello_torn_down;
        Alcotest.test_case "2PC requires HELLO" `Quick test_2pc_requires_hello;
        Alcotest.test_case "prepare then decide" `Quick test_prepare_then_decide;
        Alcotest.test_case "prepared survives disconnect" `Quick
          test_prepared_survives_disconnect;
        Alcotest.test_case "wrong shard enforced" `Quick test_wrong_shard_enforced;
        Alcotest.test_case "journal roundtrip" `Quick test_journal_roundtrip;
        Alcotest.test_case "router refuses a bad shard" `Quick
          test_router_refuses_bad_shard;
        Alcotest.test_case "router end to end" `Quick test_router_end_to_end;
        Alcotest.test_case "decision log allocation fence" `Quick
          test_decision_log_allocation_fence;
        Alcotest.test_case "router restart burns aborted gids" `Quick
          test_router_restart_burns_aborted_gids;
        Alcotest.test_case "in-doubt hidden from snapshot reads" `Quick
          test_indoubt_hidden_from_snapshot_reads
      ] )
  ]
