(* Tests for WAL-shipping replication: the WAL record codec and the
   batch/snapshot blob codec, the protocol-version handshake, the
   double-redo idempotence pin, the networking-free applier state
   machine (bootstrap, streaming, term fencing, promotion), full
   wire-level primary+replica integration, and the sim harness's
   replica convergence sweep with its negative mode. *)

module Db = Mood.Db
module Wal = Mood_storage.Wal
module Store = Mood_storage.Store
module Catalog = Mood_catalog.Catalog
module Wire = Mood_server.Wire
module Server = Mood_server.Server
module Client = Mood_server.Client
module Rcodec = Mood_repl.Codec
module Primary = Mood_repl.Primary
module Apply = Mood_repl.Apply
module Harness = Mood_sim.Harness
module Value = Mood_model.Value

let render = function
  | Wire.Ok_result m -> "OK " ^ m
  | Wire.Rows rows -> Printf.sprintf "ROWS(%d)" (List.length rows)
  | Wire.Err m -> "ERR " ^ m
  | Wire.Aborted m -> "ABORTED " ^ m
  | Wire.Busy m -> "BUSY " ^ m
  | Wire.Redirect a -> "REDIRECT " ^ a
  | Wire.Blob b -> Printf.sprintf "BLOB(%d)" (String.length b)
  | Wire.Pong -> "PONG"
  | Wire.Bye -> "BYE"
  | Wire.Wrong_shard { ws_shard; ws_addr } ->
      Printf.sprintf "WRONG_SHARD %d %s" ws_shard ws_addr

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* WAL record codec                                                    *)

let sample_records =
  [ Wal.Begin 7;
    Wal.Commit 7;
    Wal.Abort 9;
    Wal.Insert
      { txn = 7; file = 3; rid = { Mood_storage.Heap_file.page = 2; slot = 5 };
        payload = "payload-bytes" };
    Wal.Delete
      { txn = 8; file = 0; rid = { Mood_storage.Heap_file.page = 0; slot = 0 };
        before = "" };
    Wal.Update
      { txn = 9; file = 12; rid = { Mood_storage.Heap_file.page = 1; slot = 9 };
        before = "old"; after = "new\x00binary" };
    Wal.Checkpoint [];
    Wal.Checkpoint [ 3; 1; 4 ]
  ]

let test_wal_record_roundtrip () =
  List.iter
    (fun r ->
      let back = Wal.decode_record (Wal.encode_record r) in
      Alcotest.(check bool) "roundtrip" true (back = r))
    sample_records

let test_wal_codec_defensive () =
  let encoded = Wal.encode_record (List.nth sample_records 3) in
  (match Wal.decode_record (encoded ^ "x") with
  | exception Wal.Codec_error _ -> ()
  | _ -> Alcotest.fail "trailing bytes accepted");
  (match Wal.decode_record (String.sub encoded 0 (String.length encoded - 1)) with
  | exception Wal.Codec_error _ -> ()
  | _ -> Alcotest.fail "truncated record accepted");
  match Wal.decode_record "Zjunk" with
  | exception Wal.Codec_error _ -> ()
  | _ -> Alcotest.fail "unknown tag accepted"

(* Every u32 field takes exactly 0 .. 2^32-1: the top value round-trips
   unsigned, and anything outside raises instead of being cut to its
   low 32 bits (which would decode as a different txn id or LSN). *)
let test_u32_range () =
  let top = 0xFFFF_FFFF in
  Alcotest.(check bool) "top u32 round-trips" true
    (Wal.decode_record (Wal.encode_record (Wal.Begin top)) = Wal.Begin top);
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  raises "wal txn 2^32" (fun () -> Wal.encode_record (Wal.Begin (top + 1)));
  raises "wal negative file" (fun () ->
      Wal.encode_record
        (Wal.Insert
           { txn = 1; file = -1; rid = { Mood_storage.Heap_file.page = 0; slot = 0 };
             payload = "" }));
  let batch = { Rcodec.b_term = 1; b_last_lsn = 0; b_sent_us = 0; b_records = [] } in
  raises "batch lsn 2^32" (fun () -> Rcodec.encode_batch { batch with b_last_lsn = top + 1 });
  raises "batch negative timestamp" (fun () -> Rcodec.encode_batch { batch with b_sent_us = -1 });
  raises "wire gid 2^32" (fun () -> Wire.encode_request (Wire.Prepare (top + 1)));
  match Rcodec.decode (Rcodec.encode_batch { batch with b_term = top; b_sent_us = max_int }) with
  | Rcodec.Batch b ->
      Alcotest.(check int) "top term" top b.Rcodec.b_term;
      Alcotest.(check int) "max_int timestamp" max_int b.Rcodec.b_sent_us
  | Rcodec.Snapshot _ -> Alcotest.fail "batch decoded as snapshot"

(* ------------------------------------------------------------------ *)
(* Batch / snapshot blob codec                                         *)

let test_batch_roundtrip () =
  let batch =
    { Rcodec.b_term = 3;
      b_last_lsn = 42;
      b_sent_us = 1_700_000_000_123_456;
      b_records = List.mapi (fun i r -> (i + 1, r)) sample_records
    }
  in
  (match Rcodec.decode (Rcodec.encode_batch batch) with
  | Rcodec.Batch b -> Alcotest.(check bool) "batch" true (b = batch)
  | Rcodec.Snapshot _ -> Alcotest.fail "batch decoded as snapshot");
  let empty = { Rcodec.b_term = 1; b_last_lsn = 0; b_sent_us = 0; b_records = [] } in
  match Rcodec.decode (Rcodec.encode_batch empty) with
  | Rcodec.Batch b -> Alcotest.(check bool) "empty batch" true (b = empty)
  | Rcodec.Snapshot _ -> Alcotest.fail "empty batch decoded as snapshot"

let test_snapshot_roundtrip () =
  let snap =
    { Rcodec.s_term = 2;
      s_lsn = 17;
      s_schema = "CREATE CLASS C TUPLE (n Integer)";
      s_files = [ (4, "C"); (9, "D") ];
      s_classes = [ ("C", [ (0, "enc0"); (3, "enc3") ]); ("D", []) ];
      s_active = [ 11; 12 ];
      s_undo = [ (11, [ List.nth sample_records 3 ]); (12, []) ]
    }
  in
  (match Rcodec.decode (Rcodec.encode_snapshot snap) with
  | Rcodec.Snapshot s -> Alcotest.(check bool) "snapshot" true (s = snap)
  | Rcodec.Batch _ -> Alcotest.fail "snapshot decoded as batch");
  match Rcodec.decode "garbage" with
  | exception Rcodec.Codec_error _ -> ()
  | _ -> Alcotest.fail "garbage blob accepted"

(* ------------------------------------------------------------------ *)
(* Wire opcodes                                                        *)

let strip_prefix frame =
  let n = Bytes.length frame in
  if n < 4 then Alcotest.fail "frame shorter than its length prefix";
  Bytes.sub frame 4 (n - 4)

let test_wire_repl_roundtrip () =
  List.iter
    (fun req ->
      let back = Wire.decode_request (strip_prefix (Wire.encode_request req)) in
      Alcotest.(check bool) "request" true (back = req))
    [ Wire.Hello Wire.protocol_version;
      Wire.Hello 7;
      Wire.Repl_snapshot;
      Wire.Repl_pull { term = 3; after = 0 };
      Wire.Repl_pull { term = 1; after = 123456 };
      Wire.Promote;
      Wire.Fence { term = 9; primary = "127.0.0.1:7450" };
      Wire.Fence { term = 2; primary = "" }
    ];
  List.iter
    (fun resp ->
      let back = Wire.decode_response (strip_prefix (Wire.encode_response resp)) in
      Alcotest.(check bool) "response" true (back = resp))
    [ Wire.Redirect "unix:/tmp/mood.sock"; Wire.Blob "\x00\x01blob" ];
  (* A Hello frame carries exactly one version byte. *)
  match Wire.decode_request (Bytes.of_string "H") with
  | exception Wire.Protocol_error _ -> ()
  | _ -> Alcotest.fail "short Hello accepted"

(* ------------------------------------------------------------------ *)
(* Double-redo idempotence (the Wal.recover/put_image pin)             *)

(* A [Db.exec] data write is a logged transaction of its own, as the
   server's autocommit statement is, so it ships like one. *)
let exec_ok db sql =
  match Db.exec db sql with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%s: %s" sql m

let seed_primary db =
  (match Db.exec db "CREATE CLASS Eng TUPLE (size Integer, cyl Integer)" with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "seed schema failed: %s" m);
  List.iter (exec_ok db)
    [ "NEW Eng <1000, 4>"; "NEW Eng <2000, 8>"; "NEW Eng <3000, 12>";
      "UPDATE Eng e SET size = e.size + 5 WHERE e.cyl = 8";
      "DELETE FROM Eng e WHERE e.cyl = 12" ]

let data_records db =
  List.filter
    (function Wal.Insert _ | Wal.Update _ | Wal.Delete _ -> true | _ -> false)
    (Wal.records (Store.wal (Db.store db)))

let test_double_redo_idempotent () =
  (* Two kernels built by the identical script allocate identical heap
     file ids, so the primary's records replay on the twin verbatim.
     Applying the whole redo batch twice must leave the image exactly
     where one application left it. *)
  let primary = Db.create () in
  seed_primary primary;
  let twin = Db.create () in
  (match Db.exec_script twin "CREATE CLASS Eng TUPLE (size Integer, cyl Integer)" with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "twin schema failed: %s" m);
  Alcotest.(check bool) "file ids line up" true
    (List.assoc_opt "Eng" (Db.class_files twin)
    = List.assoc_opt "Eng" (Db.class_files primary));
  let batch = data_records primary in
  Alcotest.(check bool) "batch has all three kinds" true (List.length batch >= 5);
  let redo = Catalog.put_image (Db.catalog twin) ~reindex:false Catalog.After in
  List.iter redo batch;
  let once = Db.snapshot twin in
  List.iter redo batch;
  let twice = Db.snapshot twin in
  Alcotest.(check bool) "second application is a no-op" true (once = twice);
  Alcotest.(check bool) "twin matches primary" true
    (List.assoc "Eng" once = List.assoc "Eng" (Db.snapshot primary))

(* ------------------------------------------------------------------ *)
(* Applier state machine (networking-free)                             *)

let eng_contents db = List.assoc "Eng" (Db.snapshot db)

let test_apply_bootstrap_and_stream () =
  let primary = Db.create () in
  seed_primary primary;
  let replica = Db.create () in
  let apply = Apply.create replica in
  Apply.install_snapshot apply (Primary.snapshot primary);
  Alcotest.(check bool) "bootstrap image matches" true
    (eng_contents replica = eng_contents primary);
  Alcotest.(check int) "cursor at snapshot lsn" (Apply.applied_lsn apply)
    (Wal.persisted_last_lsn (Store.wal (Db.store primary)));
  (* Stream a write. *)
  exec_ok primary "NEW Eng <4000, 16>";
  let batch = Primary.batch primary ~after:(Apply.applied_lsn apply) in
  (match Apply.apply_batch apply batch with
  | `Applied -> ()
  | _ -> Alcotest.fail "batch refused");
  Alcotest.(check bool) "streamed write applied" true
    (eng_contents replica = eng_contents primary);
  Alcotest.(check int) "lag drained" 0 (Apply.lag_records apply);
  (* Re-delivering the same batch (crash-retried pull) is a no-op. *)
  (match Apply.apply_batch apply batch with
  | `Applied -> ()
  | _ -> Alcotest.fail "re-delivered batch refused");
  Alcotest.(check bool) "re-delivery converges" true
    (eng_contents replica = eng_contents primary);
  (* A batch from a stale primary is refused; a regressed log is
     flagged for re-bootstrap. *)
  (match
     Apply.apply_batch apply
       { batch with Rcodec.b_term = Apply.term apply - 1 }
   with
  | `Stale_primary _ -> ()
  | _ -> Alcotest.fail "stale term accepted");
  (match
     Apply.apply_batch apply
       { Rcodec.b_term = Apply.term apply; b_last_lsn = 1; b_sent_us = 0;
         b_records = [] }
   with
  | `Primary_regressed -> ()
  | _ -> Alcotest.fail "regressed horizon accepted");
  (* Promotion: term bumps, role flips, node accepts writes. *)
  Db.set_role replica (Db.Replica "old-primary");
  let old_term = Db.term replica in
  let new_term = Apply.promote apply in
  Alcotest.(check int) "term bumped" (old_term + 1) new_term;
  Alcotest.(check bool) "writable" true (Db.role replica = Db.Primary);
  exec_ok replica "NEW Eng <5000, 2>"

let test_apply_in_flight_txn_resolution () =
  (* A transaction open at the snapshot: its image-resident effects are
     scrubbed at bootstrap and re-applied only when its Commit arrives
     in the stream. *)
  let primary = Db.create () in
  (match Db.exec_script primary "CREATE CLASS Eng TUPLE (size Integer, cyl Integer)"
   with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "schema: %s" m);
  let txn = Db.begin_session_txn primary in
  (match Db.exec_in_txn primary txn "NEW Eng <1111, 6>" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "in-txn insert failed");
  let replica = Db.create () in
  let apply = Apply.create replica in
  Apply.install_snapshot apply (Primary.snapshot primary);
  Alcotest.(check (list (pair int string))) "uncommitted effect scrubbed" []
    (List.map (fun (s, v) -> (s, Value.to_string v)) (eng_contents replica));
  Alcotest.(check int) "txn re-buffered as pending" 1 (Apply.pending_txns apply);
  Db.commit_session_txn primary txn;
  (match
     Apply.apply_batch apply (Primary.batch primary ~after:(Apply.applied_lsn apply))
   with
  | `Applied -> ()
  | _ -> Alcotest.fail "commit batch refused");
  Alcotest.(check bool) "commit applied the buffer" true
    (eng_contents replica = eng_contents primary);
  Alcotest.(check int) "pending drained" 0 (Apply.pending_txns apply)

(* A replica's PAX segment is derived from its own heap: a snapshot
   install clears every extent, so the pages cached before it go, and
   each applied batch writes through the extent hook. After both, the
   vectorized scan answers what the row scan does and every page holds
   what a fresh build from the heap gives. The replica already has the
   schema, as a re-bootstrapped replica does, so its class is PAX too,
   and it holds more rows than the snapshot brings: the pages past the
   snapshot's last slot must go with the clear. *)
let test_apply_pax_pages_follow () =
  let schema = "CREATE CLASS Meter TUPLE (k Integer, tag String(8), w Float) LAYOUT PAX" in
  let primary = Db.create () in
  exec_ok primary schema;
  for k = 1 to 400 do
    exec_ok primary (Printf.sprintf "NEW Meter <%d, 't%d', %d.5>" k (k mod 3) (k mod 7))
  done;
  let replica = Db.create () in
  exec_ok replica schema;
  for k = 1 to 700 do
    exec_ok replica (Printf.sprintf "NEW Meter <%d, 'stale', 9.5>" k)
  done;
  exec_ok replica "SET SCAN_FORCE VECTOR";
  ignore (Db.query replica "SELECT COUNT(*) FROM Meter m");
  let apply = Apply.create replica in
  Apply.install_snapshot apply (Primary.snapshot primary);
  let queries =
    [ "SELECT m.k, m.tag, m.w FROM Meter m WHERE m.w > 5.0";
      "SELECT m.tag, COUNT(*), SUM(m.k) FROM Meter m GROUP BY m.tag";
      "SELECT COUNT(*) FROM Meter m WHERE m.tag = 'stale'"
    ]
  in
  let same_rows () =
    Alcotest.(check bool) "replica image = primary image" true
      (List.assoc "Meter" (Db.snapshot replica) = List.assoc "Meter" (Db.snapshot primary))
  in
  same_rows ();
  Helpers.pax_matches_heap replica ~cls:"Meter" queries;
  List.iter
    (fun writes ->
      List.iter (exec_ok primary) writes;
      match Apply.apply_batch apply (Primary.batch primary ~after:(Apply.applied_lsn apply)) with
      | `Applied ->
          same_rows ();
          Helpers.pax_matches_heap replica ~cls:"Meter" queries
      | _ -> Alcotest.fail "batch refused")
    [ [ "NEW Meter <401, 'late', 1.5>"; "UPDATE Meter m SET w = 9.5 WHERE m.k <= 40" ];
      [ "DELETE FROM Meter m WHERE m.k > 200 AND m.k <= 230" ];
      [ "UPDATE Meter m SET tag = 'moved' WHERE m.k > 350"; "NEW Meter <402, 'late', 2.5>" ]
    ]

(* ------------------------------------------------------------------ *)
(* Wire-level integration: primary + replica servers                   *)

let rec wait_for ?(tries = 400) label f =
  if f () then ()
  else if tries = 0 then Alcotest.failf "timed out waiting for %s" label
  else begin
    Thread.delay 0.01;
    wait_for ~tries:(tries - 1) label f
  end

let stat rows name = Option.value ~default:0 (List.assoc_opt name rows)

let test_server_replication_end_to_end () =
  let primary_db = Db.create () in
  seed_primary primary_db;
  let primary = Server.start ~config:Server.default_config primary_db in
  let pport = Option.get (Server.port primary) in
  let replica_db = Db.create () in
  let replica =
    Server.start
      ~config:
        { Server.default_config with
          Server.replica_of = Some (Printf.sprintf "127.0.0.1:%d" pport);
          poll_interval = 0.01
        }
      replica_db
  in
  let rport = Option.get (Server.port replica) in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown replica;
      Server.shutdown primary;
      (match Server.audit replica with
      | Ok () -> ()
      | Error m -> Alcotest.failf "replica leak audit: %s" m);
      match Server.audit primary with
      | Ok () -> ()
      | Error m -> Alcotest.failf "primary leak audit: %s" m)
    (fun () ->
      let pc = Client.connect ~port:pport () in
      let rc = Client.connect ~port:rport () in
      wait_for "bootstrap" (fun () -> stat (Client.stats rc) "repl.bootstraps" > 0);
      (* A committed primary write becomes readable on the replica. *)
      (match Client.exec pc "NEW Eng <7777, 77>" with
      | Wire.Ok_result _ -> ()
      | r -> Alcotest.failf "primary write refused: %s" (render r));
      wait_for "catch-up" (fun () ->
          let s = Client.stats rc in
          stat s "repl.lag_records" = 0 && stat s "repl.commits_applied" > 0);
      (match Client.query rc "SELECT e.size FROM Eng e WHERE e.cyl = 77" with
      | Wire.Rows [ row ] ->
          Alcotest.(check bool) "replica sees the write" true (contains row "7777")
      | r -> Alcotest.failf "replica read: %s" (render r));
      (* Writes on the replica redirect to the primary. *)
      (match Client.exec rc "NEW Eng <1, 1>" with
      | Wire.Redirect addr ->
          Alcotest.(check bool) "redirect names the primary" true
            (contains addr (string_of_int pport))
      | r -> Alcotest.failf "replica write: %s" (render r));
      (* Version handshake: a mismatched client is told both versions
         and the session ends. *)
      let raw = Client.connect ~handshake:false ~port:pport () in
      (match Client.request raw (Wire.Hello 99) with
      | Wire.Err m ->
          Alcotest.(check bool) "mismatch names both versions" true
            (contains m "99" && contains m (string_of_int Wire.protocol_version))
      | r -> Alcotest.failf "hello mismatch: %s" (render r));
      Client.close raw;
      (* Promote the replica; then fence the old primary at the new
         term and watch its writes redirect. *)
      (match Client.promote rc with
      | Wire.Ok_result m ->
          Alcotest.(check bool) "promotion reports term 2" true (contains m "term 2")
      | r -> Alcotest.failf "promote: %s" (render r));
      (match Client.exec rc "NEW Eng <6000, 20>" with
      | Wire.Ok_result _ -> ()
      | r -> Alcotest.failf "write after promotion: %s" (render r));
      (match Client.promote rc with
      | Wire.Ok_result m ->
          Alcotest.(check bool) "re-promotion is a no-op" true
            (contains m "already primary")
      | r -> Alcotest.failf "re-promote: %s" (render r));
      let new_primary = Printf.sprintf "127.0.0.1:%d" rport in
      (match Client.fence pc ~term:2 ~primary:new_primary with
      | Wire.Ok_result _ -> ()
      | r -> Alcotest.failf "fence: %s" (render r));
      (match Client.fence pc ~term:2 ~primary:new_primary with
      | Wire.Err m ->
          Alcotest.(check bool) "stale fence refused" true (contains m "not newer")
      | r -> Alcotest.failf "re-fence: %s" (render r));
      (match Client.exec pc "NEW Eng <2, 2>" with
      | Wire.Redirect addr ->
          Alcotest.(check string) "fenced primary redirects to the new one"
            new_primary addr
      | r -> Alcotest.failf "fenced write: %s" (render r));
      (* A fenced node refuses to serve the stream. *)
      (match Client.repl_pull pc ~term:2 ~after:0 with
      | Wire.Err m -> Alcotest.(check bool) "fenced pull" true (contains m "fenced")
      | r -> Alcotest.failf "fenced pull: %s" (render r));
      Client.quit pc;
      Client.quit rc)

(* ------------------------------------------------------------------ *)
(* Sim sweep                                                           *)

let test_sim_repl_clean_sweep () =
  let r = Test_sim.clean_sweep Harness.replication ~quota:60 ~base_seed:5000 in
  Test_sim.exercised r
    [ "commits";
      "applied on the replica";
      "replica crashes";
      "redeliveries";
      "bootstraps";
      "index checks"
    ]

let test_sim_repl_deterministic () =
  Test_sim.check_reproducible Harness.replication ~quota:1 ~base_seed:99

let test_sim_repl_detects_skipped_scrub () =
  (* Same seeds as the clean sweep, snapshots stripped of their
     in-flight transactions (so their effects stay in the installed
     image): the sweep must surface divergence. *)
  ignore (Test_sim.sabotaged_sweep Harness.replication ~quota:60 ~base_seed:5000)

let suites =
  [ ( "repl.codec",
      [ Alcotest.test_case "WAL record roundtrip" `Quick test_wal_record_roundtrip;
        Alcotest.test_case "WAL codec is defensive" `Quick test_wal_codec_defensive;
        Alcotest.test_case "u32 fields reject out-of-range values" `Quick test_u32_range;
        Alcotest.test_case "batch blob roundtrip" `Quick test_batch_roundtrip;
        Alcotest.test_case "snapshot blob roundtrip" `Quick test_snapshot_roundtrip;
        Alcotest.test_case "wire repl opcodes roundtrip" `Quick
          test_wire_repl_roundtrip
      ] );
    ( "repl.apply",
      [ Alcotest.test_case "double redo is idempotent" `Quick
          test_double_redo_idempotent;
        Alcotest.test_case "bootstrap, stream, promote" `Quick
          test_apply_bootstrap_and_stream;
        Alcotest.test_case "in-flight txn scrubbed then resolved" `Quick
          test_apply_in_flight_txn_resolution;
        Alcotest.test_case "PAX pages follow the applied stream" `Quick
          test_apply_pax_pages_follow
      ] );
    ( "repl.server",
      [ Alcotest.test_case "primary + replica end to end" `Quick
          test_server_replication_end_to_end
      ] );
    ( "repl.sim",
      [ Alcotest.test_case "60 seeded cycles converge" `Quick
          test_sim_repl_clean_sweep;
        Alcotest.test_case "cycles reproduce from seed" `Quick
          test_sim_repl_deterministic;
        Alcotest.test_case "skip-scrub sweep is caught" `Quick
          test_sim_repl_detects_skipped_scrub
      ] )
  ]
