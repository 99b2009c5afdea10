(* Deterministic group-commit crash simulation.

   Each cycle runs a full Db.t through a seeded sequence of commit
   batches. A round opens several session transactions (one class per
   slot — New_object takes a class-level exclusive lock, so concurrent
   committers must not share one), inserts one unique value per
   transaction and commits them all through the nodurable half of
   group commit: Commit records appended, versions stamped, locks
   released, log NOT forced. The round then either resolves the way
   the server's log-writer would — one shared Wal.force_group covering
   the batch's highest ticket, after which every commit is
   acknowledged — or the fuse blows in the window that protocol opens:
   the crash lands between the batch enqueue and the shared fsync, the
   unpersisted tail (the whole batch) is lost and the ARIES-lite pass
   recovers the database in place.

   The oracle checks both directions of the contract after every crash
   and at end of cycle: every acknowledged value is present (the ACK
   never outran durability) and every value from a crashed batch is
   absent, now and forever (its Commit record died with the tail, so
   redo never sees it and undo compensates any persisted prefix of its
   operations). Surviving cycles keep committing after recovery, so
   accumulated history crosses several crashes.

   [sabotage] rigs the log-writer to acknowledge batches without
   forcing anything and blows the fuse at end of cycle — acknowledged
   commits die with the tail and the oracle must report lost-ACK
   violations, proving it has teeth. *)

module Prng = Mood_util.Prng
module Store = Mood_storage.Store
module Wal = Mood_storage.Wal
module Db = Mood.Db
module Executor = Mood_executor.Executor
module Value = Mood_model.Value

(* Enough classes for the widest batch: committer slot j writes Gc<j>. *)
let slots = 4

let cycle ~sabotage ~seed =
  let rng = Prng.create ~seed in
  let db = Db.create ~metrics_enabled:false () in
  for j = 0 to slots - 1 do
    match Db.exec db (Printf.sprintf "CREATE CLASS Gc%d TUPLE (n Integer)" j) with
    | Ok _ -> ()
    | Error m -> failwith ("group_commit sim: schema: " ^ m)
  done;
  let wal = Store.wal (Db.store db) in
  let rounds = 4 + Prng.int rng ~bound:4 in
  let next_n = ref 0 in
  let acked : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let lost : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let commits = ref 0 and acks = ref 0 and batches = ref 0 and crashes = ref 0 in
  let violations = ref [] in
  let last_crash = ref "none" in
  let violate fmt =
    Printf.ksprintf (fun m -> violations := m :: !violations) fmt
  in
  (* The recovered truth: every value present in any slot class. *)
  let visible () =
    let seen = Hashtbl.create 64 in
    for j = 0 to slots - 1 do
      Db.query db (Printf.sprintf "SELECT g.n FROM Gc%d g" j)
      |> Executor.result_values
      |> List.iter (function
           | Value.Tuple [ (_, Value.Int n) ] -> Hashtbl.replace seen n ()
           | _ -> ())
    done;
    seen
  in
  let check ~site =
    let seen = visible () in
    Hashtbl.iter
      (fun n () ->
        if not (Hashtbl.mem seen n) then
          violate "%s: ACKed commit n=%d lost" site n)
      acked;
    Hashtbl.iter
      (fun n () ->
        if Hashtbl.mem seen n then
          violate "%s: un-ACKed commit n=%d visible" site n)
      lost
  in
  let crash ~site =
    incr crashes;
    last_crash := site;
    ignore (Wal.lose_unpersisted wal);
    ignore (Db.recover db);
    check ~site
  in
  for round = 1 to rounds do
    let width = 1 + Prng.int rng ~bound:slots in
    (* Batch enqueue: every committer's logical commit lands before any
       force — exactly the state the log-writer sees when it wakes. *)
    let batch =
      List.init width (fun j ->
          let n = !next_n in
          incr next_n;
          let txn = Db.begin_session_txn db in
          (match
             Db.exec_in_txn db txn (Printf.sprintf "new Gc%d <%d>" j n)
           with
          | Ok _ -> ()
          | Error _ -> failwith "group_commit sim: insert refused");
          (n, Db.commit_session_txn_nodurable db txn))
    in
    commits := !commits + width;
    let target = List.fold_left (fun a (_, l) -> max a l) 0 batch in
    if (not sabotage) && Prng.int rng ~bound:10 < 3 then begin
      (* The fuse: batch enqueued, shared fsync never happens. Nothing
         was acknowledged, so every value must stay invisible. *)
      List.iter (fun (n, _) -> Hashtbl.replace lost n ()) batch;
      crash ~site:(Printf.sprintf "round %d: crash before shared force" round)
    end
    else begin
      (* The log-writer's turn — except under sabotage, where the ACK
         outruns durability on purpose. *)
      if not sabotage then begin
        if Wal.force_group wal target then incr batches;
        if not (Wal.covered wal target) then
          violate "round %d: force_group left ticket %d uncovered" round target;
        if Wal.persisted_last_lsn wal < target then
          violate "round %d: durable watermark %d behind ticket %d" round
            (Wal.persisted_last_lsn wal) target
      end;
      List.iter (fun (n, _) -> Hashtbl.replace acked n ()) batch;
      acks := !acks + width
    end
  done;
  if sabotage then
    crash ~site:"end of cycle: crash after unforced ACKs"
  else check ~site:"end of cycle";
  { Phase.seed;
    site = !last_crash;
    counts =
      [ ("rounds", rounds);
        ("commits", !commits);
        ("ACKed", !acks);
        ("shared forces", !batches);
        ("crashes", !crashes)
      ];
    violations = List.rev !violations
  }

let phase = { Phase.name = "group-commit"; cycle; caught = Phase.violated }
