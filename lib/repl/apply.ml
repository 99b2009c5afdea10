module Db = Mood.Db
module Wal = Mood_storage.Wal
module Catalog = Mood_catalog.Catalog
module Vcodec = Mood_model.Codec

type t = {
  db : Db.t;
  translate : (int, int) Hashtbl.t;  (* primary heap-file id -> local *)
  pending : (int, Wal.record list) Hashtbl.t;  (* txn -> records, newest first *)
  mutable cursor : int;
  mutable term : int;
  mutable horizon : int;
  mutable commits : int;
  mutable applied : int;
  mutable commit_batches : int;
  mutable bootstraps : int;
  mutable last_sent_us : int;
}

let create db =
  { db;
    translate = Hashtbl.create 16;
    pending = Hashtbl.create 16;
    cursor = 0;
    term = Db.term db;
    horizon = 0;
    commits = 0;
    applied = 0;
    commit_batches = 0;
    bootstraps = 0;
    last_sent_us = 0
  }

let applied_lsn t = t.cursor
let horizon t = t.horizon
let lag_records t = max 0 (t.horizon - t.cursor)
let term t = t.term
let pending_txns t = Hashtbl.length t.pending
let commits_applied t = t.commits
let records_applied t = t.applied
let bootstraps t = t.bootstraps
let last_batch_sent_us t = t.last_sent_us

(* Unknown file ids translate to -1: [Catalog.put_image] finds no
   extent and skips the record (a class this replica does not know
   about). *)
let tr t file = Option.value ~default:(-1) (Hashtbl.find_opt t.translate file)

let translate_record t = function
  | Wal.Insert r -> Wal.Insert { r with file = tr t r.file }
  | Wal.Delete r -> Wal.Delete { r with file = tr t r.file }
  | Wal.Update r -> Wal.Update { r with file = tr t r.file }
  | (Wal.Begin _ | Wal.Commit _ | Wal.Abort _ | Wal.Checkpoint _ | Wal.Prepare _ | Wal.Decision _) as r -> r

let adopt_term t term =
  if term > t.term then begin
    t.term <- term;
    if term > Db.term t.db then Db.set_term t.db term
  end

let has_user_classes db =
  List.exists
    (fun (cls, _) -> not (List.mem cls Catalog.system_class_names))
    (Db.class_files db)

(* ------------------------------------------------------------------ *)
(* Bootstrap                                                           *)

let install_snapshot t (snap : Codec.snapshot) =
  (* The schema script is DDL, which read-only routing refuses on a
     replica — flip the role only for its duration. The caller holds
     the kernel lock, so no client statement can interleave. *)
  if not (has_user_classes t.db) then begin
    let prev = Db.role t.db in
    Db.set_role t.db Db.Primary;
    Fun.protect
      ~finally:(fun () -> Db.set_role t.db prev)
      (fun () ->
        match Db.exec_script t.db snap.Codec.s_schema with
        | Ok _ -> ()
        | Error m -> failwith ("replica bootstrap: schema script failed: " ^ m))
  end;
  (* Both sides name classes; file ids are node-local. *)
  let local = Db.class_files t.db in
  Hashtbl.reset t.translate;
  List.iter
    (fun (primary_file, cls) ->
      match List.assoc_opt cls local with
      | Some local_file -> Hashtbl.replace t.translate primary_file local_file
      | None -> failwith ("replica bootstrap: snapshot names unknown class " ^ cls))
    snap.Codec.s_files;
  let contents =
    List.map
      (fun (cls, objects) ->
        (cls, List.map (fun (slot, bytes) -> (slot, Vcodec.decode bytes)) objects))
      snap.Codec.s_classes
  in
  Db.install_contents t.db contents;
  (* The sharp image contains the effects of transactions that were in
     flight at the checkpoint. Scrub them (newest first) and re-buffer
     their records: their Commit or Abort arrives in the stream and
     resolves them exactly once. *)
  Hashtbl.reset t.pending;
  Db.without_version_tracking t.db (fun () ->
      List.iter
        (fun (txn, records) ->
          List.iter
            (fun r ->
              Catalog.put_image (Db.catalog t.db) ~reindex:false Catalog.Before
                (translate_record t r))
            (List.rev records);
          Hashtbl.replace t.pending txn (List.rev records))
        snap.Codec.s_undo);
  (* The installed image is the primary's state as of the snapshot LSN:
     align the commit clock so replica snapshots report primary LSNs. *)
  Db.bump_commit_stamp t.db snap.Codec.s_lsn;
  Catalog.rebuild_indexes (Db.catalog t.db);
  Db.analyze t.db;
  t.cursor <- snap.Codec.s_lsn;
  t.horizon <- max t.horizon snap.Codec.s_lsn;
  adopt_term t snap.Codec.s_term;
  t.bootstraps <- t.bootstraps + 1

(* ------------------------------------------------------------------ *)
(* Streaming                                                           *)

let buffer_data t txn r =
  let sofar = Option.value ~default:[] (Hashtbl.find_opt t.pending txn) in
  Hashtbl.replace t.pending txn (r :: sofar)

let process t ~committed ~lsn = function
  | Wal.Begin txn ->
      if not (Hashtbl.mem t.pending txn) then Hashtbl.replace t.pending txn []
  | Wal.Commit txn -> (
      match Hashtbl.find_opt t.pending txn with
      | None -> () (* read-only, or a class set this replica skips *)
      | Some records ->
          (* The batch applies as one MVCC unit stamped with the
             primary's commit LSN: replica snapshot reads are
             consistent-as-of-applied_lsn and report primary LSNs. *)
          (* [records] is newest-first; [rev_map] restores log order. *)
          Db.apply_committed t.db ~lsn (List.rev_map (translate_record t) records);
          t.applied <- t.applied + List.length records;
          t.commits <- t.commits + 1;
          if records <> [] then committed := true;
          Hashtbl.remove t.pending txn)
  | Wal.Abort txn -> Hashtbl.remove t.pending txn
  | (Wal.Insert { txn; _ } | Wal.Delete { txn; _ } | Wal.Update { txn; _ }) as r ->
      buffer_data t txn r
  | Wal.Checkpoint _ | Wal.Prepare _ | Wal.Decision _ -> ()

let apply_batch t (b : Codec.batch) =
  if b.Codec.b_term < t.term then `Stale_primary b.Codec.b_term
  else if b.Codec.b_last_lsn < t.cursor then
    (* A durable horizon behind our cursor means the peer's log is not
       the one we streamed from (a restarted primary) — only a fresh
       bootstrap can resynchronize. *)
    `Primary_regressed
  else begin
    adopt_term t b.Codec.b_term;
    t.horizon <- max t.horizon b.Codec.b_last_lsn;
    if b.Codec.b_sent_us > 0 then t.last_sent_us <- b.Codec.b_sent_us;
    let committed = ref false in
    List.iter
      (fun (lsn, r) ->
        (* Records at or below the cursor were already processed — a
           retried pull after a torn connection re-delivers them. *)
        if lsn > t.cursor then begin
          process t ~committed ~lsn r;
          t.cursor <- lsn
        end)
      b.Codec.b_records;
    if !committed then begin
      Catalog.rebuild_indexes (Db.catalog t.db);
      t.commit_batches <- t.commit_batches + 1;
      (* Statistics drift slowly; refresh them on a cadence rather than
         per batch. *)
      if t.commit_batches mod 16 = 0 then Db.analyze t.db
    end;
    `Applied
  end

(* ------------------------------------------------------------------ *)
(* Promotion                                                           *)

let promote t =
  (* Undo-of-losers, apply-on-commit style: pending transactions never
     touched the image, so dropping their buffers IS the undo pass. *)
  Hashtbl.reset t.pending;
  Catalog.rebuild_indexes (Db.catalog t.db);
  Db.analyze t.db;
  let new_term = t.term + 1 in
  t.term <- new_term;
  if new_term > Db.term t.db then Db.set_term t.db new_term;
  Db.set_role t.db Db.Primary;
  new_term
