module Db = Mood.Db
module Wal = Mood_storage.Wal
module Store = Mood_storage.Store
module Vcodec = Mood_model.Codec

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

let snapshot db =
  Db.checkpoint db;
  let wal = Store.wal (Db.store db) in
  let active = Db.active_transactions db in
  { Codec.s_term = Db.term db;
    (* The checkpoint just forced the log, so the durable horizon IS
       the checkpoint record's LSN: the image reflects everything at or
       below it, streaming resumes strictly after it. *)
    s_lsn = Wal.persisted_last_lsn wal;
    s_schema = Db.dump_schema db;
    s_files = List.map (fun (cls, file) -> (file, cls)) (Db.class_files db);
    s_classes =
      List.map
        (fun (cls, objects) ->
          (cls, List.map (fun (slot, v) -> (slot, Vcodec.encode v)) objects))
        (Db.snapshot db);
    s_active = active;
    (* [undo_records] is newest first; the replica wants log order. *)
    s_undo = List.map (fun txn -> (txn, List.rev (Wal.undo_records wal txn))) active
  }

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let batch ?(max_records = 1024) db ~after =
  let wal = Store.wal (Db.store db) in
  { Codec.b_term = Db.term db;
    b_last_lsn = Wal.persisted_last_lsn wal;
    b_sent_us = now_us ();
    b_records = take max_records (Wal.persisted_after wal after)
  }
