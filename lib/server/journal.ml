module Db = Mood.Db
module Wal = Mood_storage.Wal
module Store = Mood_storage.Store

type t = {
  oc : out_channel;
  db : Db.t;
  mutable attached : bool;
}

(* [tag][u32 BE len][payload] *)
let write_entry oc tag payload =
  let n = String.length payload in
  if n > 0xFFFF_FFFF then invalid_arg "Journal.write_entry: payload longer than a u32";
  let hdr = Bytes.create 5 in
  Bytes.set hdr 0 tag;
  Bytes.set_int32_be hdr 1 (Int32.of_int n);
  output_bytes oc hdr;
  output_string oc payload

(* The heap-file map, rendered deterministically: replay verifies that
   re-executing the DDL assigned the same file ids the 'W' records
   reference (allocation order is deterministic, but a journal edited
   or mixed across databases must fail loudly, not corrupt silently). *)
let render_files db =
  String.concat ";"
    (List.map
       (fun (cls, file) -> Printf.sprintf "%s=%d" cls file)
       (List.sort compare (Db.class_files db)))

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)

(* Reads one entry; [None] at a clean EOF or a torn tail (the process
   died mid-write — the entry was never acknowledged, drop it). *)
let read_entry ic =
  match input_char ic with
  | exception End_of_file -> None
  | tag -> (
      let hdr = Bytes.create 4 in
      match really_input ic hdr 0 4 with
      | exception End_of_file -> None
      | () -> (
          let n = Int32.to_int (Bytes.get_int32_be hdr 0) land 0xFFFF_FFFF in
          let payload = Bytes.create n in
          match really_input ic payload 0 n with
          | exception End_of_file -> None
          | () -> Some (tag, Bytes.to_string payload)))

let replay ~path db =
  if not (Sys.file_exists path) then (0, 0)
  else begin
    let wal = Store.wal (Db.store db) in
    let ddl = ref 0 and recs = ref 0 in
    In_channel.with_open_bin path (fun ic ->
        let rec loop () =
          match read_entry ic with
          | None -> ()
          | Some ('S', src) -> (
              incr ddl;
              match Db.exec db src with
              | Ok _ -> loop ()
              | Error m ->
                  failwith
                    (Printf.sprintf "journal replay: DDL failed (%s): %s" m src))
          | Some ('F', expected) ->
              let actual = render_files db in
              if actual <> expected then
                failwith
                  (Printf.sprintf
                     "journal replay: heap-file map diverged (journal %s, \
                      database %s)"
                     expected actual);
              loop ()
          | Some ('W', payload) ->
              incr recs;
              ignore (Wal.append wal (Wal.decode_record payload));
              loop ()
          | Some (tag, _) ->
              failwith (Printf.sprintf "journal replay: unknown tag %C" tag)
        in
        loop ());
    (* Force the re-appended log and rebuild the image from it: with no
       checkpoint in the journal the recovery pass redoes every
       committed (and in-doubt) transaction from an empty base, and
       re-registers the in-doubt ones as prepared. *)
    Wal.flush wal;
    ignore (Db.recover db);
    (!ddl, !recs)
  end

(* ------------------------------------------------------------------ *)
(* Capture                                                             *)

let attach ~path db =
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  let t = { oc; db; attached = true } in
  let wal = Store.wal (Db.store db) in
  let fsync () = Unix.fsync (Unix.descr_of_out_channel t.oc) in
  (* Per-record persist hook: the kernel only moves its durability
     watermark past records this hook accepted, so journal order is
     exactly durable-log order. Checkpoints are skipped — the journal
     carries no base image to pair them with; replay redoes from
     scratch instead. The flush pushes bytes to the OS; the batch-end
     [sync] fsyncs them, so a log force survives an OS crash — a
     PREPARE vote or commit is a promise to the coordinator, and the
     page cache is not durable enough to keep it. *)
  Wal.set_persist_hook wal ~sync:fsync (fun record ->
      match record with
      | Wal.Checkpoint _ -> ()
      | r ->
          write_entry t.oc 'W' (Wal.encode_record r);
          flush t.oc);
  Db.set_ddl_hook db
    (Some
       (fun src ->
         write_entry t.oc 'S' src;
         write_entry t.oc 'F' (render_files db);
         flush t.oc;
         fsync ()));
  t

let detach t =
  if t.attached then begin
    t.attached <- false;
    Wal.clear_persist_hook (Store.wal (Db.store t.db));
    Db.set_ddl_hook t.db None;
    close_out_noerr t.oc
  end
