module Wal = Mood_storage.Wal

exception Codec_error = Wal.Codec_error

type batch = {
  b_term : int;
  b_last_lsn : int;
  b_sent_us : int;
  b_records : (int * Wal.record) list;
}

type snapshot = {
  s_term : int;
  s_lsn : int;
  s_schema : string;
  s_files : (int * string) list;
  s_classes : (string * (int * string) list) list;
  s_active : int list;
  s_undo : (int * Wal.record list) list;
}

type payload = Batch of batch | Snapshot of snapshot

(* ------------------------------------------------------------------ *)
(* Writers: the WAL's u32 and string primitives, plus u64 and lists.   *)

(* 63-bit OCaml ints fit; microsecond timestamps need more than u32. *)
let put_u64 b n =
  if n < 0 then invalid_arg (Printf.sprintf "Codec.put_u64: %d is negative" n);
  Buffer.add_int64_be b (Int64.of_int n)

let put_list b xs f =
  Wal.buf_u32 b (List.length xs);
  List.iter (f b) xs

let encode_batch batch =
  let b = Buffer.create 256 in
  Buffer.add_char b 'B';
  Wal.buf_u32 b batch.b_term;
  Wal.buf_u32 b batch.b_last_lsn;
  put_u64 b batch.b_sent_us;
  put_list b batch.b_records (fun b (lsn, r) ->
      Wal.buf_u32 b lsn;
      Wal.buf_str b (Wal.encode_record r));
  Buffer.contents b

let encode_snapshot snap =
  let b = Buffer.create 4096 in
  Buffer.add_char b 'S';
  Wal.buf_u32 b snap.s_term;
  Wal.buf_u32 b snap.s_lsn;
  Wal.buf_str b snap.s_schema;
  put_list b snap.s_files (fun b (file, cls) ->
      Wal.buf_u32 b file;
      Wal.buf_str b cls);
  put_list b snap.s_classes (fun b (cls, objects) ->
      Wal.buf_str b cls;
      put_list b objects (fun b (slot, value) ->
          Wal.buf_u32 b slot;
          Wal.buf_str b value));
  put_list b snap.s_active Wal.buf_u32;
  put_list b snap.s_undo (fun b (txn, records) ->
      Wal.buf_u32 b txn;
      put_list b records (fun b r -> Wal.buf_str b (Wal.encode_record r)));
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Readers                                                             *)

let read_u64 s pos =
  if !pos + 8 > String.length s then raise (Codec_error "truncated u64");
  let v = Int64.to_int (String.get_int64_be s !pos) in
  pos := !pos + 8;
  v

let read_list s pos f =
  let n = Wal.read_u32 s pos in
  (* Every element consumes at least one byte, so a count beyond the
     remaining length is corrupt — reject before allocating. *)
  if n > String.length s - !pos then raise (Codec_error "list count overflow");
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (f s pos :: acc) in
  go n []

let read_record s pos = Wal.decode_record (Wal.read_str s pos)

let decode_batch s pos =
  let b_term = Wal.read_u32 s pos in
  let b_last_lsn = Wal.read_u32 s pos in
  let b_sent_us = read_u64 s pos in
  let b_records =
    read_list s pos (fun s pos ->
        let lsn = Wal.read_u32 s pos in
        (lsn, read_record s pos))
  in
  { b_term; b_last_lsn; b_sent_us; b_records }

let decode_snapshot s pos =
  let s_term = Wal.read_u32 s pos in
  let s_lsn = Wal.read_u32 s pos in
  let s_schema = Wal.read_str s pos in
  let s_files =
    read_list s pos (fun s pos ->
        let file = Wal.read_u32 s pos in
        (file, Wal.read_str s pos))
  in
  let s_classes =
    read_list s pos (fun s pos ->
        let cls = Wal.read_str s pos in
        let objects =
          read_list s pos (fun s pos ->
              let slot = Wal.read_u32 s pos in
              (slot, Wal.read_str s pos))
        in
        (cls, objects))
  in
  let s_active = read_list s pos Wal.read_u32 in
  let s_undo =
    read_list s pos (fun s pos ->
        let txn = Wal.read_u32 s pos in
        (txn, read_list s pos read_record))
  in
  { s_term; s_lsn; s_schema; s_files; s_classes; s_active; s_undo }

let decode s =
  if String.length s = 0 then raise (Codec_error "empty blob");
  let pos = ref 1 in
  let payload =
    match s.[0] with
    | 'B' -> Batch (decode_batch s pos)
    | 'S' -> Snapshot (decode_snapshot s pos)
    | c -> raise (Codec_error (Printf.sprintf "unknown blob tag %C" c))
  in
  if !pos <> String.length s then raise (Codec_error "trailing bytes after blob");
  payload
