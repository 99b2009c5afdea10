module Wal = Mood_storage.Wal

exception Codec_error of string

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
(* Writers                                                             *)

let put_u32 b n =
  if n < 0 || n > 0xFFFF_FFFF then invalid_arg (Printf.sprintf "Codec.put_u32: %d is not a u32" n);
  Buffer.add_int32_be b (Int32.of_int n)

(* 63-bit OCaml ints fit; microsecond timestamps need more than u32. *)
let put_u64 b n =
  if n < 0 then invalid_arg (Printf.sprintf "Codec.put_u64: %d is negative" n);
  Buffer.add_int64_be b (Int64.of_int n)

let put_str b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_list b xs f =
  put_u32 b (List.length xs);
  List.iter (f b) xs

let encode_batch batch =
  let b = Buffer.create 256 in
  Buffer.add_char b 'B';
  put_u32 b batch.b_term;
  put_u32 b batch.b_last_lsn;
  put_u64 b batch.b_sent_us;
  put_list b batch.b_records (fun b (lsn, r) ->
      put_u32 b lsn;
      put_str b (Wal.encode_record r));
  Buffer.contents b

let encode_snapshot snap =
  let b = Buffer.create 4096 in
  Buffer.add_char b 'S';
  put_u32 b snap.s_term;
  put_u32 b snap.s_lsn;
  put_str b snap.s_schema;
  put_list b snap.s_files (fun b (file, cls) ->
      put_u32 b file;
      put_str b cls);
  put_list b snap.s_classes (fun b (cls, objects) ->
      put_str b cls;
      put_list b objects (fun b (slot, value) ->
          put_u32 b slot;
          put_str b value));
  put_list b snap.s_active (fun b id -> put_u32 b id);
  put_list b snap.s_undo (fun b (txn, records) ->
      put_u32 b txn;
      put_list b records (fun b r -> put_str b (Wal.encode_record r)));
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Readers                                                             *)

let read_u32 s pos =
  if !pos + 4 > String.length s then raise (Codec_error "truncated u32");
  let v = Int32.to_int (String.get_int32_be s !pos) land 0xFFFF_FFFF in
  pos := !pos + 4;
  v

let read_u64 s pos =
  if !pos + 8 > String.length s then raise (Codec_error "truncated u64");
  let v = Int64.to_int (String.get_int64_be s !pos) in
  pos := !pos + 8;
  v

let read_str s pos =
  let len = read_u32 s pos in
  if !pos + len > String.length s then raise (Codec_error "truncated string");
  let v = String.sub s !pos len in
  pos := !pos + len;
  v

let read_list s pos f =
  let n = read_u32 s pos in
  (* Every element consumes at least one byte, so a count beyond the
     remaining length is corrupt — reject before allocating. *)
  if n > String.length s - !pos then raise (Codec_error "list count overflow");
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (f s pos :: acc) in
  go n []

let read_record s pos =
  let bytes = read_str s pos in
  try Wal.decode_record bytes with Wal.Codec_error m -> raise (Codec_error ("record: " ^ m))

let decode_batch s pos =
  let b_term = read_u32 s pos in
  let b_last_lsn = read_u32 s pos in
  let b_sent_us = read_u64 s pos in
  let b_records =
    read_list s pos (fun s pos ->
        let lsn = read_u32 s pos in
        (lsn, read_record s pos))
  in
  { b_term; b_last_lsn; b_sent_us; b_records }

let decode_snapshot s pos =
  let s_term = read_u32 s pos in
  let s_lsn = read_u32 s pos in
  let s_schema = read_str s pos in
  let s_files =
    read_list s pos (fun s pos ->
        let file = read_u32 s pos in
        (file, read_str s pos))
  in
  let s_classes =
    read_list s pos (fun s pos ->
        let cls = read_str s pos in
        let objects =
          read_list s pos (fun s pos ->
              let slot = read_u32 s pos in
              (slot, read_str s pos))
        in
        (cls, objects))
  in
  let s_active = read_list s pos read_u32 in
  let s_undo =
    read_list s pos (fun s pos ->
        let txn = read_u32 s pos in
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
