type lsn = int

type record =
  | Begin of int
  | Commit of int
  | Abort of int
  | Insert of { txn : int; file : int; rid : Heap_file.rid; payload : string }
  | Delete of { txn : int; file : int; rid : Heap_file.rid; before : string }
  | Update of { txn : int; file : int; rid : Heap_file.rid; before : string; after : string }
  | Checkpoint of int list
  | Prepare of { txn : int; gid : int }
  | Decision of { gid : int; commit : bool }

type t = {
  mutable log : (lsn * record) list; (* newest first *)
  mutable count : int;
  mutable persisted : int;
  mutable next_lsn : lsn;
  mutable on_persist : (record -> unit) option;
  mutable on_sync : (unit -> unit) option;
  mutable forces : int; (* flush calls — each is a log force *)
}

let create () =
  { log = [];
    count = 0;
    persisted = 0;
    next_lsn = 1;
    on_persist = None;
    on_sync = None;
    forces = 0
  }

let append t record =
  let lsn = t.next_lsn in
  t.next_lsn <- lsn + 1;
  t.log <- (lsn, record) :: t.log;
  t.count <- t.count + 1;
  lsn

let set_persist_hook t ?sync hook =
  t.on_persist <- Some hook;
  t.on_sync <- sync

let clear_persist_hook t =
  t.on_persist <- None;
  t.on_sync <- None

let rec drop n l = if n = 0 then l else match l with [] -> [] | _ :: rest -> drop (n - 1) rest

(* The [n] newest entries of a newest-first log, oldest first: walks
   only those [n], however long the log. *)
let newest n log =
  let rec take n acc = function
    | entry :: rest when n > 0 -> take (n - 1) (entry :: acc) rest
    | _ -> acc
  in
  take n [] log

let flush t =
  t.forces <- t.forces + 1;
  match t.on_persist with
  | None -> t.persisted <- t.count
  | Some hook ->
      (* Persist record by record, oldest first, advancing the watermark
         only after the device accepted the write: a crash raised by the
         hook leaves a correctly truncated (torn) log tail. *)
      let unpersisted = newest (t.count - t.persisted) t.log in
      List.iter
        (fun (_, record) ->
          hook record;
          t.persisted <- t.persisted + 1)
        unpersisted;
      (* One sync per force, after the whole batch reached the hook:
         a durability claim (the flush returning) must not outrun the
         device. *)
      if unpersisted <> [] then Option.iter (fun f -> f ()) t.on_sync

let forces t = t.forces

(* ------------------------------------------------------------------ *)
(* Group commit: a committer takes a ticket (the LSN its durability
   claim depends on — its own Commit record) and a log-writer forces
   once for every ticket issued during the previous force. [covered]
   is the release test; [force_group] skips the device entirely when a
   concurrent force already carried the ticket past the watermark. *)

let ticket t = t.next_lsn - 1

let covered t tk =
  tk <= (match drop (t.count - t.persisted) t.log with
        | [] -> 0
        | (lsn, _) :: _ -> lsn)

let force_group t tk =
  if covered t tk then false
  else begin
    flush t;
    true
  end

let lose_unpersisted t =
  let lost = t.count - t.persisted in
  if lost > 0 then begin
    t.log <- drop lost t.log;
    t.count <- t.persisted
  end;
  lost

let records t = List.rev_map snd t.log

let records_with_lsn t = List.rev t.log

let persisted_records t =
  List.rev (drop (t.count - t.persisted) t.log)

let persisted_last_lsn t =
  match drop (t.count - t.persisted) t.log with
  | [] -> 0
  | (lsn, _) :: _ -> lsn

let persisted_after t after =
  let rec take acc = function
    | (lsn, r) :: rest when lsn > after -> take ((lsn, r) :: acc) rest
    | _ -> acc
  in
  (* The log is newest-first; everything above [after] in the durable
     prefix is a contiguous head of that prefix, so one scan suffices
     and the accumulator comes out oldest-first. *)
  take [] (drop (t.count - t.persisted) t.log)

let length t = t.count

let last_lsn t = t.next_lsn - 1

let txn_of = function
  | Begin id | Commit id | Abort id -> Some id
  | Insert { txn; _ } | Delete { txn; _ } | Update { txn; _ } -> Some txn
  | Prepare { txn; _ } -> Some txn
  | Checkpoint _ | Decision _ -> None

let is_data = function Insert _ | Delete _ | Update _ -> true | _ -> false

let committed_set records =
  let committed = Hashtbl.create 16 in
  List.iter
    (fun (_, record) ->
      match record with Commit id -> Hashtbl.replace committed id () | _ -> ())
    records;
  committed

let commit_persisted t txn =
  List.exists (fun (_, r) -> r = Commit txn) (persisted_records t)

let last_checkpoint t =
  (* Newest-first scan of the persisted prefix. *)
  let unpersisted = t.count - t.persisted in
  let rec find = function
    | [] -> None
    | (lsn, Checkpoint active) :: _ -> Some (lsn, active)
    | _ :: rest -> find rest
  in
  find (drop unpersisted t.log)

type analysis = {
  a_checkpoint_lsn : lsn;
  a_checkpoint_active : int list;
  a_committed : (int, unit) Hashtbl.t;
  a_losers : (int, unit) Hashtbl.t;
  a_indoubt : (int, int) Hashtbl.t;
}

let decisions t =
  List.filter_map
    (fun (_, r) ->
      match r with Decision { gid; commit } -> Some (gid, commit) | _ -> None)
    (persisted_records t)

let analyze ?checkpoint_lsn t =
  let plist = persisted_records t in
  let committed = committed_set plist in
  let cp_lsn, cp_active =
    match checkpoint_lsn with
    | Some l ->
        let active =
          List.find_map
            (fun (lsn, r) ->
              match r with Checkpoint a when lsn = l -> Some a | _ -> None)
            plist
        in
        (l, Option.value ~default:[] active)
    | None -> (
        match last_checkpoint t with Some (l, a) -> (l, a) | None -> (0, []))
  in
  (* A loser is a transaction whose effects are baked into the
     checkpoint base image (data records at or before the checkpoint)
     but which neither committed nor finished aborting before the
     image was taken. Aborts before the checkpoint were compensated in
     place, so the image is already clean of them. *)
  let aborted_before_cp = Hashtbl.create 8 in
  List.iter
    (fun (lsn, r) ->
      match r with
      | Abort id when lsn <= cp_lsn -> Hashtbl.replace aborted_before_cp id ()
      | _ -> ())
    plist;
  (* In-doubt: a durable Prepare with no durable Commit/Abort resolving
     it. The transaction's fate belongs to the 2PC coordinator now —
     its effects must survive recovery intact (neither undone as a
     loser nor dropped from redo) until a decision arrives. *)
  let aborted = Hashtbl.create 8 in
  List.iter
    (fun (_, r) -> match r with Abort id -> Hashtbl.replace aborted id () | _ -> ())
    plist;
  let indoubt = Hashtbl.create 8 in
  List.iter
    (fun (_, r) ->
      match r with
      | Prepare { txn; gid }
        when (not (Hashtbl.mem committed txn)) && not (Hashtbl.mem aborted txn) ->
          Hashtbl.replace indoubt txn gid
      | _ -> ())
    plist;
  let losers = Hashtbl.create 8 in
  List.iter
    (fun (lsn, r) ->
      match txn_of r with
      | Some id
        when is_data r && lsn <= cp_lsn
             && (not (Hashtbl.mem committed id))
             && (not (Hashtbl.mem aborted_before_cp id))
             && not (Hashtbl.mem indoubt id) ->
          Hashtbl.replace losers id ()
      | _ -> ())
    plist;
  { a_checkpoint_lsn = cp_lsn;
    a_checkpoint_active = cp_active;
    a_committed = committed;
    a_losers = losers;
    a_indoubt = indoubt
  }

let recover ?checkpoint_lsn ?(redo = fun _ -> ()) ?(undo = fun _ -> ()) t =
  let a = analyze ?checkpoint_lsn t in
  let plist = persisted_records t in
  (* Undo-of-losers first: scrub uncommitted effects out of the base
     image (newest first, so compensations see the state their
     operation produced)... *)
  List.iter
    (fun (lsn, r) ->
      match txn_of r with
      | Some id when is_data r && lsn <= a.a_checkpoint_lsn && Hashtbl.mem a.a_losers id
        ->
          undo r
      | _ -> ())
    (List.rev plist);
  (* ...then redo-of-committed after the checkpoint, in log order. With
     strict two-phase locking no loser and winner interleave on one
     object, so the selective redo replays exactly history's surviving
     suffix. *)
  List.iter
    (fun (lsn, r) ->
      match txn_of r with
      | Some id
        when is_data r && lsn > a.a_checkpoint_lsn
             && (Hashtbl.mem a.a_committed id || Hashtbl.mem a.a_indoubt id) ->
          redo r
      | _ -> ())
    plist;
  a

let undo_records t txn =
  List.filter_map
    (fun (_, record) ->
      if is_data record && txn_of record = Some txn then Some record else None)
    t.log

(* ------------------------------------------------------------------ *)
(* Binary record codec — the unit of replication shipping. Tag byte
   per variant, u32 big-endian integers, u32-length-prefixed strings:
   the same framing discipline as the wire protocol, kept here so the
   log layer owns its own serialization. The replication codec builds
   its payloads from the same primitives. *)

let buf_u32 b n =
  if n < 0 || n > 0xFFFF_FFFF then invalid_arg (Printf.sprintf "Wal.buf_u32: %d is not a u32" n);
  Buffer.add_int32_be b (Int32.of_int n)

let buf_str b s =
  buf_u32 b (String.length s);
  Buffer.add_string b s

let encode_record record =
  let b = Buffer.create 48 in
  (match record with
  | Begin id ->
      Buffer.add_char b 'B';
      buf_u32 b id
  | Commit id ->
      Buffer.add_char b 'C';
      buf_u32 b id
  | Abort id ->
      Buffer.add_char b 'A';
      buf_u32 b id
  | Insert { txn; file; rid; payload } ->
      Buffer.add_char b 'I';
      buf_u32 b txn;
      buf_u32 b file;
      buf_u32 b rid.Heap_file.page;
      buf_u32 b rid.Heap_file.slot;
      buf_str b payload
  | Delete { txn; file; rid; before } ->
      Buffer.add_char b 'D';
      buf_u32 b txn;
      buf_u32 b file;
      buf_u32 b rid.Heap_file.page;
      buf_u32 b rid.Heap_file.slot;
      buf_str b before
  | Update { txn; file; rid; before; after } ->
      Buffer.add_char b 'U';
      buf_u32 b txn;
      buf_u32 b file;
      buf_u32 b rid.Heap_file.page;
      buf_u32 b rid.Heap_file.slot;
      buf_str b before;
      buf_str b after
  | Checkpoint active ->
      Buffer.add_char b 'K';
      buf_u32 b (List.length active);
      List.iter (fun id -> buf_u32 b id) active
  | Prepare { txn; gid } ->
      Buffer.add_char b 'P';
      buf_u32 b txn;
      buf_u32 b gid
  | Decision { gid; commit } ->
      Buffer.add_char b 'G';
      buf_u32 b gid;
      Buffer.add_char b (if commit then 'C' else 'A'));
  Buffer.contents b

exception Codec_error of string

(* A cursor-threaded reader: every read checks bounds so a truncated
   or corrupted blob fails with [Codec_error], never [Invalid_argument]
   from a raw [String.get]. *)
let read_u32 s pos =
  if !pos + 4 > String.length s then raise (Codec_error "truncated u32");
  let v = Int32.to_int (String.get_int32_be s !pos) land 0xFFFF_FFFF in
  pos := !pos + 4;
  v

let read_str s pos =
  let len = read_u32 s pos in
  if !pos + len > String.length s then raise (Codec_error "truncated string");
  let v = String.sub s !pos len in
  pos := !pos + len;
  v

let decode_record_at s pos =
  if !pos >= String.length s then raise (Codec_error "empty record");
  let tag = s.[!pos] in
  incr pos;
  match tag with
  | 'B' -> Begin (read_u32 s pos)
  | 'C' -> Commit (read_u32 s pos)
  | 'A' -> Abort (read_u32 s pos)
  | 'I' ->
      let txn = read_u32 s pos in
      let file = read_u32 s pos in
      let page = read_u32 s pos in
      let slot = read_u32 s pos in
      let payload = read_str s pos in
      Insert { txn; file; rid = { Heap_file.page; slot }; payload }
  | 'D' ->
      let txn = read_u32 s pos in
      let file = read_u32 s pos in
      let page = read_u32 s pos in
      let slot = read_u32 s pos in
      let before = read_str s pos in
      Delete { txn; file; rid = { Heap_file.page; slot }; before }
  | 'U' ->
      let txn = read_u32 s pos in
      let file = read_u32 s pos in
      let page = read_u32 s pos in
      let slot = read_u32 s pos in
      let before = read_str s pos in
      let after = read_str s pos in
      Update { txn; file; rid = { Heap_file.page; slot }; before; after }
  | 'P' ->
      let txn = read_u32 s pos in
      let gid = read_u32 s pos in
      Prepare { txn; gid }
  | 'G' ->
      let gid = read_u32 s pos in
      if !pos >= String.length s then raise (Codec_error "truncated decision");
      let commit =
        match s.[!pos] with
        | 'C' -> true
        | 'A' -> false
        | c -> raise (Codec_error (Printf.sprintf "bad decision verdict %C" c))
      in
      incr pos;
      Decision { gid; commit }
  | 'K' ->
      let n = read_u32 s pos in
      if n > String.length s then raise (Codec_error "checkpoint count overflow");
      let rec ids k acc = if k = 0 then List.rev acc else ids (k - 1) (read_u32 s pos :: acc) in
      Checkpoint (ids n [])
  | c -> raise (Codec_error (Printf.sprintf "unknown record tag %C" c))

let decode_record s =
  let pos = ref 0 in
  let r = decode_record_at s pos in
  if !pos <> String.length s then raise (Codec_error "trailing bytes after record");
  r
