exception Protocol_error of string

(* v2 adds the sharding surface: PREPARE/DECIDE/SHARD_MAP requests, the
   WRONG_SHARD response, and a HELLO reply that carries role and term.
   The handshake is an exact-match check, so a v1 client against a
   shard-aware server is refused at HELLO with the version-mismatch
   error and the session ends. *)
let protocol_version = 2

type request =
  | Query of string
  | Exec of string
  | Begin
  | Commit
  | Abort
  | Stats
  | Ping
  | Quit
  | Hello of int
  | Repl_snapshot
  | Repl_pull of { term : int; after : int }
  | Promote
  | Fence of { term : int; primary : string }
  | Prepare of int
  | Decide of { d_gid : int; d_commit : bool }
  | Shard_map of { sm_version : int; sm_self : int; sm_shards : string list }

type response =
  | Ok_result of string
  | Rows of string list
  | Err of string
  | Aborted of string
  | Busy of string
  | Pong
  | Bye
  | Redirect of string
  | Blob of string
  | Wrong_shard of { ws_shard : int; ws_addr : string }

let max_frame = 4 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Payload encoding                                                    *)

let put_u32 buf n =
  if n < 0 || n > 0xFFFF_FFFF then invalid_arg (Printf.sprintf "Wire.put_u32: %d is not a u32" n);
  Buffer.add_int32_be buf (Int32.of_int n)

let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFF_FFFF

(* One frame = u32 payload length + payload ('opcode byte' + body). *)
let frame payload_writer =
  let payload = Buffer.create 64 in
  payload_writer payload;
  let out = Buffer.create (Buffer.length payload + 4) in
  put_u32 out (Buffer.length payload);
  Buffer.add_buffer out payload;
  Buffer.to_bytes out

let encode_request req =
  frame (fun buf ->
      match req with
      | Query sql ->
          Buffer.add_char buf 'Q';
          Buffer.add_string buf sql
      | Exec sql ->
          Buffer.add_char buf 'E';
          Buffer.add_string buf sql
      | Begin -> Buffer.add_char buf 'B'
      | Commit -> Buffer.add_char buf 'C'
      | Abort -> Buffer.add_char buf 'A'
      | Stats -> Buffer.add_char buf 'S'
      | Ping -> Buffer.add_char buf 'P'
      | Quit -> Buffer.add_char buf 'X'
      | Hello version ->
          Buffer.add_char buf 'H';
          Buffer.add_char buf (Char.chr (version land 0xff))
      | Repl_snapshot -> Buffer.add_char buf 'N'
      | Repl_pull { term; after } ->
          Buffer.add_char buf 'L';
          put_u32 buf term;
          put_u32 buf after
      | Promote -> Buffer.add_char buf 'M'
      | Fence { term; primary } ->
          Buffer.add_char buf 'F';
          put_u32 buf term;
          Buffer.add_string buf primary
      | Prepare gid ->
          Buffer.add_char buf 'R';
          put_u32 buf gid
      | Decide { d_gid; d_commit } ->
          Buffer.add_char buf 'D';
          put_u32 buf d_gid;
          Buffer.add_char buf (if d_commit then 'C' else 'A')
      | Shard_map { sm_version; sm_self; sm_shards } ->
          Buffer.add_char buf 'T';
          put_u32 buf sm_version;
          put_u32 buf sm_self;
          put_u32 buf (List.length sm_shards);
          List.iter
            (fun addr ->
              put_u32 buf (String.length addr);
              Buffer.add_string buf addr)
            sm_shards)

let encode_response resp =
  frame (fun buf ->
      match resp with
      | Ok_result m ->
          Buffer.add_char buf 'K';
          Buffer.add_string buf m
      | Rows rows ->
          Buffer.add_char buf 'R';
          put_u32 buf (List.length rows);
          List.iter
            (fun row ->
              put_u32 buf (String.length row);
              Buffer.add_string buf row)
            rows
      | Err m ->
          Buffer.add_char buf 'E';
          Buffer.add_string buf m
      | Aborted m ->
          Buffer.add_char buf 'A';
          Buffer.add_string buf m
      | Busy m ->
          Buffer.add_char buf 'Y';
          Buffer.add_string buf m
      | Pong -> Buffer.add_char buf 'P'
      | Bye -> Buffer.add_char buf 'X'
      | Redirect addr ->
          Buffer.add_char buf 'D';
          Buffer.add_string buf addr
      | Blob data ->
          Buffer.add_char buf 'T';
          Buffer.add_string buf data
      | Wrong_shard { ws_shard; ws_addr } ->
          Buffer.add_char buf 'W';
          put_u32 buf ws_shard;
          Buffer.add_string buf ws_addr)

(* ------------------------------------------------------------------ *)
(* Payload decoding                                                    *)

let body payload = Bytes.sub_string payload 1 (Bytes.length payload - 1)

let expect_empty what payload =
  if Bytes.length payload <> 1 then
    raise (Protocol_error (what ^ ": unexpected body"))

let decode_request payload =
  if Bytes.length payload = 0 then raise (Protocol_error "empty request frame");
  match Bytes.get payload 0 with
  | 'Q' -> Query (body payload)
  | 'E' -> Exec (body payload)
  | 'B' ->
      expect_empty "BEGIN" payload;
      Begin
  | 'C' ->
      expect_empty "COMMIT" payload;
      Commit
  | 'A' ->
      expect_empty "ABORT" payload;
      Abort
  | 'S' ->
      expect_empty "STATS" payload;
      Stats
  | 'P' ->
      expect_empty "PING" payload;
      Ping
  | 'X' ->
      expect_empty "QUIT" payload;
      Quit
  | 'H' ->
      if Bytes.length payload <> 2 then
        raise (Protocol_error "HELLO: expected a one-byte version");
      Hello (Char.code (Bytes.get payload 1))
  | 'N' ->
      expect_empty "REPL_SNAPSHOT" payload;
      Repl_snapshot
  | 'L' ->
      if Bytes.length payload <> 9 then
        raise (Protocol_error "REPL_PULL: expected term and cursor");
      Repl_pull { term = get_u32 payload 1; after = get_u32 payload 5 }
  | 'M' ->
      expect_empty "PROMOTE" payload;
      Promote
  | 'F' ->
      if Bytes.length payload < 5 then
        raise (Protocol_error "FENCE: truncated term");
      Fence
        { term = get_u32 payload 1;
          primary = Bytes.sub_string payload 5 (Bytes.length payload - 5)
        }
  | 'R' ->
      if Bytes.length payload <> 5 then
        raise (Protocol_error "PREPARE: expected a u32 gid");
      Prepare (get_u32 payload 1)
  | 'D' ->
      if Bytes.length payload <> 6 then
        raise (Protocol_error "DECIDE: expected a u32 gid and a verdict byte");
      let d_commit =
        match Bytes.get payload 5 with
        | 'C' -> true
        | 'A' -> false
        | c -> raise (Protocol_error (Printf.sprintf "DECIDE: bad verdict %C" c))
      in
      Decide { d_gid = get_u32 payload 1; d_commit }
  | 'T' ->
      let n = Bytes.length payload in
      if n < 13 then raise (Protocol_error "SHARD_MAP: truncated header");
      let sm_version = get_u32 payload 1 in
      let sm_self = get_u32 payload 5 in
      let count = get_u32 payload 9 in
      if count < 0 || count > 1024 then
        raise (Protocol_error "SHARD_MAP: absurd shard count");
      let off = ref 13 in
      let shards = ref [] in
      for _ = 1 to count do
        if !off + 4 > n then
          raise (Protocol_error "SHARD_MAP: truncated address length");
        let len = get_u32 payload !off in
        off := !off + 4;
        if len < 0 || !off + len > n then
          raise (Protocol_error "SHARD_MAP: truncated address");
        shards := Bytes.sub_string payload !off len :: !shards;
        off := !off + len
      done;
      if !off <> n then raise (Protocol_error "SHARD_MAP: trailing bytes");
      if sm_self < 0 || sm_self >= count then
        raise (Protocol_error "SHARD_MAP: self index out of range");
      Shard_map { sm_version; sm_self; sm_shards = List.rev !shards }
  | c -> raise (Protocol_error (Printf.sprintf "unknown request opcode %C" c))

let decode_response payload =
  if Bytes.length payload = 0 then raise (Protocol_error "empty response frame");
  let n = Bytes.length payload in
  match Bytes.get payload 0 with
  | 'K' -> Ok_result (body payload)
  | 'E' -> Err (body payload)
  | 'A' -> Aborted (body payload)
  | 'Y' -> Busy (body payload)
  | 'P' ->
      expect_empty "PONG" payload;
      Pong
  | 'X' ->
      expect_empty "BYE" payload;
      Bye
  | 'R' ->
      if n < 5 then raise (Protocol_error "ROWS: truncated count");
      let count = get_u32 payload 1 in
      if count < 0 then raise (Protocol_error "ROWS: negative count");
      let off = ref 5 in
      let rows = ref [] in
      for _ = 1 to count do
        if !off + 4 > n then raise (Protocol_error "ROWS: truncated row length");
        let len = get_u32 payload !off in
        off := !off + 4;
        if len < 0 || !off + len > n then raise (Protocol_error "ROWS: truncated row");
        rows := Bytes.sub_string payload !off len :: !rows;
        off := !off + len
      done;
      if !off <> n then raise (Protocol_error "ROWS: trailing bytes");
      Rows (List.rev !rows)
  | 'D' -> Redirect (body payload)
  | 'T' -> Blob (body payload)
  | 'W' ->
      if n < 5 then raise (Protocol_error "WRONG_SHARD: truncated shard index");
      Wrong_shard
        { ws_shard = get_u32 payload 1;
          ws_addr = Bytes.sub_string payload 5 (n - 5)
        }
  | c -> raise (Protocol_error (Printf.sprintf "unknown response opcode %C" c))

(* ------------------------------------------------------------------ *)
(* Blocking stream I/O                                                 *)

(* EINTR never means the peer went away — a signal (SIGTERM during a
   drain, a profiling timer) interrupted the syscall mid-flight and the
   only correct reaction is to reissue it. Mapping it to an error used
   to tear down perfectly healthy sessions. *)
let rec write_all fd b off len =
  if len > 0 then begin
    match Unix.write fd b off len with
    | n -> write_all fd b (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b off len
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        raise (Protocol_error "connection closed by peer")
  end

let write_frame fd b = write_all fd b 0 (Bytes.length b)

(* Reads exactly [len] bytes, looping over partial reads. [`Eof] only
   when zero bytes were read so far — EOF mid-buffer is a torn frame. *)
let read_exactly fd len =
  let b = Bytes.create len in
  let rec go off =
    match Unix.read fd b off (len - off) with
    | 0 -> if off = 0 then `Eof else raise (Protocol_error "torn frame")
    | n -> if off + n >= len then `Bytes b else go (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
        raise (Protocol_error "connection reset mid-frame")
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Nonblocking stream I/O — the reactor's building blocks. EINTR is
   retried here too; EAGAIN/EWOULDBLOCK surface as [`Would_block] (the
   reactor re-arms the descriptor in its select set); a vanished peer
   is a value, not an exception, because for an event loop it is a
   routine state transition. *)

let rec read_nb fd b off len =
  match Unix.read fd b off len with
  | 0 -> `Eof
  | n -> `Data n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_nb fd b off len
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> `Would_block
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> `Closed

let rec write_nb fd b off len =
  match Unix.write fd b off len with
  | n -> `Wrote n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_nb fd b off len
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> `Would_block
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> `Closed

let read_frame fd =
  match read_exactly fd 4 with
  | `Eof -> None
  | `Bytes prefix ->
      let len = get_u32 prefix 0 in
      if len < 0 || len > max_frame then
        raise
          (Protocol_error
             (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" len max_frame));
      if len = 0 then raise (Protocol_error "empty frame");
      (match read_exactly fd len with
      | `Eof -> raise (Protocol_error "torn frame")
      | `Bytes payload -> Some payload)

let write_request fd req = write_frame fd (encode_request req)

let write_response fd resp = write_frame fd (encode_response resp)

let read_request fd = Option.map decode_request (read_frame fd)

let read_response fd = Option.map decode_response (read_frame fd)

(* ------------------------------------------------------------------ *)
(* Placement. Router and shard must compute the same owner for an
   object-creating statement with no shared state beyond the shard map,
   so the placement key is the normalized statement text itself (the
   OID does not exist until the insert runs). FNV-1a folded to 30 bits:
   identical on 32- and 64-bit hosts, always non-negative. *)

let placement_hash s =
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3fffffff) s;
  !h
