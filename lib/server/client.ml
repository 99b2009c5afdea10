exception Disconnected

type t = {
  cfd : Unix.file_descr;
  mutable open_ : bool;
  mutable info : (string * int) option;
      (* (role, term) parsed from the HELLO reply, when one was made *)
}

let request t req =
  if not t.open_ then raise Disconnected;
  Wire.write_request t.cfd req;
  match Wire.read_response t.cfd with
  | Some resp -> resp
  | None -> raise Disconnected

(* Version negotiation before anything else: a mismatch is a clean
   [Failure] naming both versions, not a frame-decode blowup three
   statements in. Old servers never see it when [handshake:false]. *)
(* The v2 HELLO reply reads "mood protocol N role=R term=T". *)
let parse_hello_info m =
  let role = ref None and term = ref None in
  List.iter
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i -> (
          let k = String.sub tok 0 i in
          let v = String.sub tok (i + 1) (String.length tok - i - 1) in
          match k with
          | "role" -> role := Some v
          | "term" -> term := int_of_string_opt v
          | _ -> ())
      | None -> ())
    (String.split_on_char ' ' m);
  match (!role, !term) with Some r, Some tm -> Some (r, tm) | _ -> None

let hello t =
  match request t (Wire.Hello Wire.protocol_version) with
  | Wire.Ok_result m -> t.info <- parse_hello_info m
  | Wire.Err m ->
      (try Unix.close t.cfd with Unix.Unix_error _ -> ());
      t.open_ <- false;
      failwith m
  | _ ->
      (try Unix.close t.cfd with Unix.Unix_error _ -> ());
      t.open_ <- false;
      raise (Wire.Protocol_error "HELLO: unexpected response")

let connect_addr ?(handshake = true) addr =
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with e ->
     Unix.close fd;
     raise e);
  let t = { cfd = fd; open_ = true; info = None } in
  if handshake then hello t;
  t

let connect ?handshake ~port () =
  connect_addr ?handshake (Unix.ADDR_INET (Unix.inet_addr_loopback, port))

let resolve_host host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> failwith ("cannot resolve host " ^ host))

let sockaddr_name = function
  | Unix.ADDR_INET (a, p) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
  | Unix.ADDR_UNIX p -> "unix:" ^ p

let endpoint spec =
  let bad () = failwith ("endpoint must be HOST:PORT or unix:PATH, got " ^ spec) in
  if String.starts_with ~prefix:"unix:" spec then
    Unix.ADDR_UNIX (String.sub spec 5 (String.length spec - 5))
  else
    match String.rindex_opt spec ':' with
    | None -> bad ()
    | Some i -> (
        match int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1)) with
        | None -> bad ()
        | Some port ->
            let host = if i = 0 then "127.0.0.1" else String.sub spec 0 i in
            Unix.ADDR_INET (resolve_host host, port))

let connect_endpoint spec = connect_addr (endpoint spec)

let exec t sql = request t (Wire.Exec sql)
let query t sql = request t (Wire.Query sql)
let begin_txn t = request t Wire.Begin
let commit t = request t Wire.Commit
let abort t = request t Wire.Abort
let ping t = request t Wire.Ping

(* ["name value"] rows back into pairs; the value is everything past
   the last space, so metric names may not contain spaces (they
   don't). *)
let parse_stat line =
  match String.rindex_opt line ' ' with
  | None -> None
  | Some i -> (
      let name = String.sub line 0 i in
      match int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
      | Some v -> Some (name, v)
      | None -> None)

let stats t =
  match request t Wire.Stats with
  | Wire.Rows rows -> List.filter_map parse_stat rows
  | Wire.Err m -> failwith ("STATS: " ^ m)
  | _ -> raise (Wire.Protocol_error "STATS: unexpected response")

(* Replication calls: thin wrappers that surface the raw response —
   the applier (not the client library) decides how to react to
   Err/Redirect, since fencing and stale terms are protocol-level
   outcomes, not transport failures. *)
let repl_snapshot t = request t Wire.Repl_snapshot

let repl_pull t ~term ~after = request t (Wire.Repl_pull { term; after })

let promote t = request t Wire.Promote

let fence t ~term ~primary = request t (Wire.Fence { term; primary })

let server_info t = t.info

(* 2PC / sharding calls: raw responses again, for the same reason —
   the coordinator interprets votes and verdicts, not the transport. *)
let prepare t ~gid = request t (Wire.Prepare gid)

let decide t ~gid ~commit = request t (Wire.Decide { d_gid = gid; d_commit = commit })

let shard_map t ~version ~self ~shards =
  request t (Wire.Shard_map { sm_version = version; sm_self = self; sm_shards = shards })

let close t =
  if t.open_ then begin
    t.open_ <- false;
    try Unix.close t.cfd with Unix.Unix_error _ -> ()
  end

let quit t =
  if t.open_ then begin
    (try ignore (request t Wire.Quit)
     with Disconnected | Wire.Protocol_error _ | Unix.Unix_error _ -> ());
    close t
  end
