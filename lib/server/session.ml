type t = {
  id : int;
  fd : Unix.file_descr;
  peer : string;
  mutable txn : Mood.Db.session_txn option;
  mutable hello : int option;
      (* protocol version negotiated by HELLO; the v2-gated sharding
         opcodes (PREPARE/DECIDE/SHARD_MAP) require it *)
  mutable statements : int;
  mutable rows_returned : int;
  mutable aborts : int;
  mutable alive : bool;
}

type registry = {
  m : Mutex.t;
  mutable next_id : int;
  mutable live : t list;
  mutable opened : int;
}

let create_registry () = { m = Mutex.create (); next_id = 1; live = []; opened = 0 }

let register r ~fd ~peer =
  Mutex.protect r.m (fun () ->
      let s =
        { id = r.next_id;
          fd;
          peer;
          txn = None;
          hello = None;
          statements = 0;
          rows_returned = 0;
          aborts = 0;
          alive = true
        }
      in
      r.next_id <- r.next_id + 1;
      r.live <- s :: r.live;
      r.opened <- r.opened + 1;
      s)

let remove_and_close r s =
  Mutex.protect r.m (fun () ->
      if s.alive then begin
        s.alive <- false;
        r.live <- List.filter (fun other -> other.id <> s.id) r.live;
        try Unix.close s.fd with Unix.Unix_error _ -> ()
      end)

let shutdown_read r s =
  Mutex.protect r.m (fun () ->
      if s.alive then
        try Unix.shutdown s.fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())

let count r = Mutex.protect r.m (fun () -> List.length r.live)

let total_opened r = Mutex.protect r.m (fun () -> r.opened)

let snapshot r = Mutex.protect r.m (fun () -> r.live)

let stats_rows s snapshot =
  List.map
    (fun (k, v) -> Printf.sprintf "%s %d" k v)
    (("session.statements", s.statements)
    :: ("session.rows_returned", s.rows_returned)
    :: ("session.aborts", s.aborts)
    :: snapshot)
