module Db = Mood.Db
module Apply = Mood_repl.Apply
module Codec = Mood_repl.Codec
module Metrics = Mood_obs.Metrics

type t = {
  db : Db.t;
  kernel : Mutex.t;
  apply : Apply.t;
  primary : string;
  poll_interval : float;
  (* Only the applier thread writes these, or PROMOTE's thread once
     it has joined the applier. *)
  lag_s : Metrics.histogram;
  pulls : Metrics.counter;
  reconnects : Metrics.counter;
  mutable need_bootstrap : bool;
  mutable client : Client.t option;
  mutable thread : Thread.t option;
  mutable stop_flag : bool;
  mutable last_error : string option;
}

let disconnect t =
  (match t.client with Some c -> Client.close c | None -> ());
  t.client <- None

let connected t =
  match t.client with
  | Some c -> Some c
  | None -> (
      match Client.connect_endpoint t.primary with
      | c ->
          Metrics.incr t.reconnects;
          t.client <- Some c;
          Some c
      | exception e ->
          t.last_error <- Some (Printexc.to_string e);
          None)

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

let observe_lag t =
  let sent = Apply.last_batch_sent_us t.apply in
  if sent > 0 then
    Metrics.observe t.lag_s (float_of_int (max 0 (now_us () - sent)) /. 1e6)

(* One bootstrap round trip. True on success. *)
let bootstrap t c =
  match Client.repl_snapshot c with
  | Wire.Blob blob -> (
      match Codec.decode blob with
      | Codec.Snapshot snap ->
          Mutex.protect t.kernel (fun () -> Apply.install_snapshot t.apply snap);
          t.need_bootstrap <- false;
          t.last_error <- None;
          true
      | Codec.Batch _ ->
          t.last_error <- Some "bootstrap: primary sent a batch blob";
          false)
  | Wire.Redirect addr ->
      t.last_error <- Some ("bootstrap: primary redirected to " ^ addr);
      false
  | Wire.Err m ->
      t.last_error <- Some ("bootstrap: " ^ m);
      false
  | _ ->
      t.last_error <- Some "bootstrap: unexpected response";
      false

(* One pull round trip. [`More] means records flowed and more may be
   pending — pull again without sleeping. *)
let pull t c =
  Metrics.incr t.pulls;
  match
    Client.repl_pull c ~term:(Apply.term t.apply) ~after:(Apply.applied_lsn t.apply)
  with
  | Wire.Blob blob -> (
      match Codec.decode blob with
      | Codec.Batch batch -> (
          match Mutex.protect t.kernel (fun () -> Apply.apply_batch t.apply batch) with
          | `Applied ->
              observe_lag t;
              t.last_error <- None;
              if batch.Codec.b_records <> [] && Apply.lag_records t.apply > 0 then
                `More
              else `Idle
          | `Stale_primary term ->
              t.last_error <-
                Some (Printf.sprintf "primary answered with stale term %d" term);
              `Idle
          | `Primary_regressed ->
              (* A restarted primary: its fresh log cannot continue our
                 stream — only a new base image can. *)
              t.need_bootstrap <- true;
              t.last_error <- Some "primary log regressed; re-bootstrapping";
              `Idle)
      | Codec.Snapshot _ ->
          t.last_error <- Some "pull: primary sent a snapshot blob";
          `Idle)
  | Wire.Err m ->
      t.last_error <- Some ("pull: " ^ m);
      `Idle
  | Wire.Redirect addr ->
      t.last_error <- Some ("pull: primary moved to " ^ addr);
      `Idle
  | _ ->
      t.last_error <- Some "pull: unexpected response";
      `Idle

let loop t =
  while not t.stop_flag do
    let pace =
      match connected t with
      | None -> `Idle
      | Some c -> (
          try
            if t.need_bootstrap then begin
              ignore (bootstrap t c);
              `Idle
            end
            else pull t c
          with
          | Client.Disconnected | Wire.Protocol_error _ | Unix.Unix_error _ ->
              t.last_error <- Some "connection to primary lost";
              disconnect t;
              `Idle)
    in
    match pace with
    | `More -> () (* catch-up burst: keep pulling *)
    | `Idle -> if not t.stop_flag then Thread.delay t.poll_interval
  done;
  disconnect t

let start ~db ~kernel ~primary ~poll_interval () =
  Db.set_role db (Db.Replica primary);
  let metrics = Db.metrics db in
  let t =
    { db;
      kernel;
      apply = Apply.create db;
      primary;
      poll_interval;
      lag_s = Metrics.histogram metrics "repl.lag_s";
      pulls = Metrics.counter metrics "repl.pulls";
      reconnects = Metrics.counter metrics "repl.reconnects";
      need_bootstrap = true;
      client = None;
      thread = None;
      stop_flag = false;
      last_error = None
    }
  in
  Metrics.register_source metrics (fun () ->
      [ ("repl.applied_lsn", Apply.applied_lsn t.apply);
        ("repl.lag_records", Apply.lag_records t.apply);
        ("repl.pending_txns", Apply.pending_txns t.apply);
        ("repl.commits_applied", Apply.commits_applied t.apply);
        ("repl.records_applied", Apply.records_applied t.apply);
        ("repl.bootstraps", Apply.bootstraps t.apply)
      ]);
  t.thread <- Some (Thread.create loop t);
  t

let stop t =
  t.stop_flag <- true;
  (match t.thread with Some th -> Thread.join th | None -> ());
  t.thread <- None

(* Final drain: the stream is stopped, the thread joined — one last
   bounded pull pass picks up whatever the (possibly dead) primary can
   still serve. Best effort by design: the usual reason to promote is
   that the primary is gone. *)
let final_drain t =
  match connected t with
  | None -> ()
  | Some c -> (
      try
        let rec go budget =
          if budget > 0 then match pull t c with `More -> go (budget - 1) | `Idle -> ()
        in
        go 64
      with Client.Disconnected | Wire.Protocol_error _ | Unix.Unix_error _ ->
        disconnect t)

let promote t =
  stop t;
  if Apply.bootstraps t.apply = 0 then
    Error "replica never completed a bootstrap; no consistent image to promote"
  else begin
    final_drain t;
    disconnect t;
    let new_term = Mutex.protect t.kernel (fun () -> Apply.promote t.apply) in
    Ok new_term
  end

let last_error t = t.last_error
