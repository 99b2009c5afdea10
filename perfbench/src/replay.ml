(* The traced run: the generated operation stream replayed in-process
   against an identically built [Db.t], with no server. Each operation
   takes the kernel path the server's worker and log-writer take; each
   SELECT is additionally timed layer by layer (parse, typecheck,
   optimize, prepare, run) in a separate measurement outside the kernel
   span, whose counter effects are subtracted so that nothing counts
   twice. *)

module Db = Mood.Db
module Wal = Mood_storage.Wal
module Store = Mood_storage.Store
module Buffer_pool = Mood_storage.Buffer_pool
module Metrics = Mood_obs.Metrics
module Scan_metrics = Mood_column.Scan_metrics
module Executor = Mood_executor.Executor
module Optimizer = Mood_optimizer.Optimizer
module Parser = Mood_sql.Parser
module Typecheck = Mood_sql.Typecheck
module Ast = Mood_sql.Ast

(* Operations replayed after the warm-up: oltp operations per session
   (the two sessions interleaved in their generated order), olap passes,
   htap cycles. Fixed counts, so program counters repeat exactly. *)
let measured_ops = function Gen.Oltp -> 1_500 | Gen.Olap -> 6 | Gen.Htap -> 40

type op_trace = {
  cls : Gen.cls;
  shape : string;
  kernel_s : float;               (* summed kernel spans *)
  layers : (string * float) list; (* the separate SELECT measurement *)
  batches : int;                  (* column batches the kernel produced *)
  page_accesses : int;            (* buffer-pool hits + misses in the kernel *)
}

type analysis = {
  query : Gen.query;
  est_cost_s : float;
  modeled_io_s : float;
  wall_s : float;
  rows_examined : int;  (* rows produced by all operators *)
  rows_returned : int;
}

type result = {
  wall_s : float;          (* measured phase, separate SELECT measurement excluded *)
  ops : op_trace list;
  counters : Metrics.snapshot;  (* kernel counter deltas over the measured phase *)
  gauges : Metrics.snapshot;    (* counter values at the end of the measured phase *)
  wal_bytes : int;
  tracer : Tracer.t;
  analyses : analysis list;
  tally : Runner.tally;
}

let render_exec = function
  | Ok (Db.Rows r) ->
      Oracle.Rows (List.map Mood_model.Value.to_string (Executor.result_values r))
  | Ok (Db.Updated n) -> Oracle.Ok_text (Printf.sprintf "updated %d" n)
  | Ok (Db.Object_created oid) -> Oracle.Ok_text ("oid " ^ Mood_model.Oid.to_string oid)
  | Ok _ -> Oracle.Ok_text "ok"
  | Error m -> Oracle.Err m

let render_txn = function
  | Ok r -> render_exec (Ok r)
  | Error Db.Txn_busy -> Oracle.Busy "lock held"
  | Error Db.Txn_deadlock -> Oracle.Aborted "deadlock"
  | Error (Db.Txn_fail m) -> Oracle.Err m
  | Error (Db.Txn_redirect a) -> Oracle.Other ("redirect " ^ a)

let sum_snap a b =
  let tbl = Hashtbl.create 128 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) a;
  List.iter (fun (k, v) -> Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))) b;
  Hashtbl.fold (fun k v l -> (k, v) :: l) tbl [] |> List.sort compare

let sub_snap a b =
  List.map (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k b))) a

(* The operation order: oltp sessions interleaved, passes in order. *)
let schedule (inp : Inputs.t) ~first ~count =
  match inp.Inputs.load with
  | Inputs.Sessions streams ->
      List.concat
        (List.init count (fun i ->
             Array.to_list (Array.map (fun s -> s.((first + i) mod Array.length s)) streams)))
  | Inputs.Passes ops_of -> List.concat (List.init count (fun i -> ops_of (first + i)))

let distinct_queries ops =
  List.sort_uniq compare (List.filter_map (function Gen.Query q -> Some q | _ -> None) ops)

let run ~traced (inp : Inputs.t) =
  let w = inp.Inputs.w in
  let db, _ = Setup.build w inp.Inputs.d in
  let wal = Store.wal (Db.store db) in
  let buffer = Store.buffer (Db.store db) in
  let model = Oracle.create ~static:(w = Gen.Olap) inp.Inputs.d in
  let tally = Runner.tally () in
  let tr = Tracer.create () in
  let op_id = ref 0 in
  let span name f = if traced then Tracer.with_span tr ~op:!op_id name f else f () in
  (* per-operation accumulators, filled while tracing *)
  let kernel_s = ref 0. and layers = ref [] and batches = ref 0 and accesses = ref 0 in
  let probe_counters = ref [] in
  let kernel name f =
    if not traced then f ()
    else begin
      let b0 = Scan_metrics.m.Scan_metrics.batches and s0 = Buffer_pool.stats buffer in
      let t0 = Unix.gettimeofday () in
      let r = span name f in
      kernel_s := !kernel_s +. (Unix.gettimeofday () -. t0);
      let s1 = Buffer_pool.stats buffer in
      batches := !batches + Scan_metrics.m.Scan_metrics.batches - b0;
      accesses :=
        !accesses + s1.Buffer_pool.hits + s1.Buffer_pool.misses - s0.Buffer_pool.hits
        - s0.Buffer_pool.misses;
      r
    end
  in
  let layer name f =
    let t0 = Unix.gettimeofday () in
    let r = span name f in
    layers := (name, Unix.gettimeofday () -. t0) :: !layers;
    r
  in
  (* The separate SELECT measurement, bracketed by counter snapshots. *)
  let probe sql =
    span "probe" (fun () ->
        let before = Db.metrics_snapshot db in
        (match layer "sql.parse" (fun () -> Parser.parse sql) with
        | Ast.Select q as stmt ->
            layer "sql.typecheck" (fun () -> Typecheck.check_statement ~catalog:(Db.catalog db) stmt);
            let o = layer "optimizer.optimize" (fun () -> Optimizer.optimize (Db.optimizer_env db) q) in
            let p = layer "executor.prepare" (fun () -> Executor.prepare o.Optimizer.plan) in
            ignore (layer "executor.run" (fun () -> Executor.run_prepared (Db.executor_env db) p))
        | _ -> ());
        probe_counters :=
          sum_snap !probe_counters (Metrics.diff ~before ~after:(Db.metrics_snapshot db)))
  in
  let txn = ref None in
  let commit t =
    let lsn = kernel "core.commit_session_txn_nodurable" (fun () -> Db.commit_session_txn_nodurable db t) in
    ignore (kernel "storage.force_group" (fun () -> Wal.force_group wal lsn))
  in
  let exec step =
    match step, !txn with
    | Gen.Begin, _ ->
        txn := Some (kernel "core.begin_session_txn" (fun () -> Db.begin_session_txn db));
        Oracle.Ok_text "BEGIN"
    | Gen.Commit, Some t ->
        commit t;
        txn := None;
        Oracle.Ok_text "COMMIT"
    | Gen.Abort, Some t ->
        kernel "core.abort_session_txn" (fun () -> Db.abort_session_txn db t);
        txn := None;
        Oracle.Ok_text "ABORT"
    | (Gen.Commit | Gen.Abort), None -> Oracle.Err "no open transaction"
    | Gen.Sql s, Some t ->
        let r = render_txn (kernel "core.exec_in_txn" (fun () -> Db.exec_in_txn db t s)) in
        if traced && Db.read_only_text s then probe s;
        r
    | Gen.Sql s, None when Db.read_only_text s ->
        let r = render_exec (kernel "core.exec" (fun () -> Db.exec db s)) in
        if traced then probe s;
        r
    | Gen.Sql s, None -> (
        (* autocommit write: a one-statement session transaction *)
        let t = kernel "core.begin_session_txn" (fun () -> Db.begin_session_txn db) in
        match kernel "core.exec_in_txn" (fun () -> Db.exec_in_txn db t s) with
        | Ok _ as r ->
            commit t;
            render_txn r
        | Error _ as r ->
            kernel "core.abort_session_txn" (fun () -> Db.abort_session_txn db t);
            render_txn r)
  in
  let play ops =
    List.map
      (fun op ->
        incr op_id;
        kernel_s := 0.;
        layers := [];
        batches := 0;
        accesses := 0;
        let cls = Gen.op_cls op in
        let _, _, verdict = span ("bench." ^ Gen.cls_name cls) (fun () -> Runner.run_op ~exec model op) in
        Runner.count tally verdict (Gen.cls_name cls);
        { cls; shape = Gen.op_shape op; kernel_s = !kernel_s; layers = !layers; batches = !batches; page_accesses = !accesses })
      ops
  in
  let warm = Inputs.warmup w in
  ignore (play (schedule inp ~first:0 ~count:warm));
  let ops = schedule inp ~first:warm ~count:(measured_ops w) in
  Tracer.clear tr;
  let lsn0 = Wal.last_lsn wal in
  let before = Db.metrics_snapshot db in
  let t0 = Unix.gettimeofday () in
  let traces = play ops in
  let wall = Unix.gettimeofday () -. t0 in
  let after = Db.metrics_snapshot db in
  let probe_s =
    List.fold_left
      (fun a s -> if s.Tracer.name = "probe" then a +. Tracer.duration s else a)
      0. (Tracer.spans tr)
  in
  let counters = sub_snap (Metrics.diff ~before ~after) !probe_counters in
  let wal_bytes =
    List.fold_left
      (fun a (lsn, r) -> if lsn > lsn0 then a + String.length (Wal.encode_record r) else a)
      0 (Wal.records_with_lsn wal)
  in
  let analyses =
    if not traced then []
    else
      List.map
        (fun q ->
          let sql = Gen.query_sql q in
          let est = (Db.optimize db sql).Optimizer.trace.Optimizer.t_est_cost in
          let io0 = Db.io_elapsed db in
          let t = Unix.gettimeofday () in
          let result, reports = Db.analyze_query db sql in
          let wall_s = Unix.gettimeofday () -. t in
          { query = q;
            est_cost_s = est;
            modeled_io_s = Db.io_elapsed db -. io0;
            wall_s;
            rows_examined = List.fold_left (fun a r -> a + r.Executor.r_rows) 0 reports;
            rows_returned = List.length (Executor.result_values result)
          })
        (distinct_queries ops)
  in
  List.iter
    (fun (sql, want) ->
      Runner.count tally (Oracle.check want (exec (Gen.Sql sql))) ("final check " ^ sql))
    (Oracle.final_checks model w);
  { wall_s = wall -. probe_s; ops = traces; counters; gauges = after; wal_bytes; tracer = tr; analyses; tally }
