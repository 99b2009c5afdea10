(* Metric definitions and the printed report. Every workload prints every
   metric: a per-class figure for a class the workload does not run is
   0 with sample count 0. *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }
let ms s = s *. 1000.
let us s = s *. 1e6
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let fratio a b = if b = 0. then 0. else a /. b
let get snap k = Option.value ~default:0 (List.assoc_opt k snap)
let median_or0 xs = if xs = [] then 0. else Stat.median xs

let lats cls samples =
  List.filter_map (fun s -> if s.Runner.cls = cls then Some s.Runner.lat else None) samples

(* Per pass (olap) or cycle (htap): the summed latency of one class. *)
let pass_sums cls samples =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.Runner.cls = cls then
        Hashtbl.replace tbl s.Runner.pass
          (s.Runner.lat +. Option.value ~default:0. (Hashtbl.find_opt tbl s.Runner.pass)))
    samples;
  Hashtbl.fold (fun _ v l -> v :: l) tbl []

(* Operations per second, as the median over rounds: a round is one olap
   pass, four htap cycles (one of them with the GROUP BY), or one second
   of oltp. The median keeps a short stall of the host from moving the
   figure; incomplete rounds at the end are dropped. *)
let throughput (r : Wire_run.result) =
  let per = Inputs.round_passes r.Wire_run.w in
  let round s =
    if per = 0 then int_of_float (s.Runner.finish -. r.Wire_run.start) else s.Runner.pass / per
  in
  let complete k =
    if per = 0 then float_of_int (k + 1) <= r.Wire_run.elapsed else (k + 1) * per <= r.Wire_run.passes
  in
  let rounds = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let k = round s in
      let n, first, last =
        Option.value ~default:(0, infinity, neg_infinity) (Hashtbl.find_opt rounds k)
      in
      Hashtbl.replace rounds k
        (n + 1, Float.min first (s.Runner.finish -. s.Runner.lat), Float.max last s.Runner.finish))
    r.Wire_run.samples;
  Hashtbl.fold
    (fun k (n, first, last) acc ->
      if not (complete k) then acc
      else if per = 0 then float_of_int n :: acc
      else (float_of_int n /. (last -. first)) :: acc)
    rounds []
  |> median_or0

let end_to_end (r : Wire_run.result) =
  let pass cls = ms (median_or0 (pass_sums cls r.Wire_run.samples)) in
  [ m "setup_s" "s" (Stat.median (List.map (fun s -> s.Server_proc.setup_s) r.Wire_run.setups));
    m "throughput_ops_s" "1/s" (throughput r);
    m "peak_rss_mb" "MB" (float_of_int r.Wire_run.final.Server_proc.vmhwm_kb /. 1024.);
    m "scan_query_ms" "ms" (pass Gen.Scan_query);
    m "agg_query_ms" "ms" (pass Gen.Agg_query)
  ]

(* The per-class latencies a client sees (the oltp percentiles, and the
   olap/htap per-pass class sums), with their sample counts. *)
let client_classes (r : Wire_run.result) =
  let s = r.Wire_run.samples in
  let pct cls p = let l = lats cls s in (ms (if l = [] then 0. else Stat.percentile l p), List.length l) in
  let pass cls = let l = pass_sums cls s in (ms (median_or0 l), List.length l) in
  [ ("client.point_read_p50_ms", pct Gen.Point_read 50.);
    ("client.point_read_p99_ms", pct Gen.Point_read 99.);
    ("client.path_read_p50_ms", pct Gen.Path_read 50.);
    ("client.insert_p50_ms", pct Gen.Insert 50.);
    ("client.update_p50_ms", pct Gen.Update 50.);
    ("client.txn_p50_ms", pct Gen.Txn 50.);
    ("client.path_query_ms", pass Gen.Path_query);
    ("client.join_query_ms", pass Gen.Join_query);
    ("client.agg_query_ms", pass Gen.Agg_query);
    ("client.scan_query_ms", pass Gen.Scan_query)
  ]

let select_classes = List.filter Gen.is_select Gen.all_classes

let all_query_names =
  [ "path_bmw"; "path_cyl"; "path_loc"; "join_rows"; "join_count"; "agg_location";
    "agg_cylinders"; "agg_lbweight"; "scan_location"; "scan_engine" ]

let trace_layers = [ "bench"; "probe"; "core"; "storage"; "sql"; "optimizer"; "executor" ]

let per_layer ~(wire : Wire_run.result) ~(traced : Replay.result) ~(untraced : Replay.result) =
  let ops = traced.Replay.ops in
  let n_ops = List.length ops in
  let of_cls cls = List.filter (fun o -> o.Replay.cls = cls) ops in
  let kernel_med cls = median_or0 (List.map (fun o -> o.Replay.kernel_s) (of_cls cls)) in
  let layer_med name cls =
    median_or0
      (List.filter_map (fun o -> List.assoc_opt name o.Replay.layers) (of_cls cls))
  in
  let c = traced.Replay.counters and st = wire.Wire_run.stats_delta in
  let writes =
    List.length (List.filter (fun o -> List.mem o.Replay.cls [ Gen.Insert; Gen.Update; Gen.Txn ]) ops)
  in
  let scans = List.filter (fun o -> o.Replay.batches > 0) ops in
  let n_scans = List.length scans in
  let updates = of_cls Gen.Update in
  let served =
    get c "scan.batch_cache_hits" + get c "scan.pages_built" + get c "scan.pages_reused"
    + get c "scan.pages_healed"
  in
  let setup f = Stat.median (List.map f wire.Wire_run.setups) in
  let wire_ops = List.length wire.Wire_run.samples in
  let analyses_of cls = List.filter (fun a -> Gen.query_cls a.Replay.query = cls) traced.Replay.analyses in
  let self = Tracer.self_times traced.Replay.tracer in
  let f = float_of_int in
  let of_wire cls = List.filter (fun s -> s.Runner.cls = cls) wire.Wire_run.samples in
  List.concat
    [ List.map
        (fun cls ->
          (* per statement shape, so a class of several queries does not
             compare the median of one query with that of another *)
          let diffs =
            List.sort_uniq compare (List.map (fun s -> s.Runner.shape) (of_wire cls))
            |> List.filter_map (fun shape ->
                   let wire = List.filter (fun s -> s.Runner.shape = shape && s.Runner.lat < infinity) (of_wire cls) in
                   let kernel = List.filter (fun o -> o.Replay.shape = shape) ops in
                   if wire = [] || kernel = [] then None
                   else
                     Some
                       (Stat.median (List.map (fun s -> s.Runner.lat) wire)
                       -. Stat.median (List.map (fun o -> o.Replay.kernel_s) kernel)))
          in
          m ("server.frontend_us." ^ Gen.cls_name cls) "us"
            (if diffs = [] then 0. else us (List.fold_left ( +. ) 0. diffs /. f (List.length diffs))))
        Gen.all_classes;
      [ m "server.commits_per_force" "ratio" (ratio (get st "server.gc_commits") (get st "server.gc_batches"));
        m "server.lock_parks" "count" (f (get st "locks.waits"));
        m "server.busy_retries" "count" (f wire.Wire_run.busy_retries);
        m "server.reply_bytes_per_op" "B" (ratio wire.Wire_run.reply_bytes wire_ops);
        m "core.plan_cache_hit_ratio" "ratio"
          (ratio (get c "plan_cache.hits") (get c "plan_cache.hits" + get c "plan_cache.misses"));
        m "core.plan_cache_evictions" "count" (f (get c "plan_cache.evictions"))
      ];
      List.map (fun cls -> m ("core.kernel_us." ^ Gen.cls_name cls) "us" (us (kernel_med cls))) Gen.all_classes;
      List.concat_map
        (fun (metric, span) ->
          List.map (fun cls -> m (metric ^ "." ^ Gen.cls_name cls) "us" (us (layer_med span cls))) select_classes)
        [ ("sql.parse_us", "sql.parse");
          ("sql.typecheck_us", "sql.typecheck");
          ("optimizer.optimize_us", "optimizer.optimize");
          ("executor.prepare_us", "executor.prepare");
          ("executor.run_us", "executor.run")
        ];
      List.map
        (fun cls ->
          let a = analyses_of cls in
          m ("executor.rows_examined_per_row." ^ Gen.cls_name cls) "ratio"
            (ratio
               (List.fold_left (fun s a -> s + a.Replay.rows_examined) 0 a)
               (List.fold_left (fun s a -> s + a.Replay.rows_returned) 0 a)))
        [ Gen.Path_query; Gen.Join_query; Gen.Agg_query; Gen.Scan_query ];
      [ m "executor.dml_page_accesses_per_update" "pages"
          (ratio (List.fold_left (fun s o -> s + o.Replay.page_accesses) 0 updates) (List.length updates));
        m "executor.join_spill_partitions" "count" (f (get c "join.partitions_spilled"));
        m "executor.join_spill_bytes" "B" (f (get c "join.spill_bytes"))
      ];
      List.map
        (fun q ->
          let v =
            match List.find_opt (fun a -> Gen.query_name a.Replay.query = q) traced.Replay.analyses with
            | Some a -> fratio a.Replay.est_cost_s a.Replay.modeled_io_s
            | None -> 0.
          in
          m ("cost.est_over_modeled_io." ^ q) "ratio" v)
        all_query_names;
      [ m "column.batches_per_scan" "count" (ratio (get c "scan.batches") n_scans);
        m "column.batch_cache_hit_ratio" "ratio" (ratio (get c "scan.batch_cache_hits") served);
        m "column.pages_built_per_write" "pages" (ratio (get c "scan.pages_built") writes);
        m "column.mvcc_patched_rows_per_scan" "rows" (ratio (get c "scan.mvcc_patched") n_scans);
        m "column.fallback_rows" "rows" (f (get c "scan.fallback_rows"));
        m "storage.buffer_hit_ratio" "ratio"
          (ratio (get c "buffer.hits") (get c "buffer.hits" + get c "buffer.misses"));
        m "storage.buffer_evictions" "count" (f (get c "buffer.evictions"));
        m "storage.disk_seq_reads" "count" (f (get c "disk.sequential_reads"));
        m "storage.disk_random_reads" "count" (f (get c "disk.random_reads"));
        m "storage.disk_writes" "count" (f (get c "disk.writes"));
        m "storage.modeled_io_s" "s" (f (get c "disk.elapsed_us") /. 1e6);
        m "storage.wal_records_per_write" "records" (ratio (get c "wal.records") writes);
        m "storage.wal_bytes_per_write" "B" (ratio traced.Replay.wal_bytes writes);
        m "storage.wal_forces" "count" (f (get c "wal.forces"));
        m "storage.versions_created" "count" (f (get c "mvcc.versions_created"));
        m "storage.versions_pruned" "count" (f (get c "mvcc.versions_pruned"));
        m "storage.version_chain_max" "count" (f (get traced.Replay.gauges "mvcc.chain_max"));
        m "storage.lock_grants" "count" (f (get c "locks.grants"));
        m "storage.deadlocks" "count" (f (get c "locks.deadlocks"));
        m "catalog.load_s" "s" (setup (fun s -> s.Server_proc.phases.Setup.load_s));
        m "catalog.index_build_s" "s" (setup (fun s -> s.Server_proc.phases.Setup.index_s));
        m "catalog.analyze_s" "s" (setup (fun s -> s.Server_proc.phases.Setup.analyze_s));
        m "column.pax_build_s" "s" (setup (fun s -> s.Server_proc.phases.Setup.pax_s));
        m "server.start_s" "s" (setup (fun s -> s.Server_proc.start_s));
        m "runtime.minor_words_per_op" "words"
          (fratio wire.Wire_run.final.Server_proc.minor_words (f wire_ops));
        m "runtime.major_collections" "count" (f wire.Wire_run.final.Server_proc.major_collections);
        m "runtime.top_heap_mb" "MB"
          (f wire.Wire_run.final.Server_proc.top_heap_words *. 8. /. 1048576.)
      ];
      List.map
        (fun l ->
          m ("trace.self_us_per_op." ^ l) "us"
            (if n_ops = 0 then 0. else us (Option.value ~default:0. (List.assoc_opt l self) /. f n_ops)))
        trace_layers;
      [ m "trace.overhead_pct" "%" (100. *. (fratio traced.Replay.wall_s untraced.Replay.wall_s -. 1.)) ];
      List.map (fun (name, (v, _)) -> m name "ms" v) (client_classes wire)
    ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "1e300"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed body

let print_human (r : Wire_run.result) =
  let s = r.Wire_run.samples in
  Printf.printf "measured %.2f s, %d operations, %d passes/cycles\n" r.Wire_run.elapsed
    (List.length s) r.Wire_run.passes;
  Printf.printf "setup_s per set-up: %s\n"
    (String.concat " " (List.map (fun x -> Printf.sprintf "%.4f" x.Server_proc.setup_s) r.Wire_run.setups));
  let all = List.map (fun x -> x.Runner.lat) s in
  Printf.printf "latency over all %d operations: p50 %.4f ms, p99 %.4f ms\n" (List.length s)
    (ms (Stat.percentile all 50.)) (ms (Stat.percentile all 99.));
  Printf.printf "per class (percentiles over operations, *_query over passes):\n";
  List.iter
    (fun (name, (v, n)) -> if n > 0 then Printf.printf "  %-26s %10.4f ms  (n=%d)\n" name v n)
    (client_classes r);
  List.iter
    (fun e -> Printf.printf "FAILED %s\n" e)
    (List.rev r.Wire_run.tally.Runner.errors)
