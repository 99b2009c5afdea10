(* Bechamel microbenchmarks: wall-clock timings of the kernel's hot
   paths, including the paper's motivating Function Manager comparison
   (compiled-and-linked vs interpreted method bodies, Section 2) and
   the query-side analogue of the same split: cached vs cold plans and
   closure-compiled vs AST-interpreted predicates. *)

open Bechamel
open Toolkit

module Db = Mood.Db
module Fm = Mood_funcmgr.Function_manager
module Catalog = Mood_catalog.Catalog
module Value = Mood_model.Value
module Heap = Mood_util.Heap
module Prng = Mood_util.Prng
module Executor = Mood_executor.Executor

let heading title =
  Printf.printf "\n================ %s ================\n" title

(* Smoke runs (CI) shrink the per-test measurement quota via
   MOOD_BENCH_QUOTA (seconds); the default 0.5 s is the real run. *)
let quota_seconds () =
  match Sys.getenv_opt "MOOD_BENCH_QUOTA" with
  | Some s -> (try float_of_string (String.trim s) with _ -> 0.5)
  | None -> 0.5

(* ---------------- fixtures ---------------- *)

let funcmgr_fixture () =
  let db = Db.create () in
  Mood_workload.Vehicle.define_schema (Db.catalog db);
  (match
     Db.exec db
       "DEFINE METHOD Vehicle::lbweight () Integer { return weight * 2 + weight % 7 - 1; }"
   with
  | Ok _ -> ()
  | Error m -> failwith m);
  let oid =
    Db.insert db ~class_name:"Vehicle"
      (Value.Tuple [ ("id", Value.Int 1); ("weight", Value.Int 1350) ])
  in
  (db, oid)

let query_fixture () =
  let db = Db.create ~buffer_capacity:4096 () in
  Mood_workload.Vehicle.define_schema (Db.catalog db);
  ignore (Mood_workload.Vehicle.generate ~catalog:(Db.catalog db) ~scale:0.01 ());
  Db.analyze db;
  db

(* The record codec on its own: 2,500 two-int rows as the heap stores
   them (slot-tagged tuples). *)
module Codec = Mood_model.Codec

let codec_rows = 2500

let codec_fixture () =
  let rng = Prng.create ~seed:5 in
  let records =
    Array.init codec_rows (fun i ->
        let v =
          Value.Tuple [ ("id", Value.Int i); ("weight", Value.Int (500 + Prng.int rng ~bound:2500)) ]
        in
        Value.Tuple [ ("#slot", Value.Int i); ("#value", v) ])
  in
  (records, Array.map Codec.encode records)

let tests () =
  let records, encoded = codec_fixture () in
  let db_f, oid = funcmgr_fixture () in
  let scope = Db.scope db_f in
  let funcs = Db.functions db_f in
  let value = Option.get (Catalog.get_object (Db.catalog db_f) oid) in
  let db_q = query_fixture () in
  let paper_db = Db.create () in
  Mood_workload.Vehicle.define_schema (Db.catalog paper_db);
  Db.set_stats paper_db (Mood_workload.Vehicle.paper_stats ());
  (* Warm the plan cache once so the "warm" benchmark measures steady
     state: normalize + O(1) lookup + execute, never a compile. The
     paper-stats database has no stored objects, so the pair isolates
     exactly what the cache removes: parse + typecheck + optimize +
     predicate compilation. *)
  ignore (Db.query paper_db Mood_workload.Vehicle.example_81);
  (* The compiled-vs-interpreted predicate pair evaluates one parsed
     WHERE clause over materialized binding rows — the same
     once-vs-every-call split as the funcmgr pair above, applied to
     predicates. *)
  let exec_env = Db.executor_env db_q in
  let pred_rows = (Db.query db_q "Select v From Vehicle v").Executor.rows in
  let bench_pred =
    match Mood_sql.Parser.parse
            "Select v From Vehicle v Where v.weight * 3 + v.id * 2 - v.weight % 5 > v.id * 4 \
             And v.id % 7 <> 3 And v.weight + v.id > 0"
    with
    | Mood_sql.Ast.Select q -> Option.get q.Mood_sql.Ast.where
    | _ -> assert false
  in
  let compiled_pred = Mood_executor.Compile.predicate bench_pred in
  let interpreted_pred = Mood_executor.Compile.interpret_predicate bench_pred in
  let sort_input =
    let rng = Prng.create ~seed:4 in
    List.init 2000 (fun _ -> Prng.int rng ~bound:1_000_000)
  in
  [ Test.make ~name:"funcmgr: compiled+linked invoke"
      (Staged.stage (fun () ->
           ignore (Fm.invoke funcs ~scope ~self:oid ~function_name:"lbweight" ~args:[])));
    Test.make ~name:"funcmgr: bound call on value"
      (Staged.stage (fun () ->
           ignore
             (Fm.invoke_stored funcs ~scope ~self:oid ~value ~function_name:"lbweight" ~args:[])));
    Test.make ~name:"funcmgr: interpreted invoke"
      (Staged.stage (fun () ->
           ignore (Fm.invoke_interpreted funcs ~self:oid ~function_name:"lbweight" ~args:[])));
    Test.make ~name:"parser: Example 8.1"
      (Staged.stage (fun () ->
           ignore (Mood_sql.Parser.parse Mood_workload.Vehicle.example_81)));
    Test.make ~name:"optimizer: Example 8.1 (Tables 13-15 stats)"
      (Staged.stage (fun () -> ignore (Db.optimize paper_db Mood_workload.Vehicle.example_81)));
    Test.make ~name:"executor: Example 8.2 @ scale 0.01"
      (Staged.stage (fun () -> ignore (Db.query db_q Mood_workload.Vehicle.example_82)));
    Test.make ~name:"plan cache: warm query (Example 8.1)"
      (Staged.stage (fun () -> ignore (Db.query paper_db Mood_workload.Vehicle.example_81)));
    Test.make ~name:"plan cache: cold query (Example 8.1)"
      (Staged.stage (fun () ->
           ignore (Db.query ~cache:false paper_db Mood_workload.Vehicle.example_81)));
    Test.make ~name:"predicate: compiled closures (per-row eval)"
      (Staged.stage (fun () ->
           List.iter (fun row -> ignore (compiled_pred exec_env row)) pred_rows));
    Test.make ~name:"predicate: interpreted AST walk (per-row eval)"
      (Staged.stage (fun () ->
           List.iter (fun row -> ignore (interpreted_pred exec_env row)) pred_rows));
    Test.make ~name:"algebra: heap sort with merging (2000 elems)"
      (Staged.stage (fun () ->
           ignore (Heap.sort_with_runs ~cmp:Int.compare ~run_length:256 sort_input)));
    Test.make ~name:"codec: heap record encode (2500 rows)"
      (Staged.stage (fun () -> Array.iter (fun r -> ignore (Codec.encode r)) records));
    Test.make ~name:"codec: heap record decode (2500 rows)"
      (Staged.stage (fun () -> Array.iter (fun s -> ignore (Codec.decode s)) encoded))
  ]

(* ---------------- method predicate allocation (one-shot) ---------------- *)

(* What a method call in a WHERE clause allocates per scanned row beyond
   the same predicate written inline: [Gc.minor_words] around warm runs
   of a COUNT and SUM over 5,000 Vehicles [WHERE v.lbweight() > 4800]
   and of its inline form [v.weight * 2 > 4800]. Allocation is deterministic, so the figure is exact.
   Binding the method and fetching its receiver on every call cost 321
   words a row; a call bound once per scope that runs on the row's
   value costs 7. *)
let method_pred_rows = 5_000

let method_pred_words () =
  let db = Db.create ~buffer_capacity:4096 () in
  Mood_workload.Vehicle.define_schema (Db.catalog db);
  (match Db.exec db "DEFINE METHOD Vehicle::lbweight () Integer { return weight * 2; }" with
  | Ok _ -> ()
  | Error m -> failwith m);
  for i = 0 to method_pred_rows - 1 do
    ignore
      (Db.insert db ~class_name:"Vehicle"
         (Value.Tuple
            [ ("id", Value.Int i); ("weight", Value.Int (800 + (i * 7919 mod 2200))) ]))
  done;
  let words_per_row where =
    let src = "SELECT COUNT(*), SUM(v.weight) FROM Vehicle v WHERE " ^ where in
    ignore (Db.query db src);
    let passes = 5 in
    let before = Gc.minor_words () in
    for _ = 1 to passes do
      ignore (Db.query db src)
    done;
    (Gc.minor_words () -. before) /. float_of_int (passes * method_pred_rows)
  in
  let with_method = words_per_row "v.lbweight() > 4800" in
  let inline = words_per_row "v.weight * 2 > 4800" in
  [ ("method_pred_words_per_row", with_method);
    ("inline_pred_words_per_row", inline);
    ("method_pred_extra_words_per_row", with_method -. inline)
  ]

(* ---------------- measurement ---------------- *)

(* Runs every benchmark and returns [(name, ns_per_run)] sorted by
   name — shared by the text report and the JSON emitter. *)
let measure () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second (quota_seconds ())) ~kde:(Some 1000) ()
  in
  let grouped = Test.make_grouped ~name:"mood" ~fmt:"%s %s" (tests ()) in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  let rows = ref [] in
  Hashtbl.iter
    (fun measure per_test ->
      if String.equal measure (Measure.label Instance.monotonic_clock) then
        Hashtbl.iter
          (fun name result ->
            match Analyze.OLS.estimates result with
            | Some [ ns_per_run ] -> rows := (name, ns_per_run) :: !rows
            | Some _ | None -> ())
          per_test)
    merged;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !rows

let find_ns rows suffix =
  List.find_map
    (fun (name, ns) ->
      let n = String.length name and s = String.length suffix in
      if n >= s && String.sub name (n - s) s = suffix then Some ns else None)
    rows

let speedup rows ~slow ~fast =
  match (find_ns rows slow, find_ns rows fast) with
  | Some s, Some f when f > 0. -> Some (s /. f)
  | _ -> None

(* ---------------- join engine (one-shot, not Bechamel) ---------------- *)

(* A 10k x 10k equi-join is far too heavy for a Bechamel loop, and the
   interesting number is a ratio, so the join section is a one-shot
   wall-clock comparison: the same skewed dataset joined by every
   method under a constrained memory budget (64 KB), which forces the
   Grace hash and sort-merge spill paths while the nested loop grinds
   through every pair. *)

module Store = Mood_storage.Store
module Mtype = Mood_model.Mtype
module Join_cost = Mood_cost.Join_cost
module Jplan = Mood_optimizer.Plan
module Ast = Mood_sql.Ast
module Eval = Mood_executor.Eval

let join_rows_per_side () =
  match Sys.getenv_opt "MOOD_BENCH_JOIN_ROWS" with
  | Some s -> (try max 100 (int_of_string (String.trim s)) with _ -> 10_000)
  | None -> 10_000

let join_mem_budget = 64 * 1024

(* Skewed: 90% unique keys (one match each), 10% in a 16-key hot band
   (quadratic duplicate blocks), plus padding so spilled partitions
   have real weight. *)
let join_fixture n =
  let store = Store.create ~buffer_capacity:256 () in
  let catalog = Catalog.create ~store in
  let attributes =
    [ ("k", Mtype.Basic Mtype.Integer); ("pad", Mtype.Basic (Mtype.String 16)) ]
  in
  ignore (Catalog.define_class catalog ~name:"BenchL" ~attributes ());
  ignore (Catalog.define_class catalog ~name:"BenchR" ~attributes ());
  let rng = Prng.create ~seed:7 in
  let insert cls k =
    ignore
      (Catalog.insert_object catalog ~class_name:cls
         (Value.Tuple
            [ ("k", Value.Int k);
              ("pad", Value.Str (Printf.sprintf "%012d" (Prng.int rng ~bound:1_000_000)))
            ]))
  in
  for i = 0 to n - 1 do
    insert "BenchL" (if i mod 10 = 0 then Prng.int rng ~bound:16 else i)
  done;
  for i = 0 to n - 1 do
    insert "BenchR" (if i mod 10 = 0 then Prng.int rng ~bound:16 else i)
  done;
  let funcs = Fm.create ~catalog in
  let scope = Fm.enter_scope funcs in
  { Eval.catalog;
    funcs;
    scope;
    join_mem_bytes = join_mem_budget;
    metrics = Mood_obs.Metrics.create ();
    skip_rewind = false
  }

let join_methods =
  [ ("nested_loop", Join_cost.Nested_loop);
    ("hash_join", Join_cost.Hash_join);
    ("grace_hash", Join_cost.Grace_hash);
    ("sort_merge", Join_cost.Sort_merge)
  ]

module Value_join = Mood_executor.Value_join

let join_counter env field =
  Mood_obs.Metrics.value (field (Value_join.counters env.Eval.metrics))

(* [(name, seconds, result rows, partitions spilled, spill bytes)] per
   method, same data, same budget. *)
let join_section () =
  let n = join_rows_per_side () in
  let env = join_fixture n in
  let pred = Ast.Cmp (Ast.Eq, Ast.Path ("l", [ "k" ]), Ast.Path ("r", [ "k" ])) in
  let bind class_name var = Jplan.Bind { class_name; var; every = false; minus = [] } in
  let plan method_ =
    Jplan.Join { left = bind "BenchL" "l"; right = bind "BenchR" "r"; method_; pred }
  in
  let parts (c : Value_join.counters) = c.Value_join.partitions_spilled
  and bytes (c : Value_join.counters) = c.Value_join.spill_bytes in
  List.map
    (fun (name, m) ->
      let parts0 = join_counter env parts and bytes0 = join_counter env bytes in
      let t0 = Unix.gettimeofday () in
      let rows = List.length (Executor.run env (plan m)).Executor.rows in
      let secs = Unix.gettimeofday () -. t0 in
      (name, secs, rows, join_counter env parts - parts0, join_counter env bytes - bytes0))
    join_methods

let join_secs timings = List.map (fun (name, secs, rows, _, _) -> (name, secs, rows)) timings

let join_speedup timings ~slow ~fast =
  match (List.find_opt (fun (n, _, _) -> n = slow) timings,
         List.find_opt (fun (n, _, _) -> n = fast) timings)
  with
  | Some (_, s, _), Some (_, f, _) when f > 0. -> Some (s /. f)
  | _ -> None

(* ---------------- scan engine (one-shot, not Bechamel) ---------------- *)

(* OLAP scan A/B: the same filtered aggregate over the same class,
   executed tuple-at-a-time from the row heap (interpreted and
   compiled lowering) and batch-at-a-time from the PAX segment. The
   class has a PAX layout, so the row plans read the authoritative
   heap while the vectorized plan reads the columnar mirror — the
   paper-style layout comparison on identical data. *)

let scan_rows () =
  match Sys.getenv_opt "MOOD_BENCH_SCAN_ROWS" with
  | Some s -> (try max 100 (int_of_string (String.trim s)) with _ -> 100_000)
  | None -> 100_000

(* GROUP BY over many groups: a row-layout class of 5,000 objects with
   2,200 distinct keys (0.44 per row), so finding each row's group is
   most of the work. Its size does not follow [scan_rows]. *)
let many_groups_rows = 5_000

let many_groups_keys = 2_200

let scan_fixture n =
  let store = Store.create ~buffer_capacity:4096 () in
  let catalog = Catalog.create ~store in
  let attributes =
    [ ("k", Mtype.Basic Mtype.Integer);
      ("grp", Mtype.Basic (Mtype.String 8));
      ("w", Mtype.Basic Mtype.Float)
    ]
  in
  ignore
    (Catalog.define_class catalog ~name:"ScanBench" ~attributes
       ~layout:Catalog.Pax ());
  let rng = Prng.create ~seed:11 in
  for i = 0 to n - 1 do
    ignore
      (Catalog.insert_object catalog ~class_name:"ScanBench"
         (Value.Tuple
            [ ("k", Value.Int i);
              ("grp", Value.Str (Printf.sprintf "g%d" (Prng.int rng ~bound:4)));
              ("w", Value.Float (float_of_int (Prng.int rng ~bound:1000) /. 8.))
            ]))
  done;
  ignore
    (Catalog.define_class catalog ~name:"ManyGroups"
       ~attributes:[ ("k", Mtype.Basic Mtype.Integer) ]
       ());
  for i = 0 to many_groups_rows - 1 do
    (* 7919 is prime to the key count: every key occurs, scattered *)
    ignore
      (Catalog.insert_object catalog ~class_name:"ManyGroups"
         (Value.Tuple [ ("k", Value.Int (i * 7919 mod many_groups_keys)) ]))
  done;
  (* Build the segment up front: the bench times scanning, not the
     one-time encode. *)
  (match Catalog.pax_store catalog "ScanBench" with
  | Some ps -> Mood_column.Pax_store.materialize ps
  | None -> failwith "ScanBench has no PAX segment");
  let funcs = Fm.create ~catalog in
  let scope = Fm.enter_scope funcs in
  { Eval.catalog;
    funcs;
    scope;
    join_mem_bytes = Join_cost.default_join_mem_bytes;
    metrics = Mood_obs.Metrics.create ();
    skip_rewind = false
  }

(* [(name, seconds, matching rows, extra JSON fields)] for the
   three engines, then the grouped A/B: GROUP BY the dictionary-coded
   [grp] with COUNT, SUM and AVG, through the row engine's compiled
   Group over the heap and through the grouped VSCAN over the PAX
   segment ("matches" is the COUNT summed over the groups), and the
   compiled Group over [many_groups_rows] row-layout objects with
   [many_groups_keys] keys. Each
   row-engine plan starts on an empty minor heap and reports the words
   its run promoted to the major heap per scanned row
   ([promoted_words_per_row]): a streaming pipeline promotes next to
   none, a materializing operator a whole row's worth. The last two
   runs time the VSCAN after writes: one insert into the tail page, then
   an update of every 16th row, which dirties every page; the second
   reports the rows its rebuilds re-read from the heap against the rows
   updated, and the minor words it allocated per row the rebuilds took
   from the kept batches instead ([minor_words_per_kept_row]). *)
let scan_section () =
  let n = scan_rows () in
  let env = scan_fixture n in
  let pred =
    Ast.And
      ( Ast.Cmp (Ast.Gt, Ast.Path ("s", [ "k" ]), Ast.Const (Value.Int (n / 2))),
        Ast.Cmp (Ast.Ne, Ast.Path ("s", [ "grp" ]), Ast.Const (Value.Str "g0")) )
  in
  let aggregates =
    [ Ast.Aggregate (Ast.Count, None);
      Ast.Aggregate (Ast.Sum, Some (Ast.Path ("s", [ "k" ])));
      Ast.Aggregate (Ast.Avg, Some (Ast.Path ("s", [ "w" ])))
    ]
  in
  let row_plan =
    Jplan.Group
      { source =
          Jplan.Select
            { source =
                Jplan.Bind
                  { class_name = "ScanBench"; var = "s"; every = false; minus = [] };
              var = "s";
              pred
            };
        by = [];
        having = None;
        aggregates
      }
  in
  let vscan_plan =
    Jplan.Vscan
      { class_name = "ScanBench";
        var = "s";
        every = false;
        minus = [];
        pred = Some pred;
        by = [];
        having = None;
        aggregates
      }
  in
  let count_of (result : Executor.result) =
    match result.Executor.rows with
    | [ row ] -> begin
        match List.assoc_opt "#agg" row with
        | Some it -> begin
            match it.Mood_algebra.Collection.value with
            | Value.Tuple fields -> begin
                match List.assoc_opt "COUNT(*)" fields with
                | Some (Value.Int c) -> c
                | _ -> -1
              end
            | _ -> -1
          end
        | None -> -1
      end
    | _ -> -1
  in
  let by = [ Ast.Path ("s", [ "grp" ]) ] in
  let grouped_row_plan =
    Jplan.Group
      { source =
          Jplan.Bind { class_name = "ScanBench"; var = "s"; every = false; minus = [] };
        by;
        having = None;
        aggregates
      }
  in
  let grouped_vscan_plan =
    Jplan.Vscan
      { class_name = "ScanBench";
        var = "s";
        every = false;
        minus = [];
        pred = None;
        by;
        having = None;
        aggregates
      }
  in
  let many_groups_plan =
    Jplan.Group
      { source =
          Jplan.Bind { class_name = "ManyGroups"; var = "m"; every = false; minus = [] };
        by = [ Ast.Path ("m", [ "k" ]) ];
        having = None;
        aggregates = [ Ast.Aggregate (Ast.Count, None) ]
      }
  in
  let grouped_count_of (result : Executor.result) =
    List.fold_left
      (fun acc row ->
        match List.assoc_opt "#agg" row with
        | Some { Mood_algebra.Collection.value = Value.Tuple fields; _ } -> begin
            match List.assoc_opt "COUNT(*)" fields with
            | Some (Value.Int c) -> acc + c
            | _ -> acc
          end
        | Some _ | None -> acc)
      0 result.Executor.rows
  in
  let time ?(count = count_of) ?(row_engine = false) name f =
    if row_engine then Gc.minor ();
    let promoted0 = (Gc.quick_stat ()).Gc.promoted_words in
    let t0 = Unix.gettimeofday () in
    let c = count (f ()) in
    let secs = Unix.gettimeofday () -. t0 in
    let promoted = (Gc.quick_stat ()).Gc.promoted_words -. promoted0 in
    ( name,
      secs,
      c,
      if row_engine then
        [ ("promoted_words_per_row", Printf.sprintf "%.2f" (promoted /. float_of_int n)) ]
      else [] )
  in
  let timings =
    [ time ~row_engine:true "row_interpreted" (fun () ->
          Executor.run ~mode:Executor.Interpreted env row_plan);
      time ~row_engine:true "row_compiled" (fun () -> Executor.run env row_plan);
      time "pax_vectorized" (fun () -> Executor.run env vscan_plan);
      time ~count:grouped_count_of ~row_engine:true "grouped_row_compiled" (fun () ->
          Executor.run env grouped_row_plan);
      time ~count:grouped_count_of "grouped_pax_vectorized" (fun () ->
          Executor.run env grouped_vscan_plan);
      time ~count:grouped_count_of "grouped_row_many_groups" (fun () ->
          Executor.run env many_groups_plan)
    ]
  in
  (* One new object, then the same VSCAN: what a write costs the scan
     after it — the segment's upkeep for one insert into the tail
     page. The object matches the filter, so one more row counts. *)
  let catalog = env.Eval.catalog in
  ignore
    (Catalog.insert_object catalog ~class_name:"ScanBench"
       (Value.Tuple [ ("k", Value.Int n); ("grp", Value.Str "g1"); ("w", Value.Float 0.5) ]));
  let after_insert = time "pax_vectorized_after_insert" (fun () -> Executor.run env vscan_plan) in
  let updated =
    List.fold_left
      (fun acc oid ->
        if Mood_model.Oid.slot oid mod 16 <> 0 then acc
        else
          match Catalog.get_object catalog oid with
          | Some (Value.Tuple _ as v) ->
              let w = match Value.tuple_get v "w" with Some (Value.Float w) -> w | _ -> 0. in
              if Catalog.update_object catalog oid (Value.tuple_set v "w" (Value.Float (w +. 1.)))
              then acc + 1
              else acc
          | Some _ | None -> acc)
      0
      (Catalog.extent_oids catalog "ScanBench")
  in
  let module M = Mood_column.Scan_metrics in
  let reread0 = M.m.M.rows_reread and scanned0 = M.m.M.rows_scanned in
  let words0 = Gc.minor_words () in
  let name, secs, c, _ = time "pax_vectorized_after_update" (fun () -> Executor.run env vscan_plan) in
  let words = Gc.minor_words () -. words0 in
  let reread = M.m.M.rows_reread - reread0 in
  let kept = M.m.M.rows_scanned - scanned0 - reread in
  timings
  @ [ after_insert;
      ( name,
        secs,
        c,
        [ ("rows_updated", string_of_int updated);
          ("rows_reread", string_of_int reread);
          ("minor_words_per_kept_row", Printf.sprintf "%.2f" (words /. float_of_int (max 1 kept)))
        ] )
    ]

let scan_secs scans = List.map (fun (name, secs, matches, _) -> (name, secs, matches)) scans

(* ---------------- drivers ---------------- *)

let run_benchmarks () =
  heading "Microbenchmarks (Bechamel, monotonic clock)";
  let rows = measure () in
  List.iter
    (fun (name, ns) -> Printf.printf "%-55s %12.1f ns/run\n" name ns)
    rows;
  (match
     speedup rows ~slow:"plan cache: cold query (Example 8.1)"
       ~fast:"plan cache: warm query (Example 8.1)"
   with
  | Some x -> Printf.printf "\nplan cache speedup (cold/warm):          %8.1fx\n" x
  | None -> ());
  (match
     speedup rows ~slow:"predicate: interpreted AST walk (per-row eval)"
       ~fast:"predicate: compiled closures (per-row eval)"
   with
  | Some x -> Printf.printf "predicate compile speedup (interp/comp): %8.1fx\n" x
  | None -> ());
  List.iter
    (fun (name, words) -> Printf.printf "%-40s %8.1f\n" name words)
    (method_pred_words ());
  print_endline
    "\n(the compiled-vs-interpreted gap is the paper's Section 2 argument for the\n\
    \ Function Manager: interpretation re-preprocesses, re-lexes and re-parses the\n\
    \ body on every call; the plan cache and predicate compiler apply the same\n\
    \ compile-once-invoke-many split to the query hot path)";
  heading
    (Printf.sprintf "Join engine: %d x %d skewed equi-join, %d KB budget"
       (join_rows_per_side ()) (join_rows_per_side ()) (join_mem_budget / 1024));
  let timings = join_section () in
  Printf.printf "%-20s %13s  %14s  %23s  %16s\n" "" "" "" "join.partitions_spilled"
    "join.spill_bytes";
  List.iter
    (fun (name, secs, rows, partitions, bytes) ->
      Printf.printf "%-20s %10.1f ms  %9d rows  %23d  %16d\n" name (secs *. 1000.) rows
        partitions bytes)
    timings;
  (match join_speedup (join_secs timings) ~slow:"nested_loop" ~fast:"grace_hash" with
  | Some x -> Printf.printf "\ngrace hash vs nested loop:               %8.1fx\n" x
  | None -> ());
  (match join_speedup (join_secs timings) ~slow:"nested_loop" ~fast:"sort_merge" with
  | Some x -> Printf.printf "sort-merge vs nested loop:               %8.1fx\n" x
  | None -> ());
  heading
    (Printf.sprintf "Scan engine: %d-row filtered aggregate and GROUP BY, row heap vs PAX"
       (scan_rows ()));
  let scans = scan_section () in
  List.iter
    (fun (name, secs, matches, extras) ->
      Printf.printf "%-28s %10.1f ms  %9d matches  %s\n" name (secs *. 1000.) matches
        (String.concat ", " (List.map (fun (k, v) -> k ^ " " ^ v) extras)))
    scans;
  let scans = scan_secs scans in
  (match join_speedup scans ~slow:"row_interpreted" ~fast:"pax_vectorized" with
  | Some x -> Printf.printf "\npax vectorized vs row interpreted:       %8.1fx\n" x
  | None -> ());
  match join_speedup scans ~slow:"grouped_row_compiled" ~fast:"grouped_pax_vectorized" with
  | Some x -> Printf.printf "grouped pax vs row compiled:             %8.1fx\n" x
  | None -> ()

(* JSON without a JSON library: names are fixed ASCII benchmark labels,
   so escaping is just quotes/backslashes. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let run_json ?(path = "BENCH_micro.json") () =
  let rows = measure () in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"benchmarks\": [\n";
  List.iteri
    (fun i (name, ns) ->
      Buffer.add_string buf
        (Printf.sprintf "    {\"name\": \"%s\", \"ns_per_run\": %.1f}%s\n"
           (json_escape name) ns
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  let timings = join_section () in
  Buffer.add_string buf "  ],\n  \"join\": {\n";
  Buffer.add_string buf
    (Printf.sprintf "    \"rows_per_side\": %d,\n    \"mem_budget_bytes\": %d,\n    \"methods\": [\n"
       (join_rows_per_side ()) join_mem_budget);
  List.iteri
    (fun i (name, secs, rows, partitions, bytes) ->
      Buffer.add_string buf
        (Printf.sprintf
           "      {\"name\": \"%s\", \"ms\": %.1f, \"rows\": %d, \
            \"join.partitions_spilled\": %d, \"join.spill_bytes\": %d}%s\n"
           (json_escape name) (secs *. 1000.) rows partitions bytes
           (if i = List.length timings - 1 then "" else ",")))
    timings;
  let method_words = method_pred_words () in
  let scans = scan_section () in
  Buffer.add_string buf "    ]\n  },\n  \"funcmgr\": {\n";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.map (fun (name, words) -> Printf.sprintf "    \"%s\": %.2f" name words) method_words));
  Buffer.add_string buf "\n  },\n  \"scan\": {\n";
  Buffer.add_string buf
    (Printf.sprintf "    \"rows\": %d,\n    \"methods\": [\n" (scan_rows ()));
  List.iteri
    (fun i (name, secs, matches, extras) ->
      Buffer.add_string buf
        (Printf.sprintf "      {\"name\": \"%s\", \"ms\": %.1f, \"matches\": %d%s}%s\n"
           (json_escape name) (secs *. 1000.) matches
           (String.concat ""
              (List.map (fun (k, v) -> Printf.sprintf ", \"%s\": %s" k v) extras))
           (if i = List.length scans - 1 then "" else ",")))
    scans;
  let scans = scan_secs scans in
  Buffer.add_string buf "    ]\n  },\n  \"derived\": {\n";
  let derived =
    [ ( "plan_cache_speedup",
        speedup rows ~slow:"plan cache: cold query (Example 8.1)"
          ~fast:"plan cache: warm query (Example 8.1)" );
      ( "predicate_compile_speedup",
        speedup rows ~slow:"predicate: interpreted AST walk (per-row eval)"
          ~fast:"predicate: compiled closures (per-row eval)" );
      ( "funcmgr_compile_speedup",
        speedup rows ~slow:"funcmgr: interpreted invoke"
          ~fast:"funcmgr: compiled+linked invoke" );
      ( "funcmgr_bound_call_speedup",
        speedup rows ~slow:"funcmgr: compiled+linked invoke"
          ~fast:"funcmgr: bound call on value" );
      ( "grace_vs_nested_speedup",
        join_speedup (join_secs timings) ~slow:"nested_loop" ~fast:"grace_hash" );
      ( "sort_merge_vs_nested_speedup",
        join_speedup (join_secs timings) ~slow:"nested_loop" ~fast:"sort_merge" );
      ("pax_vs_row_speedup", join_speedup scans ~slow:"row_interpreted" ~fast:"pax_vectorized");
      ( "grouped_pax_vs_row_speedup",
        join_speedup scans ~slow:"grouped_row_compiled" ~fast:"grouped_pax_vectorized" )
    ]
  in
  List.iteri
    (fun i (name, v) ->
      Buffer.add_string buf
        (Printf.sprintf "    \"%s\": %s%s\n" name
           (match v with Some x -> Printf.sprintf "%.2f" x | None -> "null")
           (if i = List.length derived - 1 then "" else ",")))
    derived;
  Buffer.add_string buf "  }\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s (%d benchmarks)\n" path (List.length rows)
