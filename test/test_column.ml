(* Tests for the columnar subsystem: page columns merged from a kept
   batch against a fresh build (nulls, empty strings, wide strings,
   off-kind cells), the derived segment's deterministic rebuilds and
   incremental upkeep, ANALYZE leaving cached pages alone, and the
   vectorized-vs-row differential oracle. *)

module Db = Mood.Db
module Catalog = Mood_catalog.Catalog
module Value = Mood_model.Value
module Mtype = Mood_model.Mtype
module Pax = Mood_column.Pax
module Pax_store = Mood_column.Pax_store
module Batch = Mood_column.Batch
module Scan_metrics = Mood_column.Scan_metrics
module Scan_oracle = Mood_sim.Scan_oracle
module Group_table = Mood_executor.Group_table
module Plan = Mood_optimizer.Plan
module Optimizer = Mood_optimizer.Optimizer
module Prng = Mood_util.Prng

let ok db src =
  match Db.exec db src with
  | Ok r -> r
  | Error m -> Alcotest.failf "unexpected error on %S: %s" src m

(* ------------------------------------------------------------------ *)
(* Page columns                                                        *)

let fuzz_schema =
  [| ("a", Pax.KInt); ("b", Pax.KFloat); ("c", Pax.KStr); ("d", Pax.KOther) |]

let gen_string rng =
  match Prng.int rng ~bound:8 with
  | 0 -> ""  (* empty string: a value, not a NULL *)
  | 1 -> String.make (200 + Prng.int rng ~bound:100) 'w'  (* wide *)
  | 2 | 3 -> "dup"  (* duplicate-heavy: dictionary bait *)
  | _ -> Printf.sprintf "s%d" (Prng.int rng ~bound:1000)

let gen_cell rng kind =
  if Prng.int rng ~bound:5 = 0 then Value.Null
  else
    match kind with
    | Pax.KInt ->
        if Prng.bool rng then Value.Int (Prng.int rng ~bound:8)
        else Value.Int ((Prng.int rng ~bound:1000) * 10_000_000)
    | Pax.KFloat -> Value.Float (float_of_int (Prng.int rng ~bound:100) /. 8.)
    | Pax.KStr -> Value.Str (gen_string rng)
    | Pax.KOther ->
        Value.set (List.init (Prng.int rng ~bound:3) (fun i -> Value.Int i))

(* [got] holds [want]'s slots and, column for column, the same kind of
   array, null bits and cells. *)
let same_cells what (want : Batch.t) (got : Batch.t) =
  if want.Batch.n <> got.Batch.n || want.Batch.slots <> got.Batch.slots then
    Alcotest.failf "%s: slots differ" what;
  let kind (col : Batch.column) =
    match col.Batch.data with
    | Batch.Ints _ -> "ints"
    | Batch.Floats _ -> "floats"
    | Batch.Strs _ -> "strs"
    | Batch.Values _ -> "values"
  in
  Array.iteri
    (fun c (attr, wcol) ->
      let gattr, gcol = got.Batch.columns.(c) in
      if attr <> gattr || kind wcol <> kind gcol then
        Alcotest.failf "%s: column %d is %s %s, want %s %s" what c gattr (kind gcol) attr (kind wcol);
      for i = 0 to want.Batch.n - 1 do
        if Batch.is_null wcol i <> Batch.is_null gcol i
           || Value.compare (Batch.cell wcol i) (Batch.cell gcol i) <> 0
        then
          Alcotest.failf "%s: %s[%d] is %s, want %s" what attr i
            (Value.to_string (Batch.cell gcol i))
            (Value.to_string (Batch.cell wcol i))
      done)
    want.Batch.columns

(* Every string column of [b] carries a dictionary without repeats. *)
let no_repeated_entry what (b : Batch.t) =
  Array.iter
    (fun (attr, (col : Batch.column)) ->
      match col.Batch.data with
      | Batch.Strs { dict; _ } ->
          if List.length (List.sort_uniq String.compare (Array.to_list dict)) <> Array.length dict
          then Alcotest.failf "%s: column %s repeats a dictionary entry" what attr
      | Batch.Ints _ | Batch.Floats _ | Batch.Values _ -> ())
    b.Batch.columns

(* [got] equals [want] cell for cell, then structurally: null bitmaps,
   NULL cells and dictionaries included. *)
let same_batch what (want : Batch.t) (got : Batch.t) =
  same_cells what want got;
  if compare want got <> 0 then Alcotest.failf "%s: null bitmaps or dictionaries differ" what

(* A page merged from a kept base batch plus re-read rows holds the
   columns a fresh build of its rows gives: off-kind cells on either
   side (which demote a column to [Values], or promote it back once they
   are gone), NULLs, deleted and added slots, and no repeated
   dictionary entry. *)
let test_merged_rebuild_bytes () =
  let rng = Prng.create ~seed:19 in
  let off_kind () =
    match Prng.int rng ~bound:3 with
    | 0 -> Value.Long 5L
    | 1 -> Value.Char 'q'
    | _ -> Value.Bool true
  in
  let cell kind = if Prng.int rng ~bound:12 = 0 then off_kind () else gen_cell rng kind in
  let tuple () =
    Value.Tuple (Array.to_list (Array.map (fun (name, kind) -> (name, cell kind)) fuzz_schema))
  in
  let heap_built slots rows =
    Pax.page_columns ~schema:fuzz_schema ~slots ~base:None
      ~from_base:(Array.make (Array.length slots) (-1)) ~rows
  in
  for round = 1 to 300 do
    (* the base: every other slot of 0 .. 2m, some rows later rewritten *)
    let m = Prng.int rng ~bound:80 in
    let base_rows = Array.init m (fun _ -> tuple ()) in
    let base = heap_built (Array.init m (fun i -> 2 * i)) base_rows in
    no_repeated_entry (Printf.sprintf "round %d, base" round) base;
    (* the page now: base slots minus some, plus odd slots; rows kept,
       rewritten or new *)
    let now = ref [] in
    for slot = (2 * m) + 3 downto 0 do
      let in_base = slot mod 2 = 0 && slot < 2 * m in
      match Prng.int rng ~bound:4 with
      | 0 when in_base -> () (* deleted *)
      | 1 | 2 when in_base -> now := (slot, base_rows.(slot / 2), slot / 2) :: !now
      | _ when in_base || Prng.int rng ~bound:3 = 0 -> now := (slot, tuple (), -1) :: !now
      | _ -> ()
    done;
    let now = Array.of_list !now in
    let slots = Array.map (fun (slot, _, _) -> slot) now in
    let rows = Array.map (fun (_, row, _) -> row) now in
    let from_base = Array.map (fun (_, _, i) -> i) now in
    let merged =
      Pax.page_columns ~schema:fuzz_schema ~slots ~base:(Some base) ~from_base
        ~rows:(Array.mapi (fun j row -> if from_base.(j) >= 0 then Value.Null else row) rows)
    in
    let what = Printf.sprintf "round %d, %d rows merged" round (Array.length slots) in
    same_batch what (heap_built slots rows) merged;
    no_repeated_entry what merged
  done

(* ------------------------------------------------------------------ *)
(* Derived segment: determinism, incremental upkeep, ANALYZE           *)

let pax_db () =
  let db = Db.create () in
  ignore
    (ok db
       "CREATE CLASS PaxT TUPLE (k Integer, name String(16), w Float) LAYOUT PAX");
  for i = 1 to 400 do
    ignore
      (ok db
         (Printf.sprintf "new PaxT <%d, '%s', %d.5>" i
            (if i mod 4 = 0 then "steel" else "alloy")
            (i mod 9)))
  done;
  let ps =
    match Catalog.pax_store (Db.catalog db) "PaxT" with
    | Some ps -> ps
    | None -> Alcotest.fail "PAX class has no segment"
  in
  (db, ps)

let test_rebuild_determinism () =
  let db, ps = pax_db () in
  Pax_store.materialize ps;
  let batches0 = Pax_store.page_batches ps in
  Alcotest.(check bool) "several pages" true (List.length batches0 > 1);
  Pax_store.invalidate_all ps;
  Pax_store.materialize ps;
  Alcotest.(check bool) "identical rebuild" true (compare batches0 (Pax_store.page_batches ps) = 0);
  (* Incremental upkeep: after each write and the scan that follows,
     every batch equals a fresh build of its page's heap rows. Row [k]
     sits in slot [k - 1], so page 1 holds k in (rpp, 2 rpp]. *)
  let ext = Catalog.own_extent (Db.catalog db) "PaxT" in
  let rpp = Pax_store.rows_per_page ps in
  let scan_and_check what =
    ignore (ok db "SELECT COUNT(*) FROM PaxT p");
    match Scan_oracle.batch_mismatches ps ext with
    | [] -> ()
    | m :: _ -> Alcotest.failf "after %s: %s" what m
  in
  ignore (ok db "SET SCAN_FORCE VECTOR");
  let reread0 = Scan_metrics.m.Scan_metrics.rows_reread in
  ignore (ok db "UPDATE PaxT p SET w = 0.5 WHERE p.k = 3");
  scan_and_check "an update";
  Alcotest.(check int) "the rebuild re-reads only the written row" 1
    (Scan_metrics.m.Scan_metrics.rows_reread - reread0);
  ignore (ok db "UPDATE PaxT p SET name = 'tin' WHERE p.k > 90 AND p.k < 300");
  scan_and_check "an update across pages";
  ignore
    (ok db
       (Printf.sprintf "DELETE FROM PaxT p WHERE p.k > %d AND p.k <= %d" rpp (2 * rpp)));
  scan_and_check "a delete that empties a page";
  ignore (ok db "new PaxT <401, 'tail', 1.5>");
  scan_and_check "an insert into the tail page";
  Mood_storage.Extent.insert_at ext ~slot:(rpp + 3)
    (Value.Tuple [ ("k", Value.Int 0); ("name", Value.Str "gap"); ("w", Value.Float 2.5) ]);
  scan_and_check "an insert into a gap";
  ignore (ok db "UPDATE PaxT p SET k = p.k + 1000 WHERE p.name = 'gap' OR p.k = 2");
  ignore (ok db "DELETE FROM PaxT p WHERE p.k = 5");
  scan_and_check "an update and a delete on one page";
  (* Negative control: a write the hook never sees leaves a stale
     batch, and the comparison must report it. *)
  Mood_storage.Extent.set_mutation_hook ext None;
  ignore (ok db "UPDATE PaxT p SET w = 9.5 WHERE p.k = 7");
  ignore (ok db "SELECT COUNT(*) FROM PaxT p");
  Alcotest.(check bool) "an unhooked update is reported" true
    (Scan_oracle.batch_mismatches ps ext <> [])

(* ANALYZE refreshes statistics and leaves the segment alone: a scan
   after it is served from the batches the scan before it cached. *)
let test_analyze_keeps_batches () =
  let db = Db.create () in
  ignore (ok db "CREATE CLASS Dicty TUPLE (lowc String(8), n Integer) LAYOUT PAX");
  for i = 1 to 2000 do
    ignore (ok db (Printf.sprintf "new Dicty <'%s', %d>" (if i mod 2 = 0 then "even" else "odd") i))
  done;
  ignore (ok db "SET SCAN_FORCE VECTOR");
  let src = "SELECT d.lowc, COUNT(*) FROM Dicty d GROUP BY d.lowc" in
  let before = Mood_executor.Executor.result_values (Db.query db src) in
  let built0 = Scan_metrics.m.Scan_metrics.pages_built in
  Db.analyze db;
  let after = Mood_executor.Executor.result_values (Db.query db src) in
  Alcotest.(check int) "no page rebuilt" 0 (Scan_metrics.m.Scan_metrics.pages_built - built0);
  Alcotest.(check (list string)) "same answer" (List.map Value.to_string before)
    (List.map Value.to_string after)

(* ------------------------------------------------------------------ *)
(* End-to-end: DDL, plans, knob, metrics                               *)

let test_pax_end_to_end () =
  let db = Db.create () in
  (match ok db "CREATE CLASS Part TUPLE (pid Integer, cat String(8)) LAYOUT PAX" with
  | Db.Class_created "Part" -> ()
  | _ -> Alcotest.fail "create result");
  for i = 1 to 100 do
    ignore
      (ok db
         (Printf.sprintf "new Part <%d, '%s'>" i
            (if i mod 3 = 0 then "steel" else "alloy")))
  done;
  Db.analyze db;
  let plan = Db.explain db "SELECT COUNT(*) FROM Part p WHERE p.pid > 50" in
  Alcotest.(check bool) "optimizer picks the vectorized scan" true
    (Helpers.contains plan "VSCAN");
  let b0 = Scan_metrics.m.Scan_metrics.batches in
  let r = Db.query db "SELECT COUNT(*) FROM Part p WHERE p.pid > 50" in
  (match Mood_executor.Executor.result_values r with
  | [ Value.Tuple [ (_, Value.Int 50) ] ] -> ()
  | vs ->
      Alcotest.failf "wrong count: %s"
        (String.concat ";" (List.map Value.to_string vs)));
  Alcotest.(check bool) "batches ticked" true
    (Scan_metrics.m.Scan_metrics.batches > b0);
  (* scan.* flows through the metrics registry. *)
  let snap = Db.metrics_snapshot db in
  Alcotest.(check bool) "scan.batches surfaced" true
    (List.exists (fun (k, _) -> k = "scan.batches") snap);
  (* EXPLAIN ANALYZE carries the batch counts. *)
  let analyzed = Db.explain_analyze db "SELECT COUNT(*) FROM Part p" in
  Alcotest.(check bool) "explain analyze shows batches" true
    (Helpers.contains analyzed "vectorized:");
  (* The knob forces the row engine; the plan label changes back. *)
  ignore (ok db "SET SCAN_FORCE ROW");
  let plan_row = Db.explain db "SELECT COUNT(*) FROM Part p WHERE p.pid > 50" in
  Alcotest.(check bool) "forced row plan has no vscan" true
    (not (Helpers.contains plan_row "VSCAN"));
  ignore (ok db "SET SCAN_FORCE DEFAULT");
  (* ALTER back to row layout drops the segment. *)
  (match ok db "ALTER CLASS Part SET LAYOUT ROW" with
  | Db.Layout_altered ("Part", "ROW") -> ()
  | _ -> Alcotest.fail "alter result");
  Alcotest.(check bool) "segment dropped" true
    (Catalog.pax_store (Db.catalog db) "Part" = None);
  let r = Db.query db "SELECT COUNT(*) FROM Part p" in
  (match Mood_executor.Executor.result_values r with
  | [ Value.Tuple [ (_, Value.Int 100) ] ] -> ()
  | _ -> Alcotest.fail "count after layout switch");
  (* And forward again: ALTER ... PAX rebuilds lazily. *)
  (match ok db "ALTER CLASS Part SET LAYOUT PAX" with
  | Db.Layout_altered ("Part", "PAX") -> ()
  | _ -> Alcotest.fail "alter result");
  Alcotest.(check bool) "segment recreated" true
    (Catalog.pax_store (Db.catalog db) "Part" <> None);
  let r = Db.query db "SELECT COUNT(*) FROM Part p" in
  match Mood_executor.Executor.result_values r with
  | [ Value.Tuple [ (_, Value.Int 100) ] ] -> ()
  | _ -> Alcotest.fail "count after switch back"

(* ------------------------------------------------------------------ *)
(* Grouped aggregation in the vectorized scan                          *)

(* The group table's hash must agree with the row engine's group
   equality ([Value.equal] over the key list). *)
let test_group_hash_agrees_with_equal () =
  let tbl = Group_table.create ~labels:[] ~fresh:ignore in
  let same what a b =
    Alcotest.(check bool) (what ^ ": equal") true (List.equal Value.equal a b);
    Alcotest.(check int) (what ^ ": hash") (Group_table.hash_key a) (Group_table.hash_key b);
    Alcotest.(check bool) (what ^ ": one group") true
      (Group_table.find tbl a == Group_table.find tbl b)
  in
  same "Int/Long" [ Value.Int 3 ] [ Value.Long 3L ];
  same "Int/Float" [ Value.Int 3 ] [ Value.Float 3.0 ];
  same "-0.0/0.0" [ Value.Float (-0.0) ] [ Value.Float 0.0 ];
  same "NULL" [ Value.Null ] [ Value.Null ];
  same "two-part" [ Value.Float 2.0; Value.Str "x" ] [ Value.Long 2L; Value.Str "x" ];
  same "set"
    [ Value.set [ Value.Int 1; Value.Int 2 ] ]
    [ Value.set [ Value.Float 2.; Value.Long 1L ] ];
  Alcotest.(check bool) "Str/Char: two groups" true
    (Group_table.find tbl [ Value.Str "a" ] != Group_table.find tbl [ Value.Char 'a' ]);
  Alcotest.(check bool) "NULL/0: two groups" true
    (Group_table.find tbl [ Value.Null ] != Group_table.find tbl [ Value.Int 0 ]);
  (* Random numeric keys: equal under [Value.equal] implies equal hash. *)
  let rng = Prng.create ~seed:5 in
  let numeric () =
    let x = Prng.int rng ~bound:7 - 3 in
    match Prng.int rng ~bound:3 with
    | 0 -> Value.Int x
    | 1 -> Value.Long (Int64.of_int x)
    | _ -> Value.Float (float_of_int x)
  in
  for _ = 1 to 500 do
    let a = [ numeric (); numeric () ] and b = [ numeric (); numeric () ] in
    if List.equal Value.equal a b then
      Alcotest.(check int) "random equal keys hash alike" (Group_table.hash_key a)
        (Group_table.hash_key b)
  done;
  (* Through the table's rows, as both engines emit them: groups in
     order of first appearance, each with its first member and its
     fold. Member [i] is the [i]th row in. *)
  let tbl = Group_table.create ~labels:[ "COUNT(*)" ] ~fresh:(fun _ -> ref 0) in
  let member i =
    [ ("m", { Mood_algebra.Collection.oid = None; value = Value.Int i }) ]
  in
  List.iteri
    (fun i key ->
      let g = Group_table.find tbl [ key ] in
      Group_table.keep_first g member i;
      incr g.Group_table.accs.(0))
    [ Value.Str "b"; Value.Str "a"; Value.Int 2; Value.Str "b"; Value.Float 2.0;
      Value.Str "c"; Value.Str "a" ];
  let rows = ref [] in
  Group_table.iter_rows tbl
    ~final:(fun _ n -> Value.Int !n)
    (fun row ->
      rows :=
        String.concat ", "
          (List.map
             (fun (var, it) -> var ^ "=" ^ Value.to_string it.Mood_algebra.Collection.value)
             row)
        :: !rows);
  Alcotest.(check (list string)) "first appearance, first member"
    [ "m=0, #agg=<COUNT(*): 2>"; "m=1, #agg=<COUNT(*): 2>"; "m=2, #agg=<COUNT(*): 2>";
      "m=5, #agg=<COUNT(*): 1>" ]
    (List.rev !rows)

let rec plan_nodes (node : Plan.node) =
  node
  ::
  (match node with
  | Plan.Sort { source; _ } | Plan.Project { source; _ } | Plan.Group { source; _ }
  | Plan.Select { source; _ } | Plan.Ind_sel { source; _ } ->
      plan_nodes source
  | Plan.Join { left; right; _ } -> plan_nodes left @ plan_nodes right
  | Plan.Union nodes -> List.concat_map plan_nodes nodes
  | Plan.Bind _ | Plan.Named_obj _ | Plan.Path_ind_sel _ | Plan.Vscan _ -> [])

let count_nodes f node = List.length (List.filter f (plan_nodes node))

let is_group = function Plan.Group _ -> true | _ -> false

let is_grouped_vscan = function
  | Plan.Vscan { by; _ } -> by <> []
  | _ -> false

let plan_aggregates node =
  List.concat_map
    (function
      | Plan.Group { aggregates; _ } | Plan.Vscan { aggregates; _ } -> aggregates
      | _ -> [])
    (plan_nodes node)

let company_db () =
  let db = Db.create () in
  ignore
    (ok db "CREATE CLASS Firm TUPLE (name String(16), location String(12), staff Integer) LAYOUT PAX");
  ignore (ok db "CREATE CLASS Shop TUPLE (city String(12), size Integer)");
  ignore (ok db "DEFINE METHOD Firm::band () Integer { return staff / 10; }");
  let cities = [| "Ankara"; "Izmir"; "Bursa"; "Seoul"; "Tokyo" |] in
  for i = 1 to 400 do
    ignore
      (ok db
         (Printf.sprintf "new Firm <'f%d', '%s', %d>" i cities.((i * i) mod 5) (i mod 37)));
    if i mod 4 = 0 then
      ignore (ok db (Printf.sprintf "new Shop <'%s', %d>" cities.(i mod 5) i))
  done;
  Db.analyze db;
  db

let benchmark_group_by =
  "SELECT c.location, COUNT(*) FROM Firm c GROUP BY c.location HAVING COUNT(*) > 70 \
   ORDER BY c.location"

(* The benchmark's Company GROUP BY: one VSCAN carrying BY and HAVING,
   no GROUP node, the count computed once although SELECT and HAVING
   both name it, and the same ordered answer from both engines. *)
let test_grouped_fusion_plan () =
  let db = company_db () in
  ignore (ok db "SET SCAN_FORCE VECTOR");
  let plan = (Db.optimize db benchmark_group_by).Optimizer.plan in
  Alcotest.(check int) "one grouped VSCAN" 1 (count_nodes is_grouped_vscan plan);
  Alcotest.(check int) "no GROUP node" 0 (count_nodes is_group plan);
  Alcotest.(check (list string)) "COUNT once" [ "COUNT(*)" ]
    (List.map Mood_sql.Ast.expr_to_string (plan_aggregates plan));
  let explained = Db.explain db benchmark_group_by in
  Alcotest.(check bool) "EXPLAIN shows BY and HAVING" true
    (Helpers.contains explained "VSCAN(Firm, c, BY c.location, [COUNT(*)], HAVING COUNT(*) > 70)");
  let vector = Mood_executor.Executor.result_values (Db.query db benchmark_group_by) in
  ignore (ok db "SET SCAN_FORCE ROW");
  let row_plan = (Db.optimize db benchmark_group_by).Optimizer.plan in
  Alcotest.(check (list string)) "row plan: COUNT once" [ "COUNT(*)" ]
    (List.map Mood_sql.Ast.expr_to_string (plan_aggregates row_plan));
  let row = Mood_executor.Executor.result_values (Db.query db benchmark_group_by) in
  Alcotest.(check (list string)) "same ordered answer"
    (List.map Value.to_string row) (List.map Value.to_string vector);
  Alcotest.(check bool) "HAVING filtered some groups" true
    (List.length vector > 0 && List.length vector < 5)

(* Shapes the vectorized scan cannot group keep the row engine's
   GROUP: a row-layout class, a method-call key, a method-call
   aggregate argument. Predicates it cannot bind stay out of VSCAN even
   when vectors are forced, so the scan needs no row fallback. *)
let test_grouped_fusion_limits () =
  let db = company_db () in
  let keeps_group src =
    let plan = (Db.optimize db src).Optimizer.plan in
    Alcotest.(check int) (src ^ ": GROUP kept") 1 (count_nodes is_group plan);
    Alcotest.(check int) (src ^ ": no grouped VSCAN") 0 (count_nodes is_grouped_vscan plan)
  in
  keeps_group "SELECT s.city, COUNT(*) FROM Shop s GROUP BY s.city";
  keeps_group "SELECT c.band(), COUNT(*) FROM Firm c GROUP BY c.band()";
  keeps_group "SELECT c.location, SUM(c.band()) FROM Firm c GROUP BY c.location";
  (* Forced onto vectors, the row-layout class groups over transient
     batches, and both engines agree. *)
  let src = "SELECT s.city, COUNT(*), SUM(s.size) FROM Shop s GROUP BY s.city ORDER BY s.city" in
  let row = Mood_executor.Executor.result_values (Db.query db src) in
  ignore (ok db "SET SCAN_FORCE VECTOR");
  Alcotest.(check int) "forced: grouped VSCAN" 1
    (count_nodes is_grouped_vscan (Db.optimize db src).Optimizer.plan);
  let vector = Mood_executor.Executor.result_values (Db.query db src) in
  ignore (ok db "SET SCAN_FORCE DEFAULT");
  Alcotest.(check (list string)) "transient batches agree"
    (List.map Value.to_string row) (List.map Value.to_string vector);
  let answers force src =
    ignore (ok db ("SET SCAN_FORCE " ^ force));
    let values = Mood_executor.Executor.result_values (Db.query db src) in
    ignore (ok db "SET SCAN_FORCE DEFAULT");
    List.map Value.to_string values
  in
  List.iter
    (fun where ->
      let src = "SELECT c.name FROM Firm c WHERE " ^ where ^ " ORDER BY c.name" in
      ignore (ok db "SET SCAN_FORCE VECTOR");
      let plan = (Db.optimize db src).Optimizer.plan in
      ignore (ok db "SET SCAN_FORCE DEFAULT");
      List.iter
        (function
          | Plan.Vscan { pred = Some p; _ } ->
              Alcotest.(check bool) (src ^ ": no method call in a VSCAN") false
                (Helpers.contains (Mood_sql.Ast.predicate_to_string p) "band()")
          | _ -> ())
        (plan_nodes plan);
      let vector = answers "VECTOR" src in
      Alcotest.(check bool) (src ^ ": some rows") true (vector <> []);
      Alcotest.(check (list string)) (src ^ ": forced vector = forced row")
        (answers "ROW" src) vector)
    [ "c.band() > 1"; "c.staff > 3 AND c.band() > 1" ]

(* ------------------------------------------------------------------ *)
(* Differential oracle                                                 *)

let test_differential_oracle () =
  let r = Test_sim.clean_sweep Scan_oracle.phase ~quota:5 ~base_seed:2026 in
  Alcotest.(check int) "cycles" 5 r.cycles;
  (* Real rows compared, and grouped plans compared in order. *)
  Test_sim.exercised r [ "oracle rows"; "grouped checks" ]

let test_oracle_catches_sabotage () =
  let r = Test_sim.sabotaged_sweep Scan_oracle.phase ~quota:2 ~base_seed:2026 in
  Test_sim.exercised r [ "grouped violations" ]

let suites =
  [ ( "column",
      [ Alcotest.test_case "merged rebuild bytes" `Quick test_merged_rebuild_bytes;
        Alcotest.test_case "rebuild determinism" `Quick test_rebuild_determinism;
        Alcotest.test_case "analyze keeps batches" `Quick test_analyze_keeps_batches;
        Alcotest.test_case "pax end to end" `Quick test_pax_end_to_end;
        Alcotest.test_case "group hash agrees with equal" `Quick
          test_group_hash_agrees_with_equal;
        Alcotest.test_case "grouped fusion plan" `Quick test_grouped_fusion_plan;
        Alcotest.test_case "grouped fusion limits" `Quick test_grouped_fusion_limits;
        Alcotest.test_case "differential oracle" `Quick test_differential_oracle;
        Alcotest.test_case "oracle catches sabotage" `Quick test_oracle_catches_sabotage
      ] )
  ]
