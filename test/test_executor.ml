(* End-to-end executor tests: optimized plans must return exactly the
   rows a naive evaluator (cross product + predicate filter) returns,
   across join methods, DNF/UNION queries, grouping, ordering and
   method invocation. *)

module Db = Mood.Db
module Executor = Mood_executor.Executor
module Eval = Mood_executor.Eval
module Collection = Mood_algebra.Collection
module Catalog = Mood_catalog.Catalog
module Parser = Mood_sql.Parser
module Ast = Mood_sql.Ast
module Value = Mood_model.Value
module Oid = Mood_model.Oid
module Plan = Mood_optimizer.Plan
module Join_cost = Mood_cost.Join_cost
module Store = Mood_storage.Store

(* One shared database: building it is the expensive part. *)
let shared = lazy (
  let db = Db.create ~buffer_capacity:512 () in
  Mood_workload.Vehicle.define_schema (Db.catalog db);
  let g = Mood_workload.Vehicle.generate ~catalog:(Db.catalog db) ~scale:0.01 () in
  (* name a few companies deterministically for equality predicates *)
  (match Db.exec db "UPDATE Company c SET name = 'BMW' WHERE c.name = 'Company-000003'" with
  | Ok _ -> ()
  | Error m -> failwith m);
  Db.analyze db;
  (db, g))

let db () = fst (Lazy.force shared)

let oids_of src = Executor.result_oids (Db.query (db ()) src)

(* Naive oracle: evaluate the WHERE over the cross product of the deep
   extents, no optimizer involved. *)
let naive_oids src =
  let d = db () in
  let cat = Db.catalog d in
  let q = Parser.parse_query src in
  let env = Db.executor_env d in
  let items_of (item : Ast.from_item) =
    Catalog.extent_oids cat ~every:true ~minus:item.Ast.minus item.Ast.class_name
    |> List.filter_map (fun oid ->
           Option.map
             (fun value -> (item.Ast.var, { Collection.oid = Some oid; value }))
             (Catalog.get_object cat oid))
  in
  let rec rows acc = function
    | [] -> [ List.rev acc ]
    | item :: rest ->
        List.concat_map (fun binding -> rows (binding :: acc) rest) (items_of item)
  in
  let all = rows [] q.Ast.from in
  let keep row =
    match q.Ast.where with None -> true | Some p -> Eval.predicate env row p
  in
  let selected = List.filter keep all in
  (* project the single selected variable, as the tests query SELECT v *)
  let var =
    match q.Ast.select with
    | [ { Ast.expr = Ast.Path (v, []); _ } ] -> v
    | _ -> failwith "oracle supports single-variable SELECT only"
  in
  selected
  |> List.filter_map (fun row ->
         match List.assoc_opt var row with
         | Some ({ Collection.oid = Some oid; _ } : Collection.item) -> Some oid
         | _ -> None)
  |> List.sort_uniq Oid.compare

let check_against_oracle src =
  let fast = List.sort Oid.compare (oids_of src) in
  let slow = naive_oids src in
  Alcotest.(check int) (src ^ " (cardinality)") (List.length slow) (List.length fast);
  Alcotest.(check bool) (src ^ " (same oids)") true (List.for_all2 Oid.equal slow fast)

(* ---------------- Path queries across join methods ---------------- *)

let test_example_82_execution () =
  check_against_oracle Mood_workload.Vehicle.example_82

let test_example_81_execution () =
  check_against_oracle Mood_workload.Vehicle.example_81

let test_single_hop_path () =
  check_against_oracle "SELECT v FROM Vehicle v WHERE v.drivetrain.transmission = 'AUTOMATIC'"

let test_immediate_selection () =
  check_against_oracle "SELECT v FROM Vehicle v WHERE v.weight > 2000"

let test_conjunction_mixed () =
  check_against_oracle
    "SELECT v FROM Vehicle v WHERE v.weight > 1200 AND v.drivetrain.engine.cylinders = 4"

let test_explicit_join_query () =
  check_against_oracle
    "SELECT c FROM EVERY Automobile - JapaneseAuto c, VehicleEngine v WHERE \
     c.drivetrain.transmission = 'AUTOMATIC' AND c.drivetrain.engine = v AND v.cylinders > 4"

let test_disjunction_union () =
  check_against_oracle
    "SELECT v FROM Vehicle v WHERE v.weight < 900 OR v.drivetrain.engine.cylinders = 2"

let test_union_deduplicates () =
  (* both disjuncts hold for many vehicles: no duplicates may appear *)
  let src = "SELECT v FROM Vehicle v WHERE v.weight > 0 OR v.id >= 0" in
  let all = oids_of src in
  Alcotest.(check int) "every vehicle exactly once" 200 (List.length all)

let test_minus_excludes_subclass () =
  let every = oids_of "SELECT v FROM EVERY Vehicle v" in
  let minus = oids_of "SELECT v FROM EVERY Vehicle - JapaneseAuto v" in
  let japanese = oids_of "SELECT j FROM JapaneseAuto j" in
  Alcotest.(check int) "partition sizes" (List.length every)
    (List.length minus + List.length japanese)

(* ---------------- Forced join methods agree ---------------- *)

let run_plan ?(d = db ()) plan = Executor.run (Db.executor_env d) plan

let pointer_methods =
  [ Join_cost.Forward_traversal;
    Join_cost.Hash_partition;
    Join_cost.Backward_traversal;
    Join_cost.Binary_join_index
  ]

let bind cls var = Plan.Bind { class_name = cls; var; every = false; minus = [] }

(* [e.cylinders = 2] over VehicleEngine: filtered after a scan, or
   probed through an index on [cylinders]. *)
let engines_selected =
  Plan.Select
    { source = bind "VehicleEngine" "e";
      var = "e";
      pred = Parser.parse_predicate "e.cylinders = 2"
    }

let engines_indexed =
  Plan.Ind_sel
    { source = bind "VehicleEngine" "e";
      preds =
        [ { Plan.ip_attr = "cylinders";
            ip_cmp = Ast.Eq;
            ip_constant = Value.Int 2;
            ip_kind = `Btree
          }
        ]
    }

let pointer_join_plan ?(right = engines_selected) method_ =
  (* JOIN(BIND(Vehicle,v), right, method, ...) through drivetrain.engine
     — a two-hop pointer predicate *)
  Plan.Join
    { left = Plan.Bind { class_name = "Vehicle"; var = "v"; every = true; minus = [] };
      right;
      method_;
      pred = Ast.Cmp (Ast.Eq, Ast.Path ("v", [ "drivetrain"; "engine" ]), Ast.Path ("e", []))
    }

(* The shared database's vehicles with a B+-tree on
   VehicleEngine(cylinders), which [engines_indexed] probes; kept apart
   so the shared database's indexes do not depend on test order. *)
let indexed = lazy (
  let d = Db.create ~buffer_capacity:512 () in
  Mood_workload.Vehicle.define_schema (Db.catalog d);
  ignore (Mood_workload.Vehicle.generate ~catalog:(Db.catalog d) ~scale:0.01 ());
  (match Db.exec d "CREATE BTREE INDEX ON VehicleEngine (cylinders)" with
  | Ok _ -> ()
  | Error m -> failwith m);
  d)

let sorted_oids r = List.sort Oid.compare (Executor.result_oids r)

let check_same_oids what expected actual =
  Alcotest.(check int) (what ^ ": same cardinality") (List.length expected) (List.length actual);
  Alcotest.(check bool) (what ^ ": same oids") true (List.for_all2 Oid.equal expected actual)

let test_all_join_methods_agree () =
  let agree ?d ?right label =
    match
      List.map (fun m -> sorted_oids (run_plan ?d (pointer_join_plan ?right m))) pointer_methods
    with
    | first :: rest ->
        Alcotest.(check bool) (label ^ ": non-empty") true (first <> []);
        List.iter (check_same_oids label first) rest;
        first
    | [] -> Alcotest.fail "no methods"
  in
  ignore (agree "SELECT right side");
  (* An index selection on the right: every method reads it through
     the index and matches the targets against its rows. *)
  let d = Lazy.force indexed in
  let via_index = agree ~d ~right:engines_indexed "IND_SEL right side" in
  check_same_oids "IND_SEL = SELECT" (agree ~d "SELECT right side, indexed database") via_index

(* Backward traversal compares the last hop's OIDs unfetched: after a
   cache drop, both extents are scanned and the join itself touches no
   page, so it charges no random read. *)
let test_backward_traversal_fetches_no_target () =
  let d = db () in
  let plan method_ =
    Plan.Join
      { left = Plan.Bind { class_name = "Vehicle"; var = "v"; every = true; minus = [] };
        right = bind "Company" "c";
        method_;
        pred = Ast.Cmp (Ast.Eq, Ast.Path ("v", [ "company" ]), Ast.Path ("c", []))
      }
  in
  let store = Db.store d in
  Store.drop_cache store;
  let result, reports =
    Executor.run_analyzed ~disk:(Store.disk store) ~buffer:(Store.buffer store)
      (Db.executor_env d) (Executor.prepare (plan Join_cost.Backward_traversal))
  in
  (match reports with
  | [ join; left; right ] ->
      Alcotest.(check bool) "both sides scanned from disk" true
        (left.Executor.r_seq_reads > 0 && right.Executor.r_seq_reads > 0);
      Alcotest.(check int) "no random read" 0 join.Executor.r_rnd_reads;
      Alcotest.(check int) "no page access beyond the scans"
        (left.Executor.r_buf_hits + left.Executor.r_buf_misses + right.Executor.r_buf_hits
       + right.Executor.r_buf_misses)
        (join.Executor.r_buf_hits + join.Executor.r_buf_misses)
  | _ -> Alcotest.fail "expected a join over two scans");
  let backward = sorted_oids result in
  Alcotest.(check bool) "every vehicle joins its company" true (backward <> []);
  List.iter
    (fun m ->
      check_same_oids
        (Format.asprintf "%a" Join_cost.pp_method m)
        backward
        (sorted_oids (run_plan (plan m))))
    pointer_methods

(* ---------------- Methods in predicates ---------------- *)

let test_method_in_predicate () =
  let d = db () in
  (match Db.exec d "DEFINE METHOD Vehicle::lbweight () Integer { return weight * 2; }" with
  | Ok _ -> ()
  | Error m -> failwith m);
  let heavy = oids_of "SELECT v FROM Vehicle v WHERE v.lbweight() > 4000" in
  let direct = oids_of "SELECT v FROM Vehicle v WHERE v.weight > 2000" in
  Alcotest.(check int) "method = inline arithmetic"
    (List.length direct) (List.length heavy)

let test_method_attribute_name_collision () =
  (* the paper's own DDL declares both an attribute [weight] and a
     method [weight()]: [v.weight] must read the attribute while
     [v.weight()] invokes the method *)
  let d = Db.create () in
  Mood_workload.Vehicle.define_schema (Db.catalog d);
  (match Db.exec d "DEFINE METHOD Vehicle::weight () Integer { return weight; }" with
  | Ok _ -> ()
  | Error m -> failwith m);
  ignore
    (Db.insert d ~class_name:"Vehicle"
       (Value.Tuple [ ("id", Value.Int 1); ("weight", Value.Int 1234) ]));
  let r = Db.query d "SELECT v.weight, v.weight() FROM Vehicle v" in
  match Executor.result_values r with
  | [ Value.Tuple [ ("v.weight", Value.Int 1234); ("v.weight()", Value.Int 1234) ] ] -> ()
  | other ->
      Alcotest.failf "unexpected rows: %s"
        (String.concat "; " (List.map Value.to_string other))

(* ---------------- ORDER BY / GROUP BY ---------------- *)

let test_order_by () =
  let r = Db.query (db ()) "SELECT v.weight FROM Vehicle v WHERE v.weight > 2500 ORDER BY v.weight DESC" in
  let weights =
    List.filter_map
      (fun v ->
        match v with
        | Value.Tuple [ (_, Value.Int w) ] -> Some w
        | _ -> None)
      (Executor.result_values r)
  in
  Alcotest.(check bool) "non-empty" true (weights <> []);
  Alcotest.(check (list int)) "descending" (List.sort (fun a b -> Int.compare b a) weights) weights

let test_group_by_having () =
  let r =
    Db.query (db ())
      "SELECT e.cylinders FROM VehicleEngine e GROUP BY e.cylinders HAVING e.cylinders >= 16 \
       ORDER BY e.cylinders"
  in
  let values =
    List.filter_map
      (fun v -> match v with Value.Tuple [ (_, Value.Int c) ] -> Some c | _ -> None)
      (Executor.result_values r)
  in
  Alcotest.(check bool) "all >= 16" true (List.for_all (fun c -> c >= 16) values);
  Alcotest.(check (list int)) "distinct and sorted" (List.sort_uniq Int.compare values) values

(* ---------------- Index-assisted execution ---------------- *)

let test_indexed_access_same_result () =
  let d = db () in
  let before = oids_of "SELECT e FROM Employee e" in
  ignore before;
  (* create an index on Company.name and re-run an equality query; the
     fresh statistics make the optimizer pick it *)
  (match Db.exec d "CREATE BTREE INDEX ON Company (name)" with
  | Ok _ -> ()
  | Error m -> failwith m);
  let scan_result = oids_of "SELECT c FROM Company c WHERE c.name = 'BMW'" in
  Db.analyze d;
  let indexed_result = oids_of "SELECT c FROM Company c WHERE c.name = 'BMW'" in
  Alcotest.(check int) "same count" (List.length scan_result) (List.length indexed_result);
  (* and the plan actually uses the index now *)
  let explained = Db.explain d "SELECT c FROM Company c WHERE c.name = 'BMW'" in
  Alcotest.(check bool) "INDSEL in plan" true (Helpers.contains explained "INDSEL")

let test_cross_product () =
  (* two unrelated FROM variables with no join predicate: the planner
     emits a cross join; cardinality is the product *)
  let d = db () in
  let r =
    Db.query d
      "SELECT e.cylinders FROM VehicleEngine e, Company c WHERE e.cylinders = 2 AND \
       c.name = 'BMW'"
  in
  let engines = List.length (oids_of "SELECT e FROM VehicleEngine e WHERE e.cylinders = 2") in
  Alcotest.(check int) "product cardinality" engines (List.length r.Executor.rows)

let test_both_sided_path_join () =
  (* a theta join whose both sides are path expressions: two distinct
     vehicles sharing a drivetrain *)
  let src =
    "SELECT v FROM Vehicle v, Automobile w WHERE v.drivetrain = w.drivetrain AND \
     v.weight < w.weight"
  in
  let fast = List.sort Oid.compare (oids_of src) in
  let slow = naive_oids src in
  Alcotest.(check bool) "matches exist" true (slow <> []);
  Alcotest.(check int) "cardinality" (List.length slow) (List.length fast);
  Alcotest.(check bool) "same oids" true (List.for_all2 Oid.equal slow fast)

let test_multi_key_group_by () =
  let d = db () in
  let r =
    Db.query d
      "SELECT d.transmission, e.cylinders, COUNT(*) FROM VehicleDriveTrain d, \
       VehicleEngine e WHERE d.engine = e GROUP BY d.transmission, e.cylinders"
  in
  let total =
    List.fold_left
      (fun acc v ->
        match v with
        | Value.Tuple [ _; _; (_, Value.Int n) ] -> acc + n
        | _ -> Alcotest.failf "bad row %s" (Value.to_string v))
      0 (Executor.result_values r)
  in
  (* every drivetrain joins exactly one engine *)
  Alcotest.(check int) "groups partition the join" 100 total;
  Alcotest.(check bool) "more than one group" true (List.length r.Executor.rows > 1)

(* ---------------- Random predicates vs the oracle ---------------- *)

let predicate_atoms =
  [| "v.weight > 1500"; "v.weight < 1200"; "v.weight = 1000"; "v.id < 50";
     "v.drivetrain.transmission = 'AUTOMATIC'";
     "v.drivetrain.engine.cylinders = 2"; "v.drivetrain.engine.cylinders > 16";
     "v.drivetrain.engine.size >= 2000"
  |]

let predicate_text_gen =
  QCheck.Gen.(
    let atom = map (fun i -> predicate_atoms.(i)) (int_bound (Array.length predicate_atoms - 1)) in
    let rec gen n =
      if n <= 1 then atom
      else
        frequency
          [ (3, atom);
            (2, map2 (Printf.sprintf "(%s AND %s)") (gen (n / 2)) (gen (n / 2)));
            (2, map2 (Printf.sprintf "(%s OR %s)") (gen (n / 2)) (gen (n / 2)));
            (1, map (Printf.sprintf "(NOT %s)") (gen (n - 1)))
          ]
    in
    int_range 1 6 >>= gen)

let prop_random_queries_match_oracle =
  QCheck.Test.make ~name:"optimized random queries = naive oracle" ~count:60
    (QCheck.make ~print:Fun.id predicate_text_gen)
    (fun pred ->
      let src = "SELECT v FROM Vehicle v WHERE " ^ pred in
      let fast = List.sort Oid.compare (oids_of src) in
      let slow = naive_oids src in
      List.length fast = List.length slow && List.for_all2 Oid.equal slow fast)

(* ---------------- Compiled vs interpreted lowering ---------------- *)

(* Atoms chosen to exercise the predicate compiler's specializations:
   integer arithmetic fast paths (including / and % error guards),
   integer comparison fast paths, and the generic fallbacks (string
   equality, path navigation, IS NULL). *)
let compiled_atoms =
  [| "v.weight * 2 - v.id > 2500"; "v.id % 7 = 3"; "v.weight / 10 >= 150";
     "v.weight + v.id < 1300"; "v.weight > 1500"; "v.id - 25 <= 0";
     "v.drivetrain.transmission = 'AUTOMATIC'";
     "v.drivetrain.engine.cylinders = 2"; "v.drivetrain IS NOT NULL"
  |]

let compiled_predicate_gen =
  QCheck.Gen.(
    let atom = map (fun i -> compiled_atoms.(i)) (int_bound (Array.length compiled_atoms - 1)) in
    let rec gen n =
      if n <= 1 then atom
      else
        frequency
          [ (3, atom);
            (2, map2 (Printf.sprintf "(%s AND %s)") (gen (n / 2)) (gen (n / 2)));
            (2, map2 (Printf.sprintf "(%s OR %s)") (gen (n / 2)) (gen (n / 2)));
            (1, map (Printf.sprintf "(NOT %s)") (gen (n - 1)))
          ]
    in
    int_range 1 6 >>= gen)

let mode_oids mode src =
  let d = db () in
  let plan = (Db.optimize d src).Mood_optimizer.Optimizer.plan in
  Executor.result_oids (Executor.run ~mode (Db.executor_env d) plan)

let prop_compiled_matches_interpreted =
  QCheck.Test.make ~name:"compiled predicates = interpreted oracle" ~count:60
    (QCheck.make ~print:Fun.id compiled_predicate_gen)
    (fun pred ->
      let src = "SELECT v FROM Vehicle v WHERE " ^ pred in
      let c = List.sort Oid.compare (mode_oids Executor.Compiled src) in
      let i = List.sort Oid.compare (mode_oids Executor.Interpreted src) in
      List.length c = List.length i && List.for_all2 Oid.equal i c)

(* Failure behavior must be part of the differential contract too: a
   query that errors must produce the identical exception in both
   modes, or the Interpreted oracle cannot be trusted on edge cases. *)
let mode_outcome mode src =
  match mode_oids mode src with
  | oids -> Printf.sprintf "%d rows" (List.length oids)
  | exception Eval.Eval_error m -> "run-time error: " ^ m
  | exception Mood_model.Operand.Type_error m -> "run-time type error: " ^ m

let test_error_differential () =
  List.iter
    (fun src ->
      Alcotest.(check string) src
        (mode_outcome Executor.Interpreted src)
        (mode_outcome Executor.Compiled src))
    [ (* Int32 fast path: zero divisor must fail like the interpreter *)
      "SELECT v FROM Vehicle v WHERE v.weight / 0 > 1";
      "SELECT v FROM Vehicle v WHERE v.id % 0 = 0";
      (* generic route for comparison *)
      "SELECT v FROM Vehicle v WHERE v.weight / 0.0 > 1.0";
      (* and a healthy query as a control *)
      "SELECT v FROM Vehicle v WHERE v.weight / 2 > 700" ]

let test_compiled_projection_matches_interpreter () =
  let d = db () in
  let src =
    "SELECT v.weight * 3 + v.id % 7, v.weight - v.id FROM Vehicle v WHERE v.id < 40"
  in
  let plan = (Db.optimize d src).Mood_optimizer.Optimizer.plan in
  let c = Executor.run ~mode:Executor.Compiled (Db.executor_env d) plan in
  let i = Executor.run ~mode:Executor.Interpreted (Db.executor_env d) plan in
  match (c.Executor.projected, i.Executor.projected) with
  | Some cv, Some iv ->
      Alcotest.(check int) "cardinality" (List.length iv) (List.length cv);
      List.iter2
        (fun a b ->
          Alcotest.(check bool)
            (Printf.sprintf "%s = %s" (Value.to_string a) (Value.to_string b))
            true
            (Value.compare a b = 0))
        iv cv
  | _ -> Alcotest.fail "projection missing"

let test_compiled_aggregates_match_interpreter () =
  let d = db () in
  let src =
    "SELECT e.cylinders, COUNT(*), AVG(e.size) FROM VehicleEngine e \
     GROUP BY e.cylinders HAVING COUNT(*) >= 2 ORDER BY e.cylinders"
  in
  let plan = (Db.optimize d src).Mood_optimizer.Optimizer.plan in
  let c = Executor.run ~mode:Executor.Compiled (Db.executor_env d) plan in
  let i = Executor.run ~mode:Executor.Interpreted (Db.executor_env d) plan in
  match (c.Executor.projected, i.Executor.projected) with
  | Some cv, Some iv ->
      Alcotest.(check int) "cardinality" (List.length iv) (List.length cv);
      List.iter2
        (fun a b ->
          Alcotest.(check bool) "group row equal" true (Value.compare a b = 0))
        iv cv
  | _ -> Alcotest.fail "projection missing"

(* ---------------- Aggregates ---------------- *)

let single_value r =
  match Executor.result_values r with
  | [ Value.Tuple [ (_, v) ] ] -> v
  | other -> Alcotest.failf "expected one value, got %d rows" (List.length other)

let test_global_aggregates () =
  let d = db () in
  Alcotest.(check bool) "COUNT(*)" true
    (single_value (Db.query d "SELECT COUNT(*) FROM Vehicle v") = Value.Int 200);
  (* restricted count *)
  let heavy = List.length (oids_of "SELECT v FROM Vehicle v WHERE v.weight > 2000") in
  Alcotest.(check bool) "filtered COUNT" true
    (single_value (Db.query d "SELECT COUNT(*) FROM Vehicle v WHERE v.weight > 2000")
    = Value.Int heavy);
  (* MIN/MAX agree with ORDER BY extremes *)
  (match
     ( single_value (Db.query d "SELECT MIN(e.cylinders) FROM VehicleEngine e"),
       single_value (Db.query d "SELECT MAX(e.cylinders) FROM VehicleEngine e") )
   with
  | Value.Int lo, Value.Int hi ->
      Alcotest.(check bool) "bounds" true (lo >= 2 && hi <= 32 && lo < hi)
  | _, _ -> Alcotest.fail "MIN/MAX not integers");
  (* AVG between MIN and MAX *)
  match single_value (Db.query d "SELECT AVG(v.weight) FROM Vehicle v") with
  | Value.Float avg -> Alcotest.(check bool) "avg in range" true (avg > 800. && avg < 3000.)
  | v -> Alcotest.failf "AVG returned %s" (Value.to_string v)

let test_group_aggregates () =
  let d = db () in
  let r =
    Db.query d
      "SELECT e.cylinders, COUNT(*) FROM VehicleEngine e GROUP BY e.cylinders \
       ORDER BY e.cylinders"
  in
  let counts =
    List.map
      (fun v ->
        match v with
        | Value.Tuple [ (_, Value.Int c); (_, Value.Int n) ] -> (c, n)
        | _ -> Alcotest.failf "bad group row %s" (Value.to_string v))
      (Executor.result_values r)
  in
  Alcotest.(check int) "groups sum to extent" 100
    (List.fold_left (fun acc (_, n) -> acc + n) 0 counts);
  (* HAVING over an aggregate *)
  let r2 =
    Db.query d
      "SELECT e.cylinders FROM VehicleEngine e GROUP BY e.cylinders HAVING COUNT(*) >= 10"
  in
  let big = List.length (Executor.result_values r2) in
  let expected = List.length (List.filter (fun (_, n) -> n >= 10) counts) in
  Alcotest.(check int) "HAVING COUNT" expected big

let test_order_by_aggregate () =
  let d = db () in
  let r =
    Db.query d
      "SELECT e.cylinders, COUNT(*) FROM VehicleEngine e GROUP BY e.cylinders \
       ORDER BY COUNT(*) DESC, e.cylinders"
  in
  let counts =
    List.filter_map
      (fun v ->
        match v with Value.Tuple [ _; (_, Value.Int n) ] -> Some n | _ -> None)
      (Executor.result_values r)
  in
  Alcotest.(check bool) "non-empty" true (counts <> []);
  Alcotest.(check (list int)) "sorted by count desc"
    (List.sort (fun a b -> Int.compare b a) counts)
    counts

let test_aggregates_on_empty () =
  let d = Db.create () in
  Mood_workload.Vehicle.define_schema (Db.catalog d);
  Alcotest.(check bool) "count empty" true
    (single_value (Db.query d "SELECT COUNT(*) FROM Vehicle v") = Value.Int 0);
  Alcotest.(check bool) "sum empty is NULL" true
    (single_value (Db.query d "SELECT SUM(v.weight) FROM Vehicle v") = Value.Null)

(* ---------------- Path index access path ---------------- *)

let test_path_index_access () =
  (* A fresh database so the shared one keeps its plans untouched. *)
  let d = Db.create ~buffer_capacity:512 () in
  Mood_workload.Vehicle.define_schema (Db.catalog d);
  ignore (Mood_workload.Vehicle.generate ~catalog:(Db.catalog d) ~scale:0.01 ());
  let src = "SELECT v FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2" in
  Db.analyze d;
  let before = List.sort Oid.compare (Executor.result_oids (Db.query d src)) in
  ignore
    (Catalog.create_path_index (Db.catalog d) ~class_name:"Vehicle"
       ~path:[ "drivetrain"; "engine"; "cylinders" ]);
  Db.analyze d;
  let optimized = Db.optimize d src in
  let rendered = Mood_optimizer.Plan.render optimized.Mood_optimizer.Optimizer.plan in
  Alcotest.(check bool) "plan uses the path index" true (Helpers.contains rendered "PATH_INDSEL");
  let after = List.sort Oid.compare (Executor.result_oids (Db.query d src)) in
  Alcotest.(check int) "same cardinality" (List.length before) (List.length after);
  Alcotest.(check bool) "same objects" true (List.for_all2 Oid.equal before after);
  (* the probe is also cheaper than the join chain on a cold cache *)
  Mood_storage.Store.drop_cache (Db.store d);
  ignore (Db.query d src);
  let indexed_io = Db.io_elapsed d in
  Alcotest.(check bool) "indexed run is cheap" true (indexed_io > 0.);
  (* A range comparison stays correct whether or not the optimizer
     judges the index probe cheaper than the join chain (at this scale
     an unselective range rightly falls back to joins). *)
  let range_src = "SELECT v FROM Vehicle v WHERE v.drivetrain.engine.cylinders > 28" in
  let range_after = List.sort Oid.compare (Executor.result_oids (Db.query d range_src)) in
  (* manual oracle: navigate every vehicle *)
  let cat = Db.catalog d in
  let expected =
    Catalog.extent_oids cat "Vehicle"
    |> List.filter (fun oid ->
           match Catalog.get_object cat oid with
           | Some v -> begin
               match Value.tuple_get v "drivetrain" with
               | Some (Value.Ref dt) -> begin
                   match Catalog.get_object cat dt with
                   | Some dtv -> begin
                       match Value.tuple_get dtv "engine" with
                       | Some (Value.Ref e) -> begin
                           match Catalog.get_object cat e with
                           | Some ev -> begin
                               match Value.tuple_get ev "cylinders" with
                               | Some (Value.Int c) -> c > 28
                               | _ -> false
                             end
                           | None -> false
                         end
                       | _ -> false
                     end
                   | None -> false
                 end
               | _ -> false
             end
           | None -> false)
    |> List.sort Oid.compare
  in
  Alcotest.(check int) "range cardinality" (List.length expected) (List.length range_after);
  Alcotest.(check bool) "range objects" true (List.for_all2 Oid.equal expected range_after)

(* ---------------- Set-valued reference navigation ---------------- *)

let test_set_valued_reference_paths () =
  (* fan = 2: [next] is a Set(Reference); path predicates hold when SOME
     element of the set satisfies them (existential semantics). *)
  let d = Db.create () in
  let built =
    Mood_workload.Chain.build ~catalog:(Db.catalog d)
      { Mood_workload.Chain.prefix = "M"; head_cardinality = 120; depth = 2; fan = 2;
        sharing = 1; distinct_values = 6; seed = 8
      }
  in
  Db.analyze d;
  let r = Db.query d "SELECT p FROM M0 p WHERE p.next.v = 3" in
  let got = List.sort Oid.compare (Executor.result_oids r) in
  (* manual oracle over the stored sets *)
  let cat = Db.catalog d in
  let expected =
    Array.to_list built.Mood_workload.Chain.heads
    |> List.filter (fun head ->
           match Catalog.get_object cat head with
           | Some v -> begin
               match Value.tuple_get v "next" with
               | Some (Value.Set members) ->
                   List.exists
                     (fun m ->
                       match m with
                       | Value.Ref target -> begin
                           match Catalog.get_object cat target with
                           | Some tv -> Value.tuple_get tv "v" = Some (Value.Int 3)
                           | None -> false
                         end
                       | _ -> false)
                     members
               | _ -> false
             end
           | None -> false)
    |> List.sort Oid.compare
  in
  Alcotest.(check bool) "some heads match" true (expected <> []);
  Alcotest.(check int) "cardinality" (List.length expected) (List.length got);
  Alcotest.(check bool) "same heads" true (List.for_all2 Oid.equal expected got)

(* ---------------- Cursor semantics ---------------- *)

let test_projection_values () =
  let r = Db.query (db ()) "SELECT v.id, v.weight FROM Vehicle v WHERE v.id < 3" in
  match r.Executor.projected with
  | Some values ->
      Alcotest.(check int) "three rows" 3 (List.length values);
      List.iter
        (fun v ->
          match v with
          | Value.Tuple [ ("v.id", Value.Int _); ("v.weight", Value.Int _) ] -> ()
          | _ -> Alcotest.failf "bad projection row %s" (Value.to_string v))
        values
  | None -> Alcotest.fail "projection missing"

(* ---------------- Value joins: Grace hash, sort-merge, fusion ---------------- *)

module Value_join = Mood_executor.Value_join
module Join_oracle = Mood_sim.Join_oracle
module Disk = Mood_storage.Disk
module Mtype = Mood_model.Mtype
module Jplan = Mood_optimizer.Plan

(* The join knobs are process-global: every test that touches them must
   restore them, or later tests (and the shared plan cache) see stale
   budgets/forced methods. *)
let with_join_knobs ?mem f =
  let m0 = !Join_cost.join_mem_bytes and f0 = !Join_cost.forced_method in
  Option.iter (fun m -> Join_cost.join_mem_bytes := m) mem;
  Fun.protect
    ~finally:(fun () ->
      Join_cost.join_mem_bytes := m0;
      Join_cost.forced_method := f0)
    f

(* A fresh throwaway database (EL/ER classes) so edge-case datasets and
   fault injection never touch the shared db. *)
let fresh_join_env ~attributes () =
  let store = Store.create ~buffer_capacity:64 () in
  let catalog = Catalog.create ~store in
  ignore (Catalog.define_class catalog ~name:"EL" ~attributes ());
  ignore (Catalog.define_class catalog ~name:"ER" ~attributes ());
  let funcs = Mood_funcmgr.Function_manager.create ~catalog in
  let scope = Mood_funcmgr.Function_manager.enter_scope funcs in
  ({ Eval.catalog; funcs; scope }, catalog, store)

let vjoin_plan method_ pred =
  let bind class_name var = Jplan.Bind { class_name; var; every = false; minus = [] } in
  Jplan.Join { left = bind "EL" "l"; right = bind "ER" "r"; method_; pred }

let keq a b = Ast.Cmp (Ast.Eq, Ast.Path ("l", [ a ]), Ast.Path ("r", [ b ]))

let join_multiset (result : Executor.result) =
  result.Executor.rows
  |> List.map (fun row ->
         String.concat "|"
           (List.map
              (fun (var, (it : Collection.item)) ->
                var ^ "=" ^ Value.to_string it.Collection.value)
              row))
  |> List.sort String.compare

let label_has hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let join_report reports =
  match
    List.find_opt
      (fun (r : Executor.op_report) -> label_has r.Executor.r_label "JOIN[")
      reports
  with
  | Some r -> r
  | None -> Alcotest.fail "no JOIN operator in report"

(* Fast version of the crash_sim differential oracle: 5 seeds, every
   algorithm against the interpreted nested loop. *)
let test_join_oracle_fast () =
  let r = Test_sim.clean_sweep Join_oracle.phase ~quota:5 ~base_seed:1 in
  Alcotest.(check int) "checks ran" (5 * 9 * 5) (Mood_sim.Phase.count r.counts "checks")

(* Negative control: with the sort-merge duplicate-key rewind sabotaged
   the oracle must report violations — otherwise it has no teeth. *)
let test_join_oracle_catches_sabotage () =
  ignore (Test_sim.sabotaged_sweep Join_oracle.phase ~quota:5 ~base_seed:1);
  Alcotest.(check bool) "sabotage restored" false !Value_join.sabotage_skip_rewind

(* Failure mid-spill during a Grace hash join — a disk crash while
   partitions are written, or an error raised by the consumer of its
   rows while they are live — must release every temp partition file
   on the way out, recovery must find nothing to clean, and a re-run
   must produce the full result. *)
let test_grace_spill_crash_recovery () =
  let attributes =
    [ ("k", Mtype.Basic Mtype.Integer); ("pad", Mtype.Basic (Mtype.String 64)) ]
  in
  let env, catalog, store = fresh_join_env ~attributes () in
  let row cls i =
    ignore
      (Catalog.insert_object catalog ~class_name:cls
         (Value.Tuple
            [ ("k", Value.Int (i mod 4)); ("pad", Value.Str (Printf.sprintf "%060d" i)) ]))
  in
  for i = 1 to 120 do row "EL" i done;
  for i = 1 to 120 do row "ER" (i + 1) done;
  let pred = keq "k" "k" in
  let released what =
    Alcotest.(check int) ("no orphan temp files after " ^ what) 0
      (Store.live_temp_files store);
    Alcotest.(check int) ("no orphan temp frames after " ^ what) 0
      (Store.temp_resident_frames store)
  in
  with_join_knobs ~mem:512 (fun () ->
      let expected = join_multiset (Executor.run env (vjoin_plan Join_cost.Grace_hash pred)) in
      Alcotest.(check bool) "join produced rows" true (expected <> []);
      Alcotest.(check int) "clean run leaves no temps" 0 (Store.live_temp_files store);
      let disk = Store.disk store in
      Disk.inject_fault disk ~crash_after_writes:3
        ~prng:(Mood_util.Prng.create ~seed:99) ();
      (match Executor.run env (vjoin_plan Join_cost.Grace_hash pred) with
      | exception Disk.Crash -> ()
      | _ -> Alcotest.fail "expected Disk.Crash mid-spill");
      Disk.clear_fault disk;
      released "crash";
      let again = join_multiset (Executor.run env (vjoin_plan Join_cost.Grace_hash pred)) in
      Alcotest.(check bool) "re-run after crash matches" true (again = expected);
      (* A GROUP above the join whose aggregate divides by zero on the
         pairs with k = 1: the error is raised inside the join's emit,
         which a spilling Grace join reaches only after it has written
         its partitions. *)
      let grouped agg =
        Jplan.Group
          { source = vjoin_plan Join_cost.Grace_hash pred;
            by = [];
            having = None;
            aggregates = [ agg ]
          }
      in
      let k_minus_1 =
        Ast.Arith (Ast.Sub, Ast.Path ("l", [ "k" ]), Ast.Const (Value.Int 1))
      in
      let spilled () = List.assoc "join.partitions_spilled" (Value_join.metrics ()) in
      let spilled0 = spilled () in
      (match
         Executor.run env
           (grouped
              (Ast.Aggregate (Ast.Sum, Some (Ast.Arith (Ast.Div, Ast.Const (Value.Int 1), k_minus_1)))))
       with
      | exception Eval.Eval_error _ -> ()
      | _ -> Alcotest.fail "expected division by zero inside the join's emit");
      Alcotest.(check bool) "the join spilled before the error" true (spilled () > spilled0);
      released "an error in the join's emit";
      (match
         (Executor.run env (grouped (Ast.Aggregate (Ast.Count, None)))).Executor.rows
       with
      | [ row ] -> (
          match List.assoc_opt "#agg" row with
          | Some { Collection.value = Value.Tuple [ (_, Value.Int n) ]; _ } ->
              Alcotest.(check int) "re-run after the error counts every pair"
                (List.length expected) n
          | _ -> Alcotest.fail "COUNT(*) over the join: no count")
      | _ -> Alcotest.fail "COUNT(*) over the join: one row expected");
      let again = join_multiset (Executor.run env (vjoin_plan Join_cost.Grace_hash pred)) in
      Alcotest.(check bool) "re-run after the error matches" true (again = expected))

(* EXPLAIN ANALYZE pin: under the default budget the optimizer picks the
   canonical hash join for a value equi-join, and the traced actual row
   count equals a hand-counted pair count over the extents. *)
let test_explain_analyze_hash_join_pin () =
  let d = db () in
  let src = "SELECT v FROM Vehicle v, VehicleEngine e WHERE v.weight = e.size" in
  with_join_knobs (fun () ->
      let _, reports = Db.analyze_query d src in
      let jr = join_report reports in
      Alcotest.(check bool) "hash join chosen" true
        (label_has jr.Executor.r_label "JOIN[HASH_JOIN]");
      let cat = Db.catalog d in
      let ints cls attr =
        Catalog.extent_oids cat ~every:true ~minus:[] cls
        |> List.filter_map (fun oid -> Catalog.get_object cat oid)
        |> List.filter_map (fun v ->
               match Value.tuple_get v attr with Some (Value.Int n) -> Some n | _ -> None)
      in
      let vw = ints "Vehicle" "weight" and es = ints "VehicleEngine" "size" in
      let expected =
        List.fold_left
          (fun acc w -> acc + List.length (List.filter (( = ) w) es))
          0 vw
      in
      Alcotest.(check bool) "hand count is non-trivial" true (expected > 0);
      Alcotest.(check int) "actual join rows = hand count" expected jr.Executor.r_rows;
      match jr.Executor.r_est with
      | Some e -> Alcotest.(check bool) "estimate present and positive" true (e > 0.)
      | None -> Alcotest.fail "join estimate missing")

(* EXPLAIN ANALYZE under the push contract: each operator is charged
   its own produce call minus what its consumer spent, so charges stay
   inclusive of the inputs. Under a budget that sends the counting join
   through a spilling Grace hash, the JOIN carries every spill write of
   the statement and no parent is charged less than its children. *)
let test_explain_analyze_push_charges () =
  let d = db () in
  let src = "SELECT COUNT(*) FROM Vehicle v, VehicleEngine e WHERE v.weight = e.size" in
  with_join_knobs (fun () ->
      (match Db.exec d "SET JOIN_MEM 2048" with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      let disk = Store.disk (Db.store d) in
      let writes () = (Disk.counters disk).Disk.writes in
      let w0 = writes () in
      let result, reports = Db.analyze_query d src in
      let statement_writes = writes () - w0 in
      let jr = join_report reports in
      Alcotest.(check bool) "Grace hash chosen" true (label_has jr.Executor.r_label "GRACE_HASH");
      let cat = Db.catalog d in
      let ints cls attr =
        Catalog.extent_oids cat ~every:true ~minus:[] cls
        |> List.filter_map (fun oid -> Catalog.get_object cat oid)
        |> List.filter_map (fun v ->
               match Value.tuple_get v attr with Some (Value.Int n) -> Some n | _ -> None)
      in
      let es = ints "VehicleEngine" "size" in
      let pairs =
        List.fold_left
          (fun acc w -> acc + List.length (List.filter (( = ) w) es))
          0 (ints "Vehicle" "weight")
      in
      Alcotest.(check bool) "hand count is non-trivial" true (pairs > 0);
      Alcotest.(check int) "JOIN rows = hand count" pairs jr.Executor.r_rows;
      (match List.find_opt (fun r -> r.Executor.r_label = "GROUP") reports with
      | Some g -> Alcotest.(check int) "GROUP reports one row" 1 g.Executor.r_rows
      | None -> Alcotest.fail "no GROUP operator in report");
      List.iter
        (fun r -> Alcotest.(check int) (r.Executor.r_label ^ " ran once") 1 r.Executor.r_loops)
        reports;
      Alcotest.(check bool) "the statement wrote spill pages" true (statement_writes > 0);
      Alcotest.(check int) "the JOIN is charged every write" statement_writes jr.Executor.r_writes;
      (* Reports are pre-order: a node's children are the following
         reports one level deeper, up to the next at its own depth. *)
      let accesses r = r.Executor.r_buf_hits + r.Executor.r_buf_misses in
      let rec children depth = function
        | r :: rest when r.Executor.r_depth > depth ->
            (if r.Executor.r_depth = depth + 1 then [ r ] else []) @ children depth rest
        | _ -> []
      in
      let rec each = function
        | [] -> ()
        | r :: rest ->
            let kids = children r.Executor.r_depth rest in
            Alcotest.(check bool)
              (r.Executor.r_label ^ ": page accesses cover its children's")
              true
              (accesses r >= List.fold_left (fun a c -> a + accesses c) 0 kids);
            each rest
      in
      each reports;
      let prepared = Executor.prepare (Db.optimize d src).Mood_optimizer.Optimizer.plan in
      let env = Db.executor_env d in
      let traced, _ =
        Executor.run_analyzed ~disk ~buffer:(Store.buffer (Db.store d)) env prepared
      in
      let plain = Executor.run_prepared env prepared in
      Alcotest.(check (list string)) "run_analyzed and run_prepared agree"
        (List.map Value.to_string (Executor.result_values plain))
        (List.map Value.to_string (Executor.result_values traced));
      Alcotest.(check (list string)) "and match the analyzed statement"
        [ Printf.sprintf "<COUNT(*): %d>" pairs ]
        (List.map Value.to_string (Executor.result_values result)))

(* Shrinking the budget below the build side flips the plan from the
   canonical hash join to a spill-aware method. *)
let test_mem_budget_flips_method () =
  let d = db () in
  let src = "SELECT v FROM Vehicle v, VehicleEngine e WHERE v.weight = e.size" in
  with_join_knobs (fun () ->
      let lbl0 = (join_report (snd (Db.analyze_query d src))).Executor.r_label in
      Alcotest.(check bool) "roomy budget: canonical hash" true
        (label_has lbl0 "JOIN[HASH_JOIN]");
      (match Db.exec d "SET JOIN_MEM 2048" with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      let lbl1 = (join_report (snd (Db.analyze_query d src))).Executor.r_label in
      Alcotest.(check bool) "tiny budget: in-memory hash abandoned" false
        (label_has lbl1 "JOIN[HASH_JOIN]");
      Alcotest.(check bool) "tiny budget: spill-aware method chosen" true
        (label_has lbl1 "GRACE_HASH" || label_has lbl1 "SORT_MERGE"))

(* Stale stats keep the old plan; ANALYZE flips the join method. *)
let test_analyze_flips_join_method () =
  let d = Db.create ~buffer_capacity:256 () in
  let cat = Db.catalog d in
  let attributes = [ ("k", Mtype.Basic Mtype.Integer) ] in
  ignore (Catalog.define_class cat ~name:"FlipL" ~attributes ());
  ignore (Catalog.define_class cat ~name:"FlipR" ~attributes ());
  let add cls n =
    for i = 1 to n do
      ignore
        (Catalog.insert_object cat ~class_name:cls (Value.Tuple [ ("k", Value.Int (i mod 7)) ]))
    done
  in
  add "FlipL" 500;
  add "FlipR" 8;
  Db.analyze d;
  with_join_knobs (fun () ->
      (match Db.exec d "SET JOIN_MEM 4096" with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      let src = "SELECT l FROM FlipL l, FlipR r WHERE l.k = r.k" in
      let label () = (join_report (snd (Db.analyze_query d src))).Executor.r_label in
      Alcotest.(check bool) "tiny build side: hash join" true
        (label_has (label ()) "JOIN[HASH_JOIN]");
      add "FlipR" 4000;
      (* stats are stale: the planner still believes the build side fits *)
      Alcotest.(check bool) "stale stats keep hash join" true
        (label_has (label ()) "JOIN[HASH_JOIN]");
      Db.analyze d;
      let lbl = label () in
      Alcotest.(check bool) "ANALYZE abandons in-memory hash" false
        (label_has lbl "JOIN[HASH_JOIN]");
      Alcotest.(check bool) "ANALYZE picks a spill-aware method" true
        (label_has lbl "GRACE_HASH" || label_has lbl "SORT_MERGE"))

(* One hot key: every row hashes to the same partition, which can never
   fit the budget — recursive partitioning must bottom out (depth cap +
   in-memory fallback), not loop, and still be exact. *)
let test_grace_budget_below_one_partition () =
  let attributes =
    [ ("k", Mtype.Basic Mtype.Integer); ("pad", Mtype.Basic (Mtype.String 64)) ]
  in
  let env, catalog, store = fresh_join_env ~attributes () in
  let row cls i =
    ignore
      (Catalog.insert_object catalog ~class_name:cls
         (Value.Tuple [ ("k", Value.Int 1); ("pad", Value.Str (Printf.sprintf "p%040d" i)) ]))
  in
  for i = 1 to 80 do row "EL" i done;
  for i = 1 to 80 do row "ER" i done;
  let pred = keq "k" "k" in
  let nested =
    with_join_knobs (fun () ->
        join_multiset (Executor.run env (vjoin_plan Join_cost.Nested_loop pred)))
  in
  Alcotest.(check int) "cartesian block size" (80 * 80) (List.length nested);
  with_join_knobs ~mem:256 (fun () ->
      let spilled0 = List.assoc "join.partitions_spilled" (Value_join.metrics ()) in
      let grace = join_multiset (Executor.run env (vjoin_plan Join_cost.Grace_hash pred)) in
      let spilled1 = List.assoc "join.partitions_spilled" (Value_join.metrics ()) in
      Alcotest.(check bool) "partitions spilled" true (spilled1 > spilled0);
      Alcotest.(check bool) "grace matches nested loop" true (grace = nested);
      Alcotest.(check int) "no temp leak" 0 (Store.live_temp_files store))

(* A single duplicate-key run larger than the whole sort budget: the
   external sort must spill runs and the merge must still produce the
   full cartesian sub-block. *)
let test_sort_merge_dup_run_over_budget () =
  let attributes =
    [ ("k", Mtype.Basic Mtype.Integer); ("pad", Mtype.Basic (Mtype.String 64)) ]
  in
  let env, catalog, _store = fresh_join_env ~attributes () in
  let row cls i =
    ignore
      (Catalog.insert_object catalog ~class_name:cls
         (Value.Tuple [ ("k", Value.Int 7); ("pad", Value.Str (Printf.sprintf "q%040d" i)) ]))
  in
  for i = 1 to 60 do row "EL" i done;
  for i = 1 to 60 do row "ER" i done;
  let pred = keq "k" "k" in
  let nested =
    with_join_knobs (fun () ->
        join_multiset (Executor.run env (vjoin_plan Join_cost.Nested_loop pred)))
  in
  with_join_knobs ~mem:512 (fun () ->
      let passes0 = List.assoc "join.merge_passes" (Value_join.metrics ()) in
      let sm = join_multiset (Executor.run env (vjoin_plan Join_cost.Sort_merge pred)) in
      let passes1 = List.assoc "join.merge_passes" (Value_join.metrics ()) in
      Alcotest.(check bool) "external sort ran" true (passes1 > passes0);
      Alcotest.(check int) "duplicate block cartesian" (60 * 60) (List.length sm);
      Alcotest.(check bool) "sort-merge matches nested loop" true (sm = nested))

(* Fusion join over collection attributes: empty, singleton, duplicate
   and deeply nested collections, plus nulls on both sides, all agree
   with the interpreted nested loop. *)
let test_fusion_collection_edges () =
  let basic b = Mtype.Basic b in
  let attributes =
    [ ("kint", basic Mtype.Integer);
      ("kset", Mtype.Set (basic Mtype.Integer));
      ("knest", Mtype.Set (Mtype.Set (basic Mtype.Integer)))
    ]
  in
  let env, catalog, _ = fresh_join_env ~attributes () in
  let mk cls ~kint ~kset ~knest =
    ignore
      (Catalog.insert_object catalog ~class_name:cls
         (Value.Tuple [ ("kint", kint); ("kset", kset); ("knest", knest) ]))
  in
  let empty = Value.set [] in
  mk "EL" ~kint:(Value.Int 0) ~kset:empty ~knest:empty;
  mk "EL" ~kint:(Value.Int 1)
    ~kset:(Value.set [ Value.Int 5 ])
    ~knest:(Value.set [ Value.set [ Value.Int 5 ] ]);
  mk "EL" ~kint:(Value.Int 2)
    ~kset:(Value.set [ Value.Int 5; Value.Int 6; Value.Int 6 ])
    ~knest:(Value.set [ Value.set [ Value.Int 5; Value.Int 6 ]; empty ]);
  mk "EL" ~kint:(Value.Int 3) ~kset:Value.Null ~knest:Value.Null;
  List.iter
    (fun kint -> mk "ER" ~kint ~kset:empty ~knest:(Value.set [ empty ]))
    [ Value.Int 5; Value.Int 6; Value.Int 9; Value.Null ];
  let agree ?expect name pred =
    let nested = join_multiset (Executor.run env (vjoin_plan Join_cost.Nested_loop pred)) in
    let fusion = join_multiset (Executor.run env (vjoin_plan Join_cost.Fusion_join pred)) in
    Option.iter
      (fun n -> Alcotest.(check int) (name ^ " cardinality") n (List.length fusion))
      expect;
    Alcotest.(check bool) (name ^ " matches nested loop") true (fusion = nested)
  in
  (* hand count: kset∋5 on rows 1 and 2, kset∋6 on row 2 → 3 pairs *)
  agree ~expect:3 "kset=kint" (keq "kset" "kint");
  agree ~expect:0 "kint=kint disjoint" (keq "kint" "kint");
  agree "knest=knest deep" (keq "knest" "knest")

(* Float.compare equates every NaN and -0.0 with 0.0, so the nested
   loop pairs L.x = nan with R.x = -nan and 0.0 with -0.0. Each keyed
   method must find both pairs: on scalar keys, through a set (fusion),
   and inside nested sets (structural keys). The tiny budget sends
   Grace hash and sort-merge through their spill records. *)
let test_nan_and_negative_zero_keys () =
  let basic b = Mtype.Basic b in
  let attributes =
    [ ("x", basic Mtype.Float);
      ("xs", Mtype.Set (basic Mtype.Float));
      ("xn", Mtype.Set (Mtype.Set (basic Mtype.Float)))
    ]
  in
  let env, catalog, _ = fresh_join_env ~attributes () in
  let mk cls f =
    let x = Value.Float f in
    ignore
      (Catalog.insert_object catalog ~class_name:cls
         (Value.Tuple
            [ ("x", x); ("xs", Value.set [ x ]); ("xn", Value.set [ Value.set [ x ] ]) ]))
  in
  List.iter (mk "EL") [ Float.nan; 0. ];
  List.iter (mk "ER") [ Float.neg Float.nan; -0. ];
  let check name methods pred =
    List.iter
      (fun m ->
        let rows = (Executor.run env (vjoin_plan m pred)).Executor.rows in
        Alcotest.(check int)
          (Format.asprintf "%s via %a" name Join_cost.pp_method m)
          2 (List.length rows))
      (Join_cost.Nested_loop :: methods)
  in
  with_join_knobs ~mem:64 (fun () ->
      check "x=x" [ Join_cost.Hash_join; Join_cost.Grace_hash; Join_cost.Sort_merge ]
        (keq "x" "x");
      check "xs=x" [ Join_cost.Fusion_join ] (keq "xs" "x");
      check "xn=xn"
        [ Join_cost.Hash_join; Join_cost.Grace_hash; Join_cost.Sort_merge; Join_cost.Fusion_join ]
        (keq "xn" "xn"))

(* Spill records: rows of several bindings, OIDs present or absent,
   every value kind, arbitrary bytes in keys and variable names. *)
let spill_entry_gen =
  let open QCheck.Gen in
  let oid =
    option (map2 (fun c s -> Oid.make ~class_id:c ~slot:s) (int_bound 1000) (int_bound 100_000))
  in
  let binding =
    map3
      (fun var oid value -> (var, { Collection.oid; value }))
      (string_size (int_bound 6)) oid Test_model.value_gen
  in
  map3
    (fun i row key -> (i, row, key))
    (int_bound 1_000_000) (list_size (int_range 1 4) binding) (string_size (int_bound 24))

let arbitrary_spill_entry =
  let print ((i, row, key) : Value_join.entry) =
    Printf.sprintf "%d %S %s" i key
      (String.concat "; "
         (List.map
            (fun (var, (it : Collection.item)) ->
              Printf.sprintf "%S %s %s" var
                (Option.fold ~none:"-" ~some:Oid.to_string it.Collection.oid)
                (Value.to_string it.Collection.value))
            row))
  in
  QCheck.make ~print spill_entry_gen

let prop_spill_record_roundtrip =
  QCheck.Test.make ~name:"spill record round-trip and size" ~count:300 arbitrary_spill_entry
    (fun ((i, row, key) as e) ->
      let s = Value_join.encode_entry e in
      let i', row', key' = Value_join.decode_entry s in
      Value_join.entry_bytes e = String.length s
      && i' = i && String.equal key' key
      && List.equal
           (fun (v, (a : Collection.item)) (v', (b : Collection.item)) ->
             String.equal v v'
             && Option.equal Oid.equal a.Collection.oid b.Collection.oid
             && Value.compare a.Collection.value b.Collection.value = 0)
           row row'
      && String.equal (Value_join.encode_entry (i', row', key')) s)

(* A spill record cut anywhere short of its end is malformed input:
   [Failure], never a shorter record and never [Invalid_argument]. *)
let prop_spill_record_prefix_fails =
  QCheck.Test.make ~name:"every proper prefix of a spill record fails" ~count:100
    arbitrary_spill_entry (fun e ->
      let s = Value_join.encode_entry e in
      List.for_all
        (fun len ->
          match Value_join.decode_entry (String.sub s 0 len) with
          | exception Failure _ -> true
          | _ -> false)
        (List.init (String.length s) Fun.id))

let test_spill_record_rejects_garbage () =
  let item oid = { Collection.oid; value = Value.Int 7 } in
  let s = Value_join.encode_entry (3, [ ("v", item None) ], "k") in
  (* index 8, key 8+1, count 8, variable 8+1: the OID tag is at 34 *)
  let with_byte pos c = String.mapi (fun j x -> if j = pos then c else x) s in
  let fails name bytes =
    match Value_join.decode_entry bytes with
    | exception Failure _ -> ()
    | _ -> Alcotest.failf "%s: decoded" name
  in
  fails "bad OID tag" (with_byte 34 '\002');
  fails "trailing bytes" (s ^ "x");
  fails "negative count" (String.mapi (fun j x -> if j >= 17 && j < 25 then '\255' else x) s);
  let with_oid = Value_join.encode_entry (3, [ ("v", item (Some (Oid.make ~class_id:1 ~slot:2))) ], "k") in
  fails "negative OID"
    (String.mapi (fun j x -> if j >= 35 && j < 43 then '\255' else x) with_oid)

let suites =
  [ ( "executor.oracle",
      [ Alcotest.test_case "Example 8.2" `Quick test_example_82_execution;
        Alcotest.test_case "Example 8.1" `Quick test_example_81_execution;
        Alcotest.test_case "single hop" `Quick test_single_hop_path;
        Alcotest.test_case "immediate" `Quick test_immediate_selection;
        Alcotest.test_case "conjunction" `Quick test_conjunction_mixed;
        Alcotest.test_case "explicit join" `Quick test_explicit_join_query;
        Alcotest.test_case "disjunction" `Quick test_disjunction_union;
        Alcotest.test_case "cross product" `Quick test_cross_product;
        Alcotest.test_case "both-sided path join" `Quick test_both_sided_path_join;
        Alcotest.test_case "multi-key group by" `Quick test_multi_key_group_by;
        QCheck_alcotest.to_alcotest prop_random_queries_match_oracle
      ] );
    ( "executor.compile",
      [ Alcotest.test_case "projection differential" `Quick
          test_compiled_projection_matches_interpreter;
        Alcotest.test_case "aggregate differential" `Quick
          test_compiled_aggregates_match_interpreter;
        Alcotest.test_case "error differential" `Quick test_error_differential;
        QCheck_alcotest.to_alcotest prop_compiled_matches_interpreted
      ] );
    ( "executor.semantics",
      [ Alcotest.test_case "union dedup" `Quick test_union_deduplicates;
        Alcotest.test_case "minus subclass" `Quick test_minus_excludes_subclass;
        Alcotest.test_case "join methods agree" `Quick test_all_join_methods_agree;
        Alcotest.test_case "backward traversal fetches no target" `Quick
          test_backward_traversal_fetches_no_target;
        Alcotest.test_case "method predicate" `Quick test_method_in_predicate;
        Alcotest.test_case "method/attribute collision" `Quick
          test_method_attribute_name_collision;
        Alcotest.test_case "order by" `Quick test_order_by;
        Alcotest.test_case "group by / having" `Quick test_group_by_having;
        Alcotest.test_case "indexed access" `Quick test_indexed_access_same_result;
        Alcotest.test_case "path index access" `Quick test_path_index_access;
        Alcotest.test_case "global aggregates" `Quick test_global_aggregates;
        Alcotest.test_case "group aggregates" `Quick test_group_aggregates;
        Alcotest.test_case "aggregates on empty" `Quick test_aggregates_on_empty;
        Alcotest.test_case "order by aggregate" `Quick test_order_by_aggregate;
        Alcotest.test_case "set-valued references" `Quick test_set_valued_reference_paths;
        Alcotest.test_case "projection" `Quick test_projection_values
      ] );
    ( "executor.join",
      [ Alcotest.test_case "differential oracle (5 seeds)" `Quick test_join_oracle_fast;
        Alcotest.test_case "oracle catches sabotage" `Quick
          test_join_oracle_catches_sabotage;
        Alcotest.test_case "grace spill crash recovery" `Quick
          test_grace_spill_crash_recovery;
        Alcotest.test_case "explain analyze hash pin" `Quick
          test_explain_analyze_hash_join_pin;
        Alcotest.test_case "explain analyze push charges" `Quick
          test_explain_analyze_push_charges;
        Alcotest.test_case "memory budget flips method" `Quick
          test_mem_budget_flips_method;
        Alcotest.test_case "ANALYZE flips method" `Quick test_analyze_flips_join_method;
        Alcotest.test_case "NaN and -0.0 keys" `Quick test_nan_and_negative_zero_keys;
        QCheck_alcotest.to_alcotest prop_spill_record_roundtrip;
        QCheck_alcotest.to_alcotest prop_spill_record_prefix_fails;
        Alcotest.test_case "spill record rejects garbage" `Quick
          test_spill_record_rejects_garbage;
        Alcotest.test_case "grace budget < one partition" `Quick
          test_grace_budget_below_one_partition;
        Alcotest.test_case "sort-merge dup run > budget" `Quick
          test_sort_merge_dup_run_over_budget;
        Alcotest.test_case "fusion collection edges" `Quick test_fusion_collection_edges
      ] )
  ]
