(* Tests for the optimizer (Sections 7-8): dictionaries, atomic
   selection ordering, the F/(1-s) path ordering lemma (Appendix),
   greedy join ordering (Algorithm 8.2), and the verbatim reproduction
   of the paper's Example 8.1 / 8.2 access plans. *)

module Plan = Mood_optimizer.Plan
module Dicts = Mood_optimizer.Dicts
module Atomic_order = Mood_optimizer.Atomic_order
module Path_order = Mood_optimizer.Path_order
module Join_order = Mood_optimizer.Join_order
module Optimizer = Mood_optimizer.Optimizer
module Parser = Mood_sql.Parser
module Ast = Mood_sql.Ast
module Catalog = Mood_catalog.Catalog
module Store = Mood_storage.Store
module Stats = Mood_cost.Stats
module Io_cost = Mood_cost.Io_cost
module Sel = Mood_cost.Selectivity
module Join_cost = Mood_cost.Join_cost
module Value = Mood_model.Value

let paper_env () =
  let cat = Catalog.create ~store:(Store.create ()) in
  Mood_workload.Vehicle.define_schema cat;
  { Dicts.catalog = cat;
    stats = Mood_workload.Vehicle.paper_stats ();
    params = Io_cost.default_params;
    settings = Dicts.default_settings
  }

let optimize env src = Optimizer.optimize env (Parser.parse_query src)

(* ---------------- Path ordering: the Appendix lemma ---------------- *)

let test_objective () =
  (* f = F1 + s1 F2 + s1 s2 F3 *)
  let f = Path_order.objective [ (10., 0.5); (20., 0.1); (30., 0.9) ] in
  Alcotest.(check bool) "objective" true (Float.abs (f -. (10. +. 10. +. 1.5)) < 1e-9)

let test_order_two_paths () =
  (* the base case of the induction: F1 + s1 F2 < F2 + s2 F1 iff
     F1/(1-s1) < F2/(1-s2) *)
  let a = (100., 0.2) and b = (50., 0.8) in
  (* ranks: 125 vs 250 -> a first *)
  match Path_order.order Fun.id [ b; a ] with
  | [ x; _ ] -> Alcotest.(check bool) "a first" true (x = a)
  | _ -> Alcotest.fail "lost an element"

let prop_rank_order_minimizes_objective =
  (* the paper's lemma, checked against exhaustive enumeration *)
  let entry = QCheck.Gen.(pair (float_range 0.1 1000.) (float_range 0. 0.99)) in
  QCheck.Test.make ~name:"F/(1-s) order minimizes f (Appendix lemma)" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 6) entry))
    (fun paths ->
      let heuristic = Path_order.objective (Path_order.order Fun.id paths) in
      let _, best = Path_order.exhaustive_best paths in
      heuristic <= best +. (1e-9 *. Float.max 1. best))

let test_exhaustive_best_small () =
  let perm, cost = Path_order.exhaustive_best [ (100., 0.5); (10., 0.5) ] in
  Alcotest.(check (list int)) "picks cheap first" [ 1; 0 ] perm;
  Alcotest.(check bool) "cost" true (Float.abs (cost -. (10. +. 50.)) < 1e-9)

(* ---------------- Atomic ordering (Section 8.1) ---------------- *)

let imm env ~cls ~var ~attr cmp constant =
  Dicts.imm_entry env ~var ~cls ~attr cmp (Value.Int constant)

let env_with_indexed_class () =
  let env = paper_env () in
  (* a class with an indexed and an unindexed attribute *)
  Stats.set_class env.Dicts.stats "Item" { Stats.cardinality = 100000; nbpages = 5000; obj_size = 200 };
  Stats.set_attr env.Dicts.stats ~cls:"Item" ~attr:"a"
    { Stats.dist = 10000; max_value = Some 10000.; min_value = Some 0.; notnull = 1.; avg_width = 8. };
  Stats.set_attr env.Dicts.stats ~cls:"Item" ~attr:"b"
    { Stats.dist = 4; max_value = Some 4.; min_value = Some 0.; notnull = 1.; avg_width = 8. };
  Stats.set_index env.Dicts.stats ~cls:"Item" ~attr:"a"
    { Stats.order = 50; levels = 3; leaves = 2000; key_size = 8; unique = false };
  env

let test_atomic_order_chooses_selective_index () =
  let env = env_with_indexed_class () in
  let e1 = imm env ~cls:"Item" ~var:"i" ~attr:"a" Ast.Eq 5 in
  let e2 = imm env ~cls:"Item" ~var:"i" ~attr:"b" Ast.Eq 1 in
  let decision = Atomic_order.decide env ~cls:"Item" [ e1; e2 ] in
  (* the indexed equality on a (selectivity 1e-4) beats a 5000-page scan *)
  Alcotest.(check int) "one index used" 1 (List.length decision.Atomic_order.indexed);
  Alcotest.(check bool) "it is the a-index" true
    ((List.hd decision.Atomic_order.indexed).Dicts.i_attr = "a");
  Alcotest.(check bool) "marked indexed" true (e1.Dicts.i_access = `Indexed);
  Alcotest.(check bool) "b stays sequential" true (e2.Dicts.i_access = `Sequential);
  (* residual applied in ascending selectivity *)
  Alcotest.(check int) "residual" 1 (List.length decision.Atomic_order.residual);
  Alcotest.(check bool) "cheaper than scan" true
    (decision.Atomic_order.access_cost < Io_cost.seqcost env.Dicts.params 5000);
  (* combined selectivity = product *)
  Alcotest.(check bool) "selectivity product" true
    (Float.abs (decision.Atomic_order.combined_selectivity -. (1e-4 *. 0.25)) < 1e-9)

let test_atomic_order_rejects_useless_index () =
  let env = env_with_indexed_class () in
  (* a very unselective range over the indexed attribute: RNGXCOST +
     fetch exceeds the scan, so no index is used *)
  let e = imm env ~cls:"Item" ~var:"i" ~attr:"a" Ast.Ge 1 in
  let decision = Atomic_order.decide env ~cls:"Item" [ e ] in
  Alcotest.(check int) "no index" 0 (List.length decision.Atomic_order.indexed);
  Alcotest.(check bool) "scan cost" true
    (Float.abs (decision.Atomic_order.access_cost -. Io_cost.seqcost env.Dicts.params 5000)
    < 1e-9)

let test_residual_sorted_by_selectivity () =
  let env = env_with_indexed_class () in
  let e1 = imm env ~cls:"Item" ~var:"i" ~attr:"b" Ast.Eq 1 in (* 0.25 *)
  let e2 = imm env ~cls:"Item" ~var:"i" ~attr:"b" Ast.Ge 3 in (* (4-3)/4 = 0.25 *)
  let e3 = imm env ~cls:"Item" ~var:"i" ~attr:"b" Ast.Ne 1 in (* 0.75 *)
  let decision = Atomic_order.decide env ~cls:"Item" [ e3; e1; e2 ] in
  let sels = List.map (fun (e : Dicts.imm_entry) -> e.Dicts.i_selectivity) decision.Atomic_order.residual in
  Alcotest.(check bool) "ascending" true (sels = List.sort Float.compare sels)

(* ---------------- Join ordering (Algorithm 8.2) ---------------- *)

let chain_env () =
  (* A -> B -> C with a selective predicate on C: the greedy picks the
     B-C edge first (the Example 8.2 situation). *)
  let env = paper_env () in
  List.iteri
    (fun i name ->
      ignore i;
      Stats.set_class env.Dicts.stats name
        { Stats.cardinality = 10000; nbpages = 1000; obj_size = 400 })
    [ "A"; "B"; "Cc" ];
  Stats.set_ref env.Dicts.stats ~cls:"A" ~attr:"b" { Stats.target = "B"; fan = 1.; totref = 10000 };
  Stats.set_ref env.Dicts.stats ~cls:"B" ~attr:"c" { Stats.target = "Cc"; fan = 1.; totref = 10000 };
  env

let endpoint ?(k = 10000.) ?(accessed = false) ?(in_memory = false) ~cls ~var () =
  { Join_order.e_plan = Plan.Bind { class_name = cls; var; every = false; minus = [] };
    e_var = var;
    e_cls = cls;
    e_k = k;
    e_accessed = accessed;
    e_in_memory = in_memory
  }

let test_greedy_prefers_selective_edge () =
  let env = chain_env () in
  let endpoints =
    [ endpoint ~cls:"A" ~var:"a" ();
      endpoint ~cls:"B" ~var:"b" ();
      endpoint ~cls:"Cc" ~var:"c" ~k:100. ~accessed:true ()
    ]
  in
  let hops = [ { Sel.cls = "A"; attr = "b" }; { Sel.cls = "B"; attr = "c" } ] in
  let result = Join_order.order env ~endpoints ~hops in
  (* the first (innermost) join must be B-C *)
  (match result.Join_order.r_plan with
  | Plan.Join { right = Plan.Join { pred; _ }; _ } ->
      Alcotest.(check string) "inner edge" "b.c = c" (Ast.predicate_to_string pred)
  | Plan.Join { left = Plan.Join { pred; _ }; _ } ->
      Alcotest.(check string) "inner edge" "b.c = c" (Ast.predicate_to_string pred)
  | _ -> Alcotest.fail "expected a two-join tree");
  Alcotest.(check bool) "head shrinks" true (result.Join_order.r_head_fraction < 1.01)

let test_greedy_not_worse_than_exhaustive_on_chain () =
  let env = chain_env () in
  let endpoints =
    [ endpoint ~cls:"A" ~var:"a" ();
      endpoint ~cls:"B" ~var:"b" ();
      endpoint ~cls:"Cc" ~var:"c" ~k:100. ~accessed:true ()
    ]
  in
  let hops = [ { Sel.cls = "A"; attr = "b" }; { Sel.cls = "B"; attr = "c" } ] in
  let greedy = Join_order.order env ~endpoints ~hops in
  let best = Join_order.exhaustive env ~endpoints ~hops in
  Alcotest.(check bool)
    (Printf.sprintf "greedy %.2f within 2x of best %.2f" greedy.Join_order.r_cost
       best.Join_order.r_cost)
    true
    (greedy.Join_order.r_cost <= (2. *. best.Join_order.r_cost) +. 1e-9)

let test_edge_cost_exposed () =
  let env = paper_env () in
  let method_, jc, js =
    Join_order.edge_cost_and_selectivity env ~left_k:10000. ~right_k:625. ~right_accessed:true
      ~left_in_memory:false
      ~hop:{ Sel.cls = "VehicleDriveTrain"; attr = "engine" }
  in
  Alcotest.(check string) "hash for the Example 8.2 edge" "HASH_PARTITION"
    (Format.asprintf "%a" Join_cost.pp_method method_);
  Alcotest.(check bool) "selectivity ~ 0.0625" true (Float.abs (js -. 0.0625) < 1e-3);
  Alcotest.(check bool) "cost ~ 91" true (Float.abs (jc -. 91.) < 3.)

(* ---------------- Example plans (Section 8) ---------------- *)

let example81_expected =
  "T1 : JOIN(\n\
  \  BIND(Vehicle, v),\n\
  \  SELECT(BIND(Company, c), c.name = 'BMW'),\n\
  \  HASH_PARTITION,\n\
  \  v.company = c.self )\n\
   \n\
   T2 : JOIN(\n\
  \  T1,\n\
  \  BIND(VehicleDriveTrain, d),\n\
  \  FORWARD_TRAVERSAL,\n\
  \  v.drivetrain = d.self )\n\
   \n\
   PROJECT(\n\
  \  JOIN(\n\
  \    T2,\n\
  \    SELECT(BIND(VehicleEngine, e), e.cylinders = 2),\n\
  \    FORWARD_TRAVERSAL,\n\
  \    d.engine = e.self ),\n\
  \  [v.self] )"

let example82_expected =
  "PROJECT(\n\
  \  JOIN(\n\
  \    BIND(Vehicle, v),\n\
  \    JOIN(\n\
  \      BIND(VehicleDriveTrain, d),\n\
  \      SELECT(BIND(VehicleEngine, e), e.cylinders = 2),\n\
  \      HASH_PARTITION,\n\
  \      d.engine = e.self ),\n\
  \    HASH_PARTITION,\n\
  \    v.drivetrain = d.self ),\n\
  \  [v.self] )"

let test_example_81_plan () =
  let env = paper_env () in
  let optimized = optimize env Mood_workload.Vehicle.example_81 in
  Alcotest.(check string) "Example 8.1 access plan" example81_expected
    (Plan.render ~label_joins:true optimized.Optimizer.plan)

let test_example_82_plan () =
  let env = paper_env () in
  let optimized = optimize env Mood_workload.Vehicle.example_82 in
  Alcotest.(check string) "Example 8.2 access plan" example82_expected
    (Plan.render ~label_joins:true optimized.Optimizer.plan)

(* With a B+-tree on Company(name), Section 8.1's rule reads the first
   path's terminal through the index. Only the terminal's access
   changes: the join methods and the estimated cost stay the paper's. *)
let example81_indexed_expected =
  "T1 : JOIN(\n\
  \  BIND(Vehicle, v),\n\
  \  INDSEL(\n\
  \    BIND(Company, c),\n\
  \    name = \"BMW\" [B+-tree index] ),\n\
  \  HASH_PARTITION,\n\
  \  v.company = c.self )\n\
   \n\
   T2 : JOIN(\n\
  \  T1,\n\
  \  BIND(VehicleDriveTrain, d),\n\
  \  FORWARD_TRAVERSAL,\n\
  \  v.drivetrain = d.self )\n\
   \n\
   PROJECT(\n\
  \  JOIN(\n\
  \    T2,\n\
  \    SELECT(BIND(VehicleEngine, e), e.cylinders = 2),\n\
  \    FORWARD_TRAVERSAL,\n\
  \    d.engine = e.self ),\n\
  \  [v.self] )"

let test_example_81_indexed_terminal () =
  let plain = optimize (paper_env ()) Mood_workload.Vehicle.example_81 in
  let env = paper_env () in
  Stats.set_index env.Dicts.stats ~cls:"Company" ~attr:"name"
    { Stats.order = 100; levels = 3; leaves = 2000; key_size = 16; unique = true };
  let indexed = optimize env Mood_workload.Vehicle.example_81 in
  Alcotest.(check string) "terminal probed through the index" example81_indexed_expected
    (Plan.render ~label_joins:true indexed.Optimizer.plan);
  Alcotest.(check (float 1e-9)) "estimated cost unchanged"
    plain.Optimizer.trace.Optimizer.t_est_cost indexed.Optimizer.trace.Optimizer.t_est_cost

let test_example_81_dictionary () =
  (* Table 16: P2 ordered before P1 *)
  let env = paper_env () in
  let optimized = optimize env Mood_workload.Vehicle.example_81 in
  match optimized.Optimizer.trace.Optimizer.t_paths with
  | [ p2; p1 ] ->
      Alcotest.(check bool) "P2 first" true
        (p2.Dicts.p_terminal_attr = "name" && p1.Dicts.p_terminal_attr = "cylinders");
      Alcotest.(check bool) "P1 selectivity 0.0625" true
        (Float.abs (p1.Dicts.p_selectivity -. 0.0625) < 1e-6);
      Alcotest.(check bool) "P1 cost ~ 771.8 (ours 775.3)" true
        (Float.abs (p1.Dicts.p_forward_cost -. 771.825) /. 771.825 < 0.005);
      Alcotest.(check bool) "P2 cost ~ 520.8" true
        (Float.abs (p2.Dicts.p_forward_cost -. 520.825) < 0.5)
  | _ -> Alcotest.fail "expected two path entries"

let test_plan_invariant_under_conjunct_order () =
  (* writing the WHERE conjuncts in the other order must not change the
     chosen plan: ordering comes from F/(1-s), not query text *)
  let env = paper_env () in
  let swapped =
    "Select v From Vehicle v where v.drivetrain.engine.cylinders = 2 and \
     v.company.name = 'BMW'"
  in
  let plan_of src = Plan.render ~label_joins:true (optimize env src).Optimizer.plan in
  Alcotest.(check string) "same plan either way"
    (plan_of Mood_workload.Vehicle.example_81)
    (plan_of swapped)

(* ---------------- Pipeline shapes ---------------- *)

let test_or_produces_union () =
  let env = paper_env () in
  let optimized =
    optimize env "SELECT v FROM Vehicle v WHERE v.weight > 100 OR v.id = 3"
  in
  Alcotest.(check int) "two AND-terms" 2 optimized.Optimizer.trace.Optimizer.t_and_terms;
  let rec has_union = function
    | Plan.Union (_ :: _ :: _) -> true
    | Plan.Union nodes -> List.exists has_union nodes
    | Plan.Project { source; _ } | Plan.Sort { source; _ } | Plan.Group { source; _ }
    | Plan.Select { source; _ } | Plan.Ind_sel { source; _ } ->
        has_union source
    | Plan.Join { left; right; _ } -> has_union left || has_union right
    | Plan.Bind _ | Plan.Path_ind_sel _ | Plan.Named_obj _ | Plan.Vscan _ -> false
  in
  Alcotest.(check bool) "union present" true (has_union optimized.Optimizer.plan)

let test_false_where_yields_empty_union () =
  let env = paper_env () in
  let optimized = optimize env "SELECT v FROM Vehicle v WHERE 1 = 2" in
  let rec find_empty_union = function
    | Plan.Union [] -> true
    | Plan.Project { source; _ } | Plan.Sort { source; _ } | Plan.Group { source; _ } ->
        find_empty_union source
    | _ -> false
  in
  Alcotest.(check bool) "provably false" true (find_empty_union optimized.Optimizer.plan)

let test_clause_order_figure71 () =
  (* ORDER BY above projection above GROUP above the WHERE machinery *)
  let env = paper_env () in
  let optimized =
    optimize env
      "SELECT v.weight FROM Vehicle v WHERE v.weight > 10 GROUP BY v.weight \
       HAVING v.weight < 5000 ORDER BY v.weight"
  in
  match optimized.Optimizer.plan with
  | Plan.Sort { source = Plan.Project { source = Plan.Group { source = inner; having = Some _; _ }; _ }; _ } ->
      let rec is_where = function
        | Plan.Select _ | Plan.Ind_sel _ | Plan.Bind _ | Plan.Join _ -> true
        | Plan.Union nodes -> List.for_all is_where nodes
        | _ -> false
      in
      Alcotest.(check bool) "WHERE below" true (is_where inner)
  | _ -> Alcotest.fail "clause order violates Figure 7.1"

let test_explicit_join_plan () =
  (* the Section 3.1 example query joins c.drivetrain.engine = v *)
  let env = paper_env () in
  let optimized =
    optimize env
      "SELECT c FROM EVERY Automobile - JapaneseAuto c, VehicleEngine v WHERE \
       c.drivetrain.transmission = 'AUTOMATic' AND c.drivetrain.engine = v AND v.cylinders > 4"
  in
  let rendered = Plan.render optimized.Optimizer.plan in
  (* the FROM minus survives into the bind *)
  Alcotest.(check bool) "minus rendered" true
    (String.length rendered > 0
    &&
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    contains rendered "EVERY Automobile - JapaneseAuto"
    && contains rendered "= v.self")

let test_fresh_var_name () =
  Alcotest.(check string) "initial" "d" (Optimizer.fresh_var_name ~taken:[ "v" ] "drivetrain");
  Alcotest.(check string) "collision" "d2" (Optimizer.fresh_var_name ~taken:[ "v"; "d" ] "drivetrain");
  Alcotest.(check string) "second collision" "d3"
    (Optimizer.fresh_var_name ~taken:[ "v"; "d"; "d2" ] "drivetrain")

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [ ( "optimizer.path_order",
      [ Alcotest.test_case "objective" `Quick test_objective;
        Alcotest.test_case "two paths" `Quick test_order_two_paths;
        Alcotest.test_case "exhaustive" `Quick test_exhaustive_best_small;
        qtest prop_rank_order_minimizes_objective
      ] );
    ( "optimizer.atomic_order",
      [ Alcotest.test_case "selective index chosen" `Quick test_atomic_order_chooses_selective_index;
        Alcotest.test_case "useless index rejected" `Quick test_atomic_order_rejects_useless_index;
        Alcotest.test_case "residual order" `Quick test_residual_sorted_by_selectivity
      ] );
    ( "optimizer.join_order",
      [ Alcotest.test_case "greedy picks selective edge" `Quick test_greedy_prefers_selective_edge;
        Alcotest.test_case "greedy vs exhaustive" `Quick test_greedy_not_worse_than_exhaustive_on_chain;
        Alcotest.test_case "edge costs" `Quick test_edge_cost_exposed
      ] );
    ( "optimizer.examples",
      [ Alcotest.test_case "Example 8.1 plan verbatim" `Quick test_example_81_plan;
        Alcotest.test_case "Example 8.2 plan verbatim" `Quick test_example_82_plan;
        Alcotest.test_case "Table 16 dictionary" `Quick test_example_81_dictionary;
        Alcotest.test_case "conjunct-order invariance" `Quick
          test_plan_invariant_under_conjunct_order;
        Alcotest.test_case "Example 8.1 indexed terminal" `Quick
          test_example_81_indexed_terminal
      ] );
    ( "optimizer.pipeline",
      [ Alcotest.test_case "OR -> UNION" `Quick test_or_produces_union;
        Alcotest.test_case "FALSE where" `Quick test_false_where_yields_empty_union;
        Alcotest.test_case "Figure 7.1 order" `Quick test_clause_order_figure71;
        Alcotest.test_case "explicit join" `Quick test_explicit_join_plan;
        Alcotest.test_case "variable naming" `Quick test_fresh_var_name
      ] )
  ]
