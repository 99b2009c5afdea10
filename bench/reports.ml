(* Deterministic paper-vs-measured reports: one per table/figure of the
   paper (see DESIGN.md's experiment index). These print the same rows
   the paper reports; EXPERIMENTS.md records the comparison. *)

module Db = Mood.Db
module Catalog = Mood_catalog.Catalog
module Catalog_stats = Mood_catalog.Catalog_stats
module Stats = Mood_cost.Stats
module Io_cost = Mood_cost.Io_cost
module Sel = Mood_cost.Selectivity
module Join_cost = Mood_cost.Join_cost
module Path_cost = Mood_cost.Path_cost
module Optimizer = Mood_optimizer.Optimizer
module Join_order = Mood_optimizer.Join_order
module Plan = Mood_optimizer.Plan
module Dicts = Mood_optimizer.Dicts
module Collection = Mood_algebra.Collection
module Ops = Mood_algebra.Ops
module Disk = Mood_storage.Disk
module Store = Mood_storage.Store
module Btree = Mood_storage.Btree
module Vehicle = Mood_workload.Vehicle
module Value = Mood_model.Value
module Oid = Mood_model.Oid
module Table = Mood_util.Text_table

let heading title =
  Printf.printf "\n================ %s ================\n" title

let paper_env () =
  let cat = Catalog.create ~store:(Store.create ()) in
  Vehicle.define_schema cat;
  { Dicts.catalog = cat; stats = Vehicle.paper_stats (); params = Io_cost.default_params }

(* ------------------------------------------------------------------ *)
(* Tables 1-7: algebra return types, probed from the implementation     *)

let algebra_return_types () =
  heading "Tables 1-7: MOOD algebra return types (probed)";
  let store : (Oid.t, Value.t) Hashtbl.t = Hashtbl.create 16 in
  let ctx =
    { Collection.deref = (fun o -> Hashtbl.find_opt store o);
      type_of = (fun o -> if Hashtbl.mem store o then 0 else -1)
    }
  in
  let oid i = Oid.make ~class_id:0 ~slot:i in
  for i = 0 to 3 do
    Hashtbl.replace store (oid i) (Value.Tuple [ ("n", Value.Int i) ])
  done;
  let os = List.init 4 oid in
  let extent = Collection.of_objects (List.map (fun o -> (o, Hashtbl.find store o)) os) in
  let set = Collection.set_of os and lst = Collection.List os in
  let named = Collection.Named (oid 0) in
  let kinds = [ ("Extent", extent); ("Set", set); ("List", lst); ("Named Obj.", named) ] in
  let name c = Collection.kind_name (Collection.kind c) in

  let t1 = Table.create ~header:[ "arg type"; "Extent"; "Set"; "List"; "Named Obj." ] in
  Table.add_row t1
    ("Select return type"
    :: List.map (fun (_, c) -> name (Ops.select ctx c (fun _ -> true))) kinds);
  print_endline "Table 1 (Select):";
  Table.print t1;

  let t2 = Table.create ~header:("arg2 \\ arg1" :: List.map fst kinds) in
  List.iter
    (fun (rname, right) ->
      Table.add_row t2
        (rname
        :: List.map
             (fun (_, left) ->
               name (Ops.join ctx left right (fun _ _ -> true) ~left_name:"l" ~right_name:"r"))
             kinds))
    kinds;
  print_endline "\nTable 2 (Join):";
  Table.print t2;

  let t3 = Table.create ~header:[ "type of arg"; "DupElim(arg)" ] in
  List.iter
    (fun (n, c) ->
      let result = try name (Ops.dup_elim ctx c) with Ops.Not_applicable _ -> "not applicable" in
      Table.add_row t3 [ n; result ])
    [ ("Set", set); ("List", lst); ("Extent", extent) ];
  print_endline "\nTable 3 (DupElim):";
  Table.print t3;

  let t4 = Table.create ~header:[ "arguments"; "Union"; "Intersection"; "Difference" ] in
  List.iter
    (fun (n, a, b) ->
      Table.add_row t4
        [ n;
          name (Ops.union ctx a b);
          name (Ops.intersection ctx a b);
          name (Ops.difference ctx a b)
        ])
    [ ("Set, Set", set, set); ("Set, List", set, lst); ("List, List", lst, lst) ];
  print_endline "\nTable 4 (Union/Intersection/Difference):";
  Table.print t4;

  let t56 = Table.create ~header:[ "type of arg"; "asSet"; "asList"; "asExtent" ] in
  List.iter
    (fun (n, c) ->
      let as_extent =
        try name (Ops.as_extent ctx c) with Ops.Not_applicable _ -> "not applicable"
      in
      Table.add_row t56 [ n; name (Ops.as_set c); name (Ops.as_list c); as_extent ])
    kinds;
  print_endline "\nTables 5-6 (asSet / asList / asExtent):";
  Table.print t56;

  (* Table 7: Unnest argument kinds — exercised on the paper's example *)
  let e =
    Collection.of_values
      [ Value.Tuple [ ("h", Value.Int 1); ("m", Value.set [ Value.Ref (oid 1); Value.Ref (oid 2) ]) ];
        Value.Tuple [ ("h", Value.Int 4); ("m", Value.set [ Value.Ref (oid 3) ]) ]
      ]
  in
  let unnested = Ops.unnest ctx e ~attr:"m" in
  Printf.printf "\nTable 7 (Unnest example): |e| = 2 rows -> |Unnest(e)| = %d rows, kind %s\n"
    (Collection.cardinality unnested) (name unnested)

(* ------------------------------------------------------------------ *)
(* Tables 8-10                                                          *)

let cost_parameters () =
  heading "Table 8: cost model parameters (paper statistics, derived values)";
  let stats = Vehicle.paper_stats () in
  let t = Table.create ~header:[ "Class.Attr"; "fan"; "totref"; "totlinks"; "hitprb" ] in
  List.iter
    (fun (cls, attr) ->
      match Stats.ref_stats stats ~cls ~attr with
      | Some r ->
          Table.add_row t
            [ cls ^ "." ^ attr;
              Printf.sprintf "%.0f" r.Stats.fan;
              string_of_int r.Stats.totref;
              Printf.sprintf "%.0f" (Stats.totlinks stats ~cls ~attr);
              Printf.sprintf "%.2g" (Stats.hitprb stats ~cls ~attr)
            ]
      | None -> ())
    [ ("Vehicle", "drivetrain"); ("Vehicle", "company"); ("VehicleDriveTrain", "engine") ];
  Table.print t;
  print_endline "(paper Table 15: drivetrain 1/10000/20000/1, manufacturer 1/20000/20000/0.1,";
  print_endline " engine 1/10000/10000/1 — identical by construction)"

let btree_parameters () =
  heading "Table 9: B+-tree parameters at several cardinalities";
  let t = Table.create ~header:[ "entries"; "v(I)"; "level(I)"; "leaves(I)"; "keysize"; "unique" ] in
  List.iter
    (fun n ->
      let store = Store.create () in
      let bt : int Btree.t = Store.new_btree store ~order:50 ~key_size:8 () in
      for i = 0 to n - 1 do
        Btree.insert bt ~key:(Value.Int i) i
      done;
      let s = Btree.stats bt in
      Table.add_row t
        [ string_of_int n;
          string_of_int s.Btree.order;
          string_of_int s.Btree.levels;
          string_of_int s.Btree.leaves;
          string_of_int s.Btree.key_size;
          string_of_bool s.Btree.unique
        ])
    [ 100; 1000; 10000; 100000 ];
  Table.print t

let disk_parameters () =
  heading "Table 10: physical disk parameters (calibrated, DESIGN.md par.4)";
  let p = Disk.default_params in
  let t = Table.create ~header:[ "Parameter"; "Definition"; "Value" ] in
  Table.add_row t [ "B"; "block size"; Printf.sprintf "%d bytes" p.Disk.block_size ];
  Table.add_row t [ "btt"; "block transfer time"; Printf.sprintf "%.4f s" p.Disk.btt ];
  Table.add_row t [ "ebt"; "effective block transfer time"; Printf.sprintf "%.4f s" p.Disk.ebt ];
  Table.add_row t [ "r"; "average rotational latency"; Printf.sprintf "%.5f s" p.Disk.rot ];
  Table.add_row t [ "s"; "average seek time"; Printf.sprintf "%.3f s" p.Disk.seek ];
  Table.add_row t
    [ "CPUCOST"; "per-comparison CPU charge (Section 6.2)";
      Printf.sprintf "%.0e s" Io_cost.default_params.Io_cost.cpu_cost
    ];
  Table.print t;
  Printf.printf "calibration: 22000 x (s+r+btt) = %.3f s (paper Table 16: 520.825)\n"
    (22000. *. (p.Disk.seek +. p.Disk.rot +. p.Disk.btt))

(* ------------------------------------------------------------------ *)
(* Figure 2.2: catalog on storage                                       *)

let catalog_layout () =
  heading "Figure 2.2: catalog persisted in extents (first lines)";
  let cat = Catalog.create ~store:(Store.create ()) in
  Vehicle.define_schema cat;
  let dump = Catalog.render_system_catalog cat in
  let lines = String.split_on_char '\n' dump in
  List.iteri (fun i line -> if i < 18 then print_endline line) lines;
  Printf.printf "... (%d lines total)\n" (List.length lines)

(* ------------------------------------------------------------------ *)
(* Figures 7.1/7.2: clause and operator order                           *)

let clause_order () =
  heading "Figures 7.1/7.2: clause and operator order in emitted plans";
  let env = paper_env () in
  let q =
    Mood_sql.Parser.parse_query
      "SELECT v.weight FROM Vehicle v WHERE v.weight > 10 OR v.id = 1 GROUP BY v.weight \
       HAVING v.weight < 5000 ORDER BY v.weight"
  in
  let optimized = Optimizer.optimize env q in
  let rec spine = function
    | Plan.Sort { source; _ } -> "ORDER BY" :: spine source
    | Plan.Project { source; _ } -> "SELECT(projection)" :: spine source
    | Plan.Group { source; having; _ } ->
        (if having <> None then "HAVING" else "GROUP BY") :: "GROUP BY" :: spine source
    | Plan.Union _ -> [ "UNION(WHERE AND-terms)" ]
    | Plan.Select { source; _ } -> "WHERE(select)" :: spine source
    | Plan.Join { left; _ } -> "WHERE(join)" :: spine left
    | Plan.Ind_sel { source; _ } -> "WHERE(indsel)" :: spine source
    | Plan.Path_ind_sel _ -> [ "WHERE(path index); FROM" ]
    | Plan.Vscan ({ by = _ :: _; _ } as v) ->
        (* A fused GROUP BY: the clauses it absorbed, in paper order. *)
        (if v.having <> None then [ "HAVING" ] else [])
        @ [ "GROUP BY" ]
        @ spine (Plan.Vscan { v with by = []; having = None; aggregates = [] })
    | Plan.Vscan { pred = Some _; _ } -> [ "WHERE(vscan); FROM" ]
    | Plan.Vscan { pred = None; _ } | Plan.Bind _ | Plan.Named_obj _ -> [ "FROM" ]
  in
  print_endline "plan spine, top-down (paper order: ORDER BY last, FROM first):";
  List.iter (fun s -> Printf.printf "  %s\n" s) (spine optimized.Optimizer.plan);
  print_endline "\nWithin WHERE, Figure 7.2's SELECT < JOIN < PROJECT < UNION is visible in";
  print_endline "the plan tree: selections sit under joins, the union sits on top."

(* ------------------------------------------------------------------ *)
(* Tables 11/12/16: the dictionaries for Example 8.1                    *)

let dictionaries () =
  heading "Tables 11-12 + 16: selection dictionaries for Example 8.1";
  let env = paper_env () in
  let optimized = Optimizer.optimize env (Mood_sql.Parser.parse_query Vehicle.example_81) in
  print_endline "ImmSelInfo (Table 11) — empty: the query has no immediate selections";
  List.iter
    (fun (var, entries) ->
      if entries <> [] then begin
        Printf.printf "variable %s:\n" var;
        print_endline (Dicts.render_imm entries)
      end)
    optimized.Optimizer.trace.Optimizer.t_imm;
  print_endline "\nPathSelInfo (Table 12 structure, Table 16 contents):";
  print_endline (Dicts.render_path optimized.Optimizer.trace.Optimizer.t_paths);
  print_endline "\npaper Table 16:";
  print_endline "  P1 v.drivetrain.engine.cylinders=2 : fs 6.25e-2, F 771.825, F/(1-fs) 823.280";
  print_endline "  P2 v.company.name='BMW'            : fs 5.00e-5, F 520.825, F/(1-fs) 520.825";
  print_endline "(P2's printed 5.00e-5 matches the formula without its hitprb factor; with the";
  print_endline " factor as printed in Section 4.1 the estimate is 5.0e-6 — see EXPERIMENTS.md)"

(* ------------------------------------------------------------------ *)
(* Tables 13-15: generated database statistics                          *)

let vehicle_statistics () =
  heading "Tables 13-15: paper statistics vs statistics measured from generated data";
  let db = Db.create ~buffer_capacity:1024 () in
  Vehicle.define_schema (Db.catalog db);
  let scale = 0.02 in
  ignore (Vehicle.generate ~catalog:(Db.catalog db) ~scale ());
  let measured = Catalog_stats.compute (Db.catalog db) in
  let paper = Vehicle.paper_stats () in
  let t =
    Table.create
      ~header:[ "Class"; "|C| paper"; "|C| measured/scale"; "fan"; "totref ratio"; "hitprb" ]
  in
  List.iter
    (fun (cls, attr) ->
      let p_card = Stats.cardinality paper cls in
      let m_card = float_of_int (Stats.cardinality measured cls) /. scale in
      let fan, totref_ratio, hit =
        match attr, Stats.ref_stats measured ~cls ~attr:(Option.value ~default:"" attr) with
        | Some a, Some r ->
            ( Printf.sprintf "%.2f" r.Stats.fan,
              Printf.sprintf "%.2f"
                (float_of_int r.Stats.totref /. float_of_int (Stats.cardinality measured cls)),
              Printf.sprintf "%.2g" (Stats.hitprb measured ~cls ~attr:a) )
        | _, _ -> ("-", "-", "-")
      in
      Table.add_row t
        [ cls; string_of_int p_card; Printf.sprintf "%.0f" m_card; fan; totref_ratio; hit ])
    [ ("Vehicle", Some "drivetrain");
      ("VehicleDriveTrain", Some "engine");
      ("VehicleEngine", None);
      ("Company", None)
    ];
  Table.print t;
  match Stats.attr_stats measured ~cls:"VehicleEngine" ~attr:"cylinders" with
  | Some a ->
      Printf.printf "cylinders: dist=%d (paper 16) min=%s (2) max=%s (32)\n" a.Stats.dist
        (match a.Stats.min_value with Some v -> Printf.sprintf "%.0f" v | None -> "?")
        (match a.Stats.max_value with Some v -> Printf.sprintf "%.0f" v | None -> "?")
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Table 17 + Example 8.2                                               *)

let table17 () =
  heading "Table 17: initial cost/selectivity estimations for Example 8.2";
  (* The paper prints the table head but not its numbers; these are the
     values our Algorithm 8.2 computes in its first iteration. *)
  let env = paper_env () in
  let t = Table.create ~header:[ "edge"; "best method"; "jc (s)"; "js"; "jc/(1-js)" ] in
  let edge name hop ~left_k ~right_k ~right_accessed =
    let method_, jc, js =
      Join_order.edge_cost_and_selectivity env ~left_k ~right_k ~right_accessed
        ~left_in_memory:false ~hop
    in
    let rank = if js >= 1. then infinity else jc /. (1. -. js) in
    Table.add_row t
      [ name;
        Format.asprintf "%a" Join_cost.pp_method method_;
        Printf.sprintf "%.2f" jc;
        Printf.sprintf "%.4g" js;
        Printf.sprintf "%.2f" rank
      ]
  in
  edge "Vehicle-VehicleDriveTrain"
    { Sel.cls = "Vehicle"; attr = "drivetrain" }
    ~left_k:20000. ~right_k:10000. ~right_accessed:false;
  edge "VehicleDriveTrain-VehicleEngine(cyl=2)"
    { Sel.cls = "VehicleDriveTrain"; attr = "engine" }
    ~left_k:10000. ~right_k:625. ~right_accessed:true;
  Table.print t;
  print_endline "(the selective DriveTrain-Engine edge ranks first: the paper's T1)"

let example_plans () =
  heading "Examples 8.1 and 8.2: access plans (verbatim paper reproduction)";
  let env = paper_env () in
  List.iter
    (fun (name, q) ->
      let optimized = Optimizer.optimize env (Mood_sql.Parser.parse_query q) in
      Printf.printf "--- %s: %s\n%s\n\n" name q
        (Plan.render ~label_joins:true optimized.Optimizer.plan))
    [ ("Example 8.1", Vehicle.example_81);
      ("Example 8.2", Vehicle.example_82);
      ( "Section 3.1 example",
        "SELECT c FROM EVERY Automobile - JapaneseAuto c, VehicleEngine v WHERE \
         c.drivetrain.transmission = 'AUTOMATIC' AND c.drivetrain.engine = v AND \
         v.cylinders > 4" )
    ]

let all () =
  algebra_return_types ();
  cost_parameters ();
  btree_parameters ();
  disk_parameters ();
  catalog_layout ();
  clause_order ();
  dictionaries ();
  vehicle_statistics ();
  table17 ();
  example_plans ()
