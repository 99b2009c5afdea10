(* Tests for Mood_catalog: schema, hierarchy, objects, indexes, paths,
   system-catalog persistence, statistics derivation. *)

module Catalog = Mood_catalog.Catalog
module Catalog_stats = Mood_catalog.Catalog_stats
module Stats = Mood_cost.Stats
module Store = Mood_storage.Store
module Mtype = Mood_model.Mtype
module Value = Mood_model.Value
module Oid = Mood_model.Oid

let basic b = Mtype.Basic b

let fresh () =
  let store = Store.create ~buffer_capacity:128 () in
  Catalog.create ~store

let vehicle_catalog () =
  let cat = fresh () in
  Mood_workload.Vehicle.define_schema cat;
  cat

(* ---------------- Schema ---------------- *)

let test_define_and_lookup () =
  let cat = fresh () in
  let info =
    Catalog.define_class cat ~name:"Point"
      ~attributes:[ ("x", basic Mtype.Integer); ("y", basic Mtype.Integer) ]
      ()
  in
  Alcotest.(check string) "name" "Point" info.Catalog.class_name;
  Alcotest.(check int) "type_id round trip" info.Catalog.class_id (Catalog.type_id cat "Point");
  Alcotest.(check string) "type_name" "Point" (Catalog.type_name cat info.Catalog.class_id);
  Alcotest.(check bool) "find" true (Catalog.find_class cat "Point" <> None);
  Alcotest.(check bool) "missing" true (Catalog.find_class cat "Nope" = None)

let test_schema_errors () =
  let cat = fresh () in
  ignore (Catalog.define_class cat ~name:"A" ());
  let expect_error f =
    match f () with
    | exception Catalog.Schema_error _ -> ()
    | _ -> Alcotest.fail "expected Schema_error"
  in
  expect_error (fun () -> Catalog.define_class cat ~name:"A" ());
  expect_error (fun () -> Catalog.define_class cat ~name:"B" ~superclasses:[ "Zed" ] ());
  expect_error (fun () ->
      Catalog.define_class cat ~name:"C"
        ~attributes:[ ("r", Mtype.Reference "Nowhere") ]
        ());
  expect_error (fun () -> ignore (Catalog.type_id cat "Nope"))

let test_inheritance_attribute_merge () =
  let cat = vehicle_catalog () in
  let attrs = Catalog.attributes cat "JapaneseAuto" in
  Alcotest.(check (list string)) "inherits Vehicle's attributes"
    [ "id"; "weight"; "drivetrain"; "company" ]
    (List.map fst attrs)

let test_multiple_inheritance_conflict () =
  let cat = fresh () in
  ignore (Catalog.define_class cat ~name:"L" ~attributes:[ ("x", basic Mtype.Integer) ] ());
  ignore (Catalog.define_class cat ~name:"R" ~attributes:[ ("x", basic Mtype.Float) ] ());
  (match Catalog.define_class cat ~name:"Bad" ~superclasses:[ "L"; "R" ] () with
  | exception Catalog.Schema_error _ -> ()
  | _ -> Alcotest.fail "conflicting inherited types must be rejected");
  (* same type twice (diamond-style) is fine *)
  ignore (Catalog.define_class cat ~name:"R2" ~attributes:[ ("x", basic Mtype.Integer) ] ());
  let ok = Catalog.define_class cat ~name:"Good" ~superclasses:[ "L"; "R2" ] () in
  Alcotest.(check (list string)) "merged once" [ "x" ]
    (List.map fst (Catalog.attributes cat ok.Catalog.class_name))

let test_dynamic_schema_changes () =
  let cat = fresh () in
  ignore (Catalog.define_class cat ~name:"T" ~attributes:[ ("a", basic Mtype.Integer) ] ());
  let slot_oid = Catalog.insert_object cat ~class_name:"T" (Value.Tuple [ ("a", Value.Int 1) ]) in
  Catalog.add_attribute cat ~class_name:"T" "b" (basic Mtype.Float);
  (* existing instances read the new attribute as Null *)
  (match Catalog.get_object cat slot_oid with
  | Some v -> Alcotest.(check bool) "old object lacks b" true (Value.tuple_get v "b" = None)
  | None -> Alcotest.fail "object vanished");
  (* new inserts carry it *)
  let o2 = Catalog.insert_object cat ~class_name:"T" (Value.Tuple [ ("a", Value.Int 2); ("b", Value.Float 1.5) ]) in
  (match Catalog.get_object cat o2 with
  | Some v -> Alcotest.(check bool) "has b" true (Value.tuple_get v "b" = Some (Value.Float 1.5))
  | None -> Alcotest.fail "missing");
  Catalog.rename_attribute cat ~class_name:"T" ~old_name:"b" ~new_name:"c";
  Alcotest.(check bool) "renamed" true
    (Catalog.attribute_type cat ~class_name:"T" ~attr:"c" <> None);
  Catalog.drop_attribute cat ~class_name:"T" "c";
  Alcotest.(check bool) "dropped" true
    (Catalog.attribute_type cat ~class_name:"T" ~attr:"c" = None)

let test_methods_inherited_and_overridden () =
  let cat = vehicle_catalog () in
  (* lbweight declared on Vehicle, visible on JapaneseAuto *)
  Alcotest.(check bool) "inherited" true
    (Catalog.find_method cat ~class_name:"JapaneseAuto" ~method_name:"lbweight" <> None);
  Catalog.add_method cat ~class_name:"JapaneseAuto"
    { Catalog.method_name = "lbweight"; parameters = []; return_type = basic Mtype.Integer };
  let ms =
    List.filter
      (fun (m : Catalog.method_signature) -> m.Catalog.method_name = "lbweight")
      (Catalog.methods cat "JapaneseAuto")
  in
  Alcotest.(check int) "override shadows" 1 (List.length ms);
  Catalog.drop_method cat ~class_name:"JapaneseAuto" ~method_name:"lbweight";
  Alcotest.(check bool) "back to inherited" true
    (Catalog.find_method cat ~class_name:"JapaneseAuto" ~method_name:"lbweight" <> None)

(* ---------------- Hierarchy ---------------- *)

let test_hierarchy_queries () =
  let cat = vehicle_catalog () in
  Alcotest.(check (list string)) "descendants" [ "Automobile"; "JapaneseAuto" ]
    (Catalog.descendants cat "Vehicle");
  Alcotest.(check bool) "reflexive" true
    (Catalog.is_subclass_of cat ~sub:"Vehicle" ~super:"Vehicle");
  Alcotest.(check bool) "transitive" true
    (Catalog.is_subclass_of cat ~sub:"JapaneseAuto" ~super:"Vehicle");
  Alcotest.(check bool) "not converse" false
    (Catalog.is_subclass_of cat ~sub:"Vehicle" ~super:"JapaneseAuto")

let test_extent_every_and_minus () =
  let cat = vehicle_catalog () in
  let insert cls id =
    Catalog.insert_object cat ~class_name:cls
      (Value.Tuple [ ("id", Value.Int id); ("weight", Value.Int 1000) ])
  in
  ignore (insert "Vehicle" 0);
  ignore (insert "Automobile" 1);
  ignore (insert "JapaneseAuto" 2);
  Alcotest.(check int) "deep extent" 3 (List.length (Catalog.extent_oids cat "Vehicle"));
  Alcotest.(check int) "own only" 1
    (List.length (Catalog.extent_oids cat ~every:false "Vehicle"));
  Alcotest.(check int) "minus JapaneseAuto" 2
    (List.length (Catalog.extent_oids cat ~minus:[ "JapaneseAuto" ] "Vehicle"));
  Alcotest.(check int) "Automobile minus JapaneseAuto" 1
    (List.length (Catalog.extent_oids cat ~minus:[ "JapaneseAuto" ] "Automobile"))

(* ---------------- Objects ---------------- *)

let test_object_lifecycle_and_typecheck () =
  let cat = vehicle_catalog () in
  let oid =
    Catalog.insert_object cat ~class_name:"Employee"
      (Value.Tuple [ ("name", Value.Str "Asuman"); ("age", Value.Int 40) ])
  in
  (match Catalog.get_object cat oid with
  | Some v ->
      (* missing attributes normalized to Null in declared order *)
      Alcotest.(check bool) "ssno null" true (Value.tuple_get v "ssno" = Some Value.Null)
  | None -> Alcotest.fail "not stored");
  (match
     Catalog.insert_object cat ~class_name:"Employee"
       (Value.Tuple [ ("age", Value.Str "forty") ])
   with
  | exception Catalog.Schema_error _ -> ()
  | _ -> Alcotest.fail "type violation accepted");
  (match
     Catalog.insert_object cat ~class_name:"Employee" (Value.Tuple [ ("zzz", Value.Int 0) ])
   with
  | exception Catalog.Schema_error _ -> ()
  | _ -> Alcotest.fail "unknown attribute accepted");
  Alcotest.(check bool) "update" true
    (Catalog.update_object cat oid (Value.Tuple [ ("name", Value.Str "A."); ("age", Value.Int 41) ]));
  Alcotest.(check bool) "delete" true (Catalog.delete_object cat oid);
  Alcotest.(check bool) "gone" true (Catalog.get_object cat oid = None);
  Alcotest.(check bool) "double delete" false (Catalog.delete_object cat oid)

(* ---------------- Indexes ---------------- *)

let test_secondary_index_maintenance () =
  let cat = vehicle_catalog () in
  let insert age =
    Catalog.insert_object cat ~class_name:"Employee"
      (Value.Tuple [ ("name", Value.Str "e"); ("age", Value.Int age) ])
  in
  let o1 = insert 30 in
  let _ = insert 40 in
  let ix = Catalog.create_index cat ~class_name:"Employee" ~attr:"age" ~kind:`Btree () in
  (* backfilled *)
  (match ix with
  | Catalog.Btree_index bt ->
      Alcotest.(check int) "backfill" 1 (List.length (Mood_storage.Btree.search bt ~key:(Value.Int 30)))
  | Catalog.Hash_index _ -> Alcotest.fail "expected btree");
  (* maintained on insert *)
  let _ = insert 30 in
  (match Catalog.find_index cat ~class_name:"Employee" ~attr:"age" with
  | Some (Catalog.Btree_index bt) ->
      Alcotest.(check int) "after insert" 2
        (List.length (Mood_storage.Btree.search bt ~key:(Value.Int 30)))
  | _ -> Alcotest.fail "index lost");
  (* maintained on update and delete *)
  ignore (Catalog.update_object cat o1 (Value.Tuple [ ("name", Value.Str "e"); ("age", Value.Int 31) ]));
  (match Catalog.find_index cat ~class_name:"Employee" ~attr:"age" with
  | Some (Catalog.Btree_index bt) ->
      Alcotest.(check int) "after update" 1
        (List.length (Mood_storage.Btree.search bt ~key:(Value.Int 30)));
      Alcotest.(check int) "new key" 1
        (List.length (Mood_storage.Btree.search bt ~key:(Value.Int 31)))
  | _ -> Alcotest.fail "index lost");
  ignore (Catalog.delete_object cat o1);
  (match Catalog.find_index cat ~class_name:"Employee" ~attr:"age" with
  | Some (Catalog.Btree_index bt) ->
      Alcotest.(check int) "after delete" 0
        (List.length (Mood_storage.Btree.search bt ~key:(Value.Int 31)))
  | _ -> Alcotest.fail "index lost");
  (* errors *)
  (match Catalog.create_index cat ~class_name:"Employee" ~attr:"age" ~kind:`Btree () with
  | exception Catalog.Schema_error _ -> ()
  | _ -> Alcotest.fail "duplicate index accepted");
  match Catalog.create_index cat ~class_name:"Vehicle" ~attr:"drivetrain" ~kind:`Hash () with
  | exception Catalog.Schema_error _ -> ()
  | _ -> Alcotest.fail "index on reference attribute accepted"

let test_index_covers_subclasses () =
  let cat = vehicle_catalog () in
  ignore (Catalog.create_index cat ~class_name:"Vehicle" ~attr:"weight" ~kind:`Btree ());
  let oid =
    Catalog.insert_object cat ~class_name:"JapaneseAuto"
      (Value.Tuple [ ("weight", Value.Int 999) ])
  in
  match Catalog.find_index cat ~class_name:"JapaneseAuto" ~attr:"weight" with
  | Some (Catalog.Btree_index bt) ->
      let hits = Mood_storage.Btree.search bt ~key:(Value.Int 999) in
      Alcotest.(check bool) "subclass instance indexed" true (List.exists (Oid.equal oid) hits)
  | _ -> Alcotest.fail "superclass index not found from subclass"

let test_join_index_maintenance () =
  let cat = vehicle_catalog () in
  let company =
    Catalog.insert_object cat ~class_name:"Company" (Value.Tuple [ ("name", Value.Str "BMW") ])
  in
  let v =
    Catalog.insert_object cat ~class_name:"Vehicle"
      (Value.Tuple [ ("id", Value.Int 1); ("company", Value.Ref company) ])
  in
  let jx = Catalog.create_join_index cat ~class_name:"Vehicle" ~attr:"company" in
  Alcotest.(check int) "backfill pairs" 1 (Mood_storage.Join_index.Binary.pairs jx);
  let v2 =
    Catalog.insert_object cat ~class_name:"Automobile"
      (Value.Tuple [ ("id", Value.Int 2); ("company", Value.Ref company) ])
  in
  Alcotest.(check int) "maintained incl subclass" 2
    (List.length (Mood_storage.Join_index.Binary.backward jx ~d:company));
  ignore (Catalog.delete_object cat v);
  Alcotest.(check int) "after delete" 1
    (List.length (Mood_storage.Join_index.Binary.backward jx ~d:company));
  ignore v2

let test_path_index_and_resolution () =
  let cat = vehicle_catalog () in
  let engine =
    Catalog.insert_object cat ~class_name:"VehicleEngine"
      (Value.Tuple [ ("cylinders", Value.Int 8) ])
  in
  let dt =
    Catalog.insert_object cat ~class_name:"VehicleDriveTrain"
      (Value.Tuple [ ("engine", Value.Ref engine) ])
  in
  let v =
    Catalog.insert_object cat ~class_name:"Vehicle"
      (Value.Tuple [ ("id", Value.Int 1); ("drivetrain", Value.Ref dt) ])
  in
  (* resolve_path: the isA operator *)
  (match Catalog.resolve_path cat ~class_name:"Vehicle" ~path:[ "drivetrain"; "engine"; "cylinders" ] with
  | Some steps ->
      Alcotest.(check (list string)) "step classes"
        [ "Vehicle"; "VehicleDriveTrain"; "VehicleEngine" ]
        (List.map fst steps)
  | None -> Alcotest.fail "path should resolve");
  Alcotest.(check bool) "bad path" true
    (Catalog.resolve_path cat ~class_name:"Vehicle" ~path:[ "nope" ] = None);
  Alcotest.(check bool) "atomic midway" true
    (Catalog.resolve_path cat ~class_name:"Vehicle" ~path:[ "id"; "x" ] = None);
  let px =
    Catalog.create_path_index cat ~class_name:"Vehicle"
      ~path:[ "drivetrain"; "engine"; "cylinders" ]
  in
  let heads = Mood_storage.Join_index.Path.probe px ~terminal:(Value.Int 8) in
  Alcotest.(check bool) "head reachable" true (List.exists (Oid.equal v) heads);
  Alcotest.(check bool) "find" true
    (Catalog.find_path_index cat ~class_name:"Vehicle"
       ~path:[ "drivetrain"; "engine"; "cylinders" ]
    <> None)

let test_drop_class () =
  let cat = vehicle_catalog () in
  let expect_error f =
    match f () with
    | exception Catalog.Schema_error _ -> ()
    | _ -> Alcotest.fail "expected Schema_error"
  in
  (* guarded cases *)
  expect_error (fun () -> Catalog.drop_class cat "MoodsType");
  expect_error (fun () -> Catalog.drop_class cat "Vehicle") (* has subclasses *);
  expect_error (fun () -> Catalog.drop_class cat "Company") (* referenced by Vehicle *);
  let oid =
    Catalog.insert_object cat ~class_name:"JapaneseAuto" (Value.Tuple [ ("id", Value.Int 1) ])
  in
  expect_error (fun () -> Catalog.drop_class cat "JapaneseAuto") (* non-empty *);
  ignore (Catalog.delete_object cat oid);
  (* a clean leaf drops; catalog rows disappear; hierarchy shrinks *)
  Catalog.drop_class cat "JapaneseAuto";
  Alcotest.(check bool) "gone" true (Catalog.find_class cat "JapaneseAuto" = None);
  Alcotest.(check (list string)) "unhooked" [] (Catalog.subclasses cat "Automobile");
  Alcotest.(check bool) "rows purged" false
    (Helpers.contains (Catalog.render_system_catalog cat) "JapaneseAuto");
  (* the name can be reused *)
  ignore (Catalog.define_class cat ~name:"JapaneseAuto" ~superclasses:[ "Automobile" ] ())

(* ---------------- Named objects ---------------- *)

let test_named_objects () =
  let cat = vehicle_catalog () in
  let e =
    Catalog.insert_object cat ~class_name:"Employee"
      (Value.Tuple [ ("name", Value.Str "Asuman") ])
  in
  Catalog.name_object cat ~name:"director" e;
  Alcotest.(check bool) "lookup" true (Catalog.named_object cat "director" = Some e);
  Alcotest.(check bool) "missing" true (Catalog.named_object cat "nobody" = None);
  Alcotest.(check int) "listing" 1 (List.length (Catalog.named_objects cat));
  (* duplicates and dangling targets rejected *)
  (match Catalog.name_object cat ~name:"director" e with
  | exception Catalog.Schema_error _ -> ()
  | _ -> Alcotest.fail "duplicate name accepted");
  (match
     Catalog.name_object cat ~name:"ghost" (Oid.make ~class_id:999 ~slot:0)
   with
  | exception Catalog.Schema_error _ -> ()
  | _ -> Alcotest.fail "dangling name accepted");
  Alcotest.(check bool) "drop" true (Catalog.drop_name cat "director");
  Alcotest.(check bool) "dropped" true (Catalog.named_object cat "director" = None);
  Alcotest.(check bool) "double drop" false (Catalog.drop_name cat "director")

(* ---------------- System catalog (Figure 2.2) ---------------- *)

let test_system_catalog_rows () =
  let cat = vehicle_catalog () in
  let dump = Catalog.render_system_catalog cat in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (Helpers.contains dump needle))
    [ "MoodsType"; "MoodsAttribute"; "MoodsFunction"; "Vehicle"; "lbweight"; "drivetrain" ]

(* ---------------- Statistics ---------------- *)

let test_stats_from_data () =
  let cat = vehicle_catalog () in
  let g = Mood_workload.Vehicle.generate ~catalog:cat ~scale:0.01 () in
  let stats = Catalog_stats.compute cat in
  Alcotest.(check int) "|Vehicle| deep" (Array.length g.Mood_workload.Vehicle.vehicles)
    (Stats.cardinality stats "Vehicle");
  (match Stats.attr_stats stats ~cls:"VehicleEngine" ~attr:"cylinders" with
  | Some a ->
      Alcotest.(check bool) "dist <= 16" true (a.Stats.dist <= 16);
      Alcotest.(check bool) "min >= 2" true (a.Stats.min_value >= Some 2.)
  | None -> Alcotest.fail "no cylinder stats");
  (match Stats.ref_stats stats ~cls:"Vehicle" ~attr:"drivetrain" with
  | Some r ->
      Alcotest.(check string) "target" "VehicleDriveTrain" r.Stats.target;
      Alcotest.(check bool) "fan = 1" true (Float.abs (r.Stats.fan -. 1.) < 1e-9);
      Alcotest.(check int) "totref = |DT|" (Array.length g.Mood_workload.Vehicle.drivetrains)
        r.Stats.totref
  | None -> Alcotest.fail "no drivetrain ref stats");
  (* derived parameters *)
  let totlinks = Stats.totlinks stats ~cls:"Vehicle" ~attr:"drivetrain" in
  Alcotest.(check bool) "totlinks = fan*|C|" true
    (Float.abs (totlinks -. float_of_int (Array.length g.Mood_workload.Vehicle.vehicles)) < 1e-6);
  let hit = Stats.hitprb stats ~cls:"Vehicle" ~attr:"drivetrain" in
  Alcotest.(check bool) "hitprb = 1" true (Float.abs (hit -. 1.) < 1e-9)

let test_stats_index_registration () =
  let cat = vehicle_catalog () in
  ignore (Mood_workload.Vehicle.generate ~catalog:cat ~scale:0.005 ());
  ignore (Catalog.create_index cat ~class_name:"Company" ~attr:"name" ~kind:`Btree ());
  ignore (Catalog.create_join_index cat ~class_name:"Vehicle" ~attr:"company");
  let stats = Catalog_stats.compute cat in
  Alcotest.(check bool) "btree stats registered" true
    (Stats.index_stats stats ~cls:"Company" ~attr:"name" <> None);
  Alcotest.(check bool) "join index stats registered" true
    (Stats.index_stats stats ~cls:"Vehicle" ~attr:"#join:company" <> None)

(* ---------------- schema epoch ---------------- *)

let test_epoch_bumps_on_ddl () =
  let cat = fresh () in
  let e0 = Catalog.epoch cat in
  ignore
    (Catalog.define_class cat ~name:"Thing"
       ~attributes:[ ("n", basic Mtype.Integer) ]
       ());
  let e1 = Catalog.epoch cat in
  Alcotest.(check bool) "define_class bumps" true (e1 > e0);
  Catalog.add_attribute cat ~class_name:"Thing" "m" (basic Mtype.Integer);
  let e2 = Catalog.epoch cat in
  Alcotest.(check bool) "add_attribute bumps" true (e2 > e1);
  ignore (Catalog.create_index cat ~class_name:"Thing" ~attr:"n" ~kind:`Btree ());
  let e3 = Catalog.epoch cat in
  Alcotest.(check bool) "create_index bumps" true (e3 > e2);
  Alcotest.(check bool) "drop_index hits" true
    (Catalog.drop_index cat ~class_name:"Thing" ~attr:"n");
  let e4 = Catalog.epoch cat in
  Alcotest.(check bool) "drop_index bumps" true (e4 > e3);
  (* dropping a missing index is a no-op: reports false, epoch stays *)
  Alcotest.(check bool) "drop_index misses" false
    (Catalog.drop_index cat ~class_name:"Thing" ~attr:"n");
  Alcotest.(check int) "no-op keeps epoch" e4 (Catalog.epoch cat)

let test_drop_index_removes_access_path () =
  let cat = fresh () in
  ignore
    (Catalog.define_class cat ~name:"Thing"
       ~attributes:[ ("n", basic Mtype.Integer) ]
       ());
  ignore (Catalog.create_index cat ~class_name:"Thing" ~attr:"n" ~kind:`Btree ());
  Alcotest.(check bool) "index present" true
    (Catalog.find_index cat ~class_name:"Thing" ~attr:"n" <> None);
  Alcotest.(check bool) "dropped" true
    (Catalog.drop_index cat ~class_name:"Thing" ~attr:"n");
  Alcotest.(check bool) "index gone" true
    (Catalog.find_index cat ~class_name:"Thing" ~attr:"n" = None)

let test_normalize_semantics () =
  let cat = fresh () in
  ignore
    (Catalog.define_class cat ~name:"P"
       ~attributes:[ ("a", basic Mtype.Integer); ("b", basic Mtype.Integer) ]
       ());
  (* declared order restored, missing attributes filled with Null *)
  (match Catalog.normalize cat "P" (Value.Tuple [ ("b", Value.Int 2) ]) with
  | Value.Tuple [ ("a", Value.Null); ("b", Value.Int 2) ] -> ()
  | v -> Alcotest.failf "unexpected %s" (Value.to_string v));
  (* duplicate field: the first binding wins, as with assoc lookup *)
  (match
     Catalog.normalize cat "P"
       (Value.Tuple [ ("a", Value.Int 1); ("b", Value.Int 2); ("a", Value.Int 9) ])
   with
  | Value.Tuple [ ("a", Value.Int 1); ("b", Value.Int 2) ] -> ()
  | v -> Alcotest.failf "unexpected %s" (Value.to_string v));
  (* unknown attributes and type mismatches rejected, in these words;
     an unknown attribute is reported before any mismatch *)
  let error value =
    match Catalog.normalize cat "P" value with
    | exception Catalog.Schema_error m -> m
    | v -> Alcotest.failf "accepted %s" (Value.to_string v)
  in
  Alcotest.(check string) "unknown attribute" "class P has no attribute zz"
    (error (Value.Tuple [ ("zz", Value.Int 0) ]));
  Alcotest.(check string) "unknown before mismatch" "class P has no attribute zz"
    (error (Value.Tuple [ ("a", Value.Str "x"); ("zz", Value.Int 0) ]));
  Alcotest.(check string) "type mismatch"
    "attribute P.b: value \"x\" does not conform to Integer"
    (error (Value.Tuple [ ("a", Value.Int 1); ("b", Value.Str "x") ]))

let suites =
  [ ( "catalog.schema",
      [ Alcotest.test_case "define/lookup" `Quick test_define_and_lookup;
        Alcotest.test_case "errors" `Quick test_schema_errors;
        Alcotest.test_case "inheritance merge" `Quick test_inheritance_attribute_merge;
        Alcotest.test_case "multiple inheritance" `Quick test_multiple_inheritance_conflict;
        Alcotest.test_case "dynamic changes" `Quick test_dynamic_schema_changes;
        Alcotest.test_case "methods" `Quick test_methods_inherited_and_overridden
      ] );
    ( "catalog.hierarchy",
      [ Alcotest.test_case "queries" `Quick test_hierarchy_queries;
        Alcotest.test_case "every/minus" `Quick test_extent_every_and_minus
      ] );
    ( "catalog.objects",
      [ Alcotest.test_case "lifecycle" `Quick test_object_lifecycle_and_typecheck ] );
    ( "catalog.indexes",
      [ Alcotest.test_case "secondary maintenance" `Quick test_secondary_index_maintenance;
        Alcotest.test_case "covers subclasses" `Quick test_index_covers_subclasses;
        Alcotest.test_case "join index" `Quick test_join_index_maintenance;
        Alcotest.test_case "path index" `Quick test_path_index_and_resolution
      ] );
    ( "catalog.drop",
      [ Alcotest.test_case "drop class" `Quick test_drop_class;
        Alcotest.test_case "drop index" `Quick test_drop_index_removes_access_path ] );
    ( "catalog.epoch",
      [ Alcotest.test_case "DDL bumps" `Quick test_epoch_bumps_on_ddl;
        Alcotest.test_case "normalize semantics" `Quick test_normalize_semantics ] );
    ( "catalog.named",
      [ Alcotest.test_case "name/lookup/drop" `Quick test_named_objects ] );
    ( "catalog.system",
      [ Alcotest.test_case "figure 2.2 rows" `Quick test_system_catalog_rows ] );
    ( "catalog.stats",
      [ Alcotest.test_case "derived from data" `Quick test_stats_from_data;
        Alcotest.test_case "index registration" `Quick test_stats_index_registration
      ] )
  ]
