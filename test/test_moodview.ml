(* Tests for the text MoodView (Section 9): DAG layout, schema and
   object browsing, query manager, C++ import/export, spatial tool. *)

module Db = Mood.Db
module Moodview = Mood_moodview.Moodview
module Dag = Mood_moodview.Dag_layout
module Object_browser = Mood_moodview.Object_browser
module Schema_tools = Mood_moodview.Schema_tools
module Query_manager = Mood_moodview.Query_manager
module Catalog = Mood_catalog.Catalog
module Rtree = Mood_storage.Rtree
module Value = Mood_model.Value
module Mtype = Mood_model.Mtype

let vehicle_view () =
  let db = Db.create () in
  Mood_workload.Vehicle.define_schema (Db.catalog db);
  (db, Moodview.create db)

(* ---------------- DAG layout ---------------- *)

let test_dag_layers () =
  let g =
    { Dag.nodes = [ "Vehicle"; "Automobile"; "JapaneseAuto"; "Company" ];
      edges = [ ("Vehicle", "Automobile"); ("Automobile", "JapaneseAuto") ]
    }
  in
  let l = Dag.layout g in
  Alcotest.(check int) "three layers" 3 (List.length l.Dag.layers);
  Alcotest.(check bool) "roots on top" true
    (List.mem "Vehicle" (List.hd l.Dag.layers) && List.mem "Company" (List.hd l.Dag.layers));
  Alcotest.(check int) "tree has no crossings" 0 l.Dag.crossings

let test_dag_barycenter_reduces_crossings () =
  (* two parents, two children, adversarial initial order: barycenter
     must find the 0-crossing arrangement *)
  let g =
    { Dag.nodes = [ "A"; "B"; "x"; "y" ];
      edges = [ ("A", "x"); ("B", "y") ]
    }
  in
  let bad_layers = [ [ "A"; "B" ]; [ "y"; "x" ] ] in
  Alcotest.(check int) "bad order crosses" 1 (Dag.crossings_of g bad_layers);
  let l = Dag.layout g in
  Alcotest.(check int) "optimized" 0 l.Dag.crossings

let test_dag_rejects_cycles_and_unknowns () =
  (match Dag.layout { Dag.nodes = [ "A" ]; edges = [ ("A", "B") ] } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown node accepted");
  match Dag.layout { Dag.nodes = [ "A"; "B" ]; edges = [ ("A", "B"); ("B", "A") ] } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cycle accepted"

let test_dag_multiple_inheritance () =
  let g =
    { Dag.nodes = [ "L"; "R"; "D" ]; edges = [ ("L", "D"); ("R", "D") ] }
  in
  let l = Dag.layout g in
  Alcotest.(check int) "diamond-bottom below both parents" 2 (List.length l.Dag.layers)

(* ---------------- Schema browser / designer ---------------- *)

let test_schema_browser_renders_hierarchy () =
  let _, view = vehicle_view () in
  let text = Moodview.schema_browser view in
  List.iter
    (fun needle -> Alcotest.(check bool) (needle ^ " shown") true (Helpers.contains text needle))
    [ "[Vehicle]"; "[JapaneseAuto]"; "Vehicle |> Automobile" ];
  List.iter
    (fun cls -> Alcotest.(check bool) (cls ^ " hidden") false (Helpers.contains text cls))
    Catalog.system_class_names

let test_class_presentation () =
  let _, view = vehicle_view () in
  let text = Moodview.class_designer view "Vehicle" in
  List.iter
    (fun needle -> Alcotest.(check bool) (needle ^ " shown") true (Helpers.contains text needle))
    [ "Type Name  Vehicle"; "lbweight"; "drivetrain"; "Subclasses:   Automobile" ]

(* ---------------- Object browser ---------------- *)

let populated_view () =
  let db, view = vehicle_view () in
  let cat = Db.catalog db in
  let engine =
    Catalog.insert_object cat ~class_name:"VehicleEngine"
      (Value.Tuple [ ("size", Value.Int 2000); ("cylinders", Value.Int 6) ])
  in
  let dt =
    Catalog.insert_object cat ~class_name:"VehicleDriveTrain"
      (Value.Tuple [ ("engine", Value.Ref engine); ("transmission", Value.Str "MANUAL") ])
  in
  let v =
    Catalog.insert_object cat ~class_name:"Vehicle"
      (Value.Tuple [ ("id", Value.Int 7); ("weight", Value.Int 1200); ("drivetrain", Value.Ref dt) ])
  in
  (db, view, v, dt, engine)

let test_presentation_triples () =
  let db, _, v, _, _ = populated_view () in
  let fields = Object_browser.presentation db v in
  Alcotest.(check (list string)) "names from catalog"
    [ "id"; "weight"; "drivetrain"; "company" ]
    (List.map (fun f -> f.Object_browser.f_name) fields);
  let id_field = List.hd fields in
  Alcotest.(check string) "type" "Integer" id_field.Object_browser.f_type;
  Alcotest.(check string) "value" "7" id_field.Object_browser.f_value

let test_object_graph_rendering () =
  let db, view, v, _, _ = populated_view () in
  let text = Moodview.object_browser view v in
  List.iter
    (fun needle -> Alcotest.(check bool) (needle ^ " shown") true (Helpers.contains text needle))
    [ "Vehicle"; "drivetrain ->"; "VehicleDriveTrain"; "VehicleEngine"; "cylinders : Integer = 6" ];
  (* depth limit cuts recursion *)
  let shallow = Object_browser.render_object ~max_depth:0 db v in
  Alcotest.(check bool) "no engine at depth 0" false (Helpers.contains shallow "VehicleEngine")

let test_dynamic_typechecked_update () =
  let db, _, v, _, engine = populated_view () in
  (match Object_browser.update_attribute db v ~attr:"weight" (Value.Int 1500) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (match Object_browser.update_attribute db v ~attr:"weight" (Value.Str "heavy") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "type violation accepted");
  (* reference must point at the declared class *)
  match Object_browser.update_attribute db v ~attr:"drivetrain" (Value.Ref engine) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "wrong-class reference accepted"

let test_copy_attribute_and_method_activation () =
  let db, _, v, _, _ = populated_view () in
  let cat = Db.catalog db in
  let v2 =
    Catalog.insert_object cat ~class_name:"Vehicle"
      (Value.Tuple [ ("id", Value.Int 8); ("weight", Value.Int 100) ])
  in
  (match Object_browser.copy_attribute db ~from:v ~to_:v2 ~attr:"weight" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (match Catalog.get_object cat v2 with
  | Some value ->
      Alcotest.(check bool) "pasted" true (Value.tuple_get value "weight" = Some (Value.Int 1200))
  | None -> Alcotest.fail "v2 missing");
  (match Db.exec db "DEFINE METHOD Vehicle::lbweight () Integer { return weight * 2; }" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  match Object_browser.activate_method db v ~method_name:"lbweight" ~args:[] with
  | Ok (Value.Int 2400) -> ()
  | Ok v -> Alcotest.failf "unexpected %s" (Value.to_string v)
  | Error m -> Alcotest.fail m

let test_cursor_back_and_forth () =
  let db, _, _, _, _ = populated_view () in
  ignore
    (Catalog.insert_object (Db.catalog db) ~class_name:"Vehicle"
       (Value.Tuple [ ("id", Value.Int 99); ("weight", Value.Int 1) ]));
  match Object_browser.open_cursor db "SELECT v FROM Vehicle v" with
  | Error m -> Alcotest.fail m
  | Ok cursor ->
      (match Object_browser.cursor_next cursor with
      | Some fields -> Alcotest.(check bool) "has fields" true (fields <> [])
      | None -> Alcotest.fail "no first row");
      Alcotest.(check bool) "second row" true (Object_browser.cursor_next cursor <> None);
      Alcotest.(check bool) "end" true (Object_browser.cursor_next cursor = None);
      Alcotest.(check bool) "sequencing back" true (Object_browser.cursor_prev cursor <> None);
      Alcotest.(check bool) "before first" true (Object_browser.cursor_prev cursor = None)

(* ---------------- Query manager ---------------- *)

let test_query_manager_history () =
  let db, view = vehicle_view () in
  ignore db;
  let qm = Moodview.query_manager view in
  let out = Query_manager.run qm "SELECT v FROM Vehicle v" in
  Alcotest.(check bool) "renders count" true (Helpers.contains out "(0 rows)");
  let out2 = Query_manager.run qm "SELEKT" in
  Alcotest.(check bool) "error rendered" true (Helpers.contains out2 "error:");
  Alcotest.(check int) "history" 2 (List.length (Query_manager.history qm));
  Alcotest.(check (option string)) "recall most recent" (Some "SELEKT") (Query_manager.recall qm 0);
  match Query_manager.rerun qm 1 with
  | Some out3 -> Alcotest.(check bool) "rerun works" true (Helpers.contains out3 "(0 rows)")
  | None -> Alcotest.fail "rerun lost history"

(* ---------------- C++ import / export (the cfront path) ---------------- *)

let cpp_source =
  "// vehicles\n\
   class Engine {\n\
   public:\n\
  \  int cylinders;\n\
   };\n\
   class Car : public Engine {\n\
   public:\n\
  \  char name[32];\n\
  \  Engine* spare;\n\
  \  int horsepower();\n\
  \  int scale(int factor);\n\
   };\n"

let test_cpp_import () =
  let db = Db.create () in
  let created = Schema_tools.import_cpp db cpp_source in
  Alcotest.(check (list string)) "classes" [ "Engine"; "Car" ] created;
  let cat = Db.catalog db in
  Alcotest.(check bool) "inheritance" true
    (Catalog.is_subclass_of cat ~sub:"Car" ~super:"Engine");
  Alcotest.(check bool) "char[32] -> String(32)" true
    (Catalog.attribute_type cat ~class_name:"Car" ~attr:"name"
    = Some (Mtype.Basic (Mtype.String 32)));
  Alcotest.(check bool) "pointer -> reference" true
    (Catalog.attribute_type cat ~class_name:"Car" ~attr:"spare" = Some (Mtype.Reference "Engine"));
  Alcotest.(check bool) "method extracted" true
    (Catalog.find_method cat ~class_name:"Car" ~method_name:"horsepower" <> None);
  match Catalog.find_method cat ~class_name:"Car" ~method_name:"scale" with
  | Some m -> Alcotest.(check int) "param extracted" 1 (List.length m.Catalog.parameters)
  | None -> Alcotest.fail "scale lost"

let test_cpp_export_roundtrip () =
  let db = Db.create () in
  ignore (Schema_tools.import_cpp db cpp_source);
  let header = Schema_tools.export_cpp db "Car" in
  List.iter
    (fun needle -> Alcotest.(check bool) (needle ^ " exported") true (Helpers.contains header needle))
    [ "class Car : public Engine"; "char name[32];"; "Engine* spare;"; "int horsepower();" ];
  (* exported header re-imports into a fresh catalog *)
  let db2 = Db.create () in
  ignore (Schema_tools.import_cpp db2 (Schema_tools.export_cpp db "Engine"));
  ignore (Schema_tools.import_cpp db2 header);
  Alcotest.(check bool) "round trip" true (Catalog.find_class (Db.catalog db2) "Car" <> None)

let test_cpp_parse_errors () =
  match Schema_tools.parse_cpp "struct X {};" with
  | exception Schema_tools.Cpp_parse_error _ -> ()
  | _ -> Alcotest.fail "non-class declaration accepted"

(* ---------------- Text editor ---------------- *)

module Text_editor = Mood_moodview.Text_editor

let test_editor_buffer_operations () =
  let e = Text_editor.create ~contents:"alpha\nbeta\ngamma\n" () in
  Alcotest.(check int) "lines" 3 (Text_editor.line_count e);
  Alcotest.(check (option string)) "line 1" (Some "beta") (Text_editor.line e 1);
  Alcotest.(check (option string)) "out of range" None (Text_editor.line e 9);
  Text_editor.insert_line e ~at:1 "inserted";
  Alcotest.(check (list string)) "insert" [ "alpha"; "inserted"; "beta"; "gamma" ]
    (Text_editor.lines e);
  Alcotest.(check bool) "replace" true (Text_editor.replace_line e 0 "ALPHA");
  Alcotest.(check bool) "delete" true (Text_editor.delete_line e 3);
  Alcotest.(check string) "contents" "ALPHA\ninserted\nbeta\n" (Text_editor.contents e);
  Text_editor.append_line e "tail";
  Alcotest.(check int) "appended" 4 (Text_editor.line_count e)

let test_editor_undo () =
  let e = Text_editor.create ~contents:"one\ntwo\n" () in
  ignore (Text_editor.replace_line e 0 "uno");
  ignore (Text_editor.delete_line e 1);
  Alcotest.(check (list string)) "mutated" [ "uno" ] (Text_editor.lines e);
  Alcotest.(check bool) "undo delete" true (Text_editor.undo e);
  Alcotest.(check (list string)) "restored" [ "uno"; "two" ] (Text_editor.lines e);
  Alcotest.(check bool) "undo replace" true (Text_editor.undo e);
  Alcotest.(check (list string)) "original" [ "one"; "two" ] (Text_editor.lines e);
  Alcotest.(check bool) "nothing left" false (Text_editor.undo e)

let test_editor_search_replace () =
  let e = Text_editor.create ~contents:"return weight;\nint weight = 0;\nreturn 1;\n" () in
  Alcotest.(check (list int)) "find" [ 0; 1 ] (Text_editor.find e "weight");
  Alcotest.(check int) "replace all" 2
    (Text_editor.replace_all e ~search:"weight" ~replace:"mass");
  Alcotest.(check (list int)) "gone" [] (Text_editor.find e "weight");
  Alcotest.(check int) "no-op replace" 0 (Text_editor.replace_all e ~search:"zzz" ~replace:"y");
  Alcotest.(check bool) "undo replace" true (Text_editor.undo e);
  Alcotest.(check (list int)) "back" [ 0; 1 ] (Text_editor.find e "weight");
  Alcotest.check_raises "empty search" (Invalid_argument "Text_editor.replace_all: empty search")
    (fun () -> ignore (Text_editor.replace_all e ~search:"" ~replace:"x"))

let test_editor_render () =
  let e = Text_editor.create ~contents:"a\nb\n" () in
  let panel = Text_editor.render ~cursor:1 e in
  Alcotest.(check bool) "cursor marker" true (Helpers.contains panel ">  2 | b");
  Alcotest.(check bool) "status" true (Helpers.contains panel "2 line(s)")

let test_method_editing_workflow () =
  let db, view = vehicle_view () in
  (match Db.exec db "DEFINE METHOD Vehicle::lbweight () Integer { return weight * 2; }" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let v =
    Catalog.insert_object (Db.catalog db) ~class_name:"Vehicle"
      (Value.Tuple [ ("weight", Value.Int 100) ])
  in
  match Moodview.method_editor view ~class_name:"Vehicle" ~method_name:"lbweight" with
  | Error m -> Alcotest.fail m
  | Ok editor ->
      Alcotest.(check bool) "body loaded" true
        (Text_editor.find editor "weight * 2" <> []);
      ignore (Text_editor.replace_all editor ~search:"* 2" ~replace:"* 3");
      (match Moodview.save_method view ~class_name:"Vehicle" ~method_name:"lbweight" editor with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      (* the running kernel sees the edited body *)
      (match Mood_moodview.Object_browser.activate_method db v ~method_name:"lbweight" ~args:[] with
      | Ok (Value.Int 300) -> ()
      | Ok v -> Alcotest.failf "got %s" (Value.to_string v)
      | Error m -> Alcotest.fail m);
      (* editing an unknown method fails cleanly *)
      match Moodview.method_editor view ~class_name:"Vehicle" ~method_name:"nope" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "missing method opened"

(* ---------------- Admin + spatial tool ---------------- *)

let test_admin_panel () =
  let db, view = vehicle_view () in
  ignore (Mood_workload.Vehicle.generate ~catalog:(Db.catalog db) ~scale:0.005 ());
  let text = Moodview.admin_panel view in
  List.iter
    (fun needle -> Alcotest.(check bool) (needle ^ " shown") true (Helpers.contains text needle))
    [ "classes:"; "Vehicle"; "disk:"; "buffer:"; "log records:" ]

let test_spatial_tool () =
  let _, view = vehicle_view () in
  let r x0 y0 x1 y1 = Rtree.rect ~x0 ~y0 ~x1 ~y1 in
  let text =
    Moodview.spatial_tool view
      [ (r 0. 0. 1. 1., "ankara"); (r 10. 10. 11. 11., "tokyo"); (r 0.5 0.5 2. 2., "istanbul") ]
      ~window:(r 0. 0. 3. 3.)
  in
  Alcotest.(check bool) "hits listed" true
    (Helpers.contains text "2 hit(s)" && Helpers.contains text "ankara" && Helpers.contains text "istanbul");
  Alcotest.(check bool) "tokyo excluded from hits" true
    (not (Helpers.contains text "2 hit(s): ankara, istanbul, tokyo"))

let test_initial_window () =
  let _, view = vehicle_view () in
  Alcotest.(check bool) "tools listed" true
    (Helpers.contains (Moodview.initial_window view) "[Query Manager]")

let suites =
  [ ( "moodview.dag",
      [ Alcotest.test_case "layers" `Quick test_dag_layers;
        Alcotest.test_case "barycenter" `Quick test_dag_barycenter_reduces_crossings;
        Alcotest.test_case "rejects bad graphs" `Quick test_dag_rejects_cycles_and_unknowns;
        Alcotest.test_case "multiple inheritance" `Quick test_dag_multiple_inheritance
      ] );
    ( "moodview.schema",
      [ Alcotest.test_case "browser" `Quick test_schema_browser_renders_hierarchy;
        Alcotest.test_case "class presentation" `Quick test_class_presentation
      ] );
    ( "moodview.objects",
      [ Alcotest.test_case "presentation triples" `Quick test_presentation_triples;
        Alcotest.test_case "object graph" `Quick test_object_graph_rendering;
        Alcotest.test_case "type-checked updates" `Quick test_dynamic_typechecked_update;
        Alcotest.test_case "copy/paste + methods" `Quick test_copy_attribute_and_method_activation;
        Alcotest.test_case "cursor" `Quick test_cursor_back_and_forth
      ] );
    ( "moodview.query_manager",
      [ Alcotest.test_case "history" `Quick test_query_manager_history ] );
    ( "moodview.cpp",
      [ Alcotest.test_case "import" `Quick test_cpp_import;
        Alcotest.test_case "export roundtrip" `Quick test_cpp_export_roundtrip;
        Alcotest.test_case "parse errors" `Quick test_cpp_parse_errors
      ] );
    ( "moodview.editor",
      [ Alcotest.test_case "buffer operations" `Quick test_editor_buffer_operations;
        Alcotest.test_case "undo" `Quick test_editor_undo;
        Alcotest.test_case "search/replace" `Quick test_editor_search_replace;
        Alcotest.test_case "render" `Quick test_editor_render;
        Alcotest.test_case "method editing workflow" `Quick test_method_editing_workflow
      ] );
    ( "moodview.tools",
      [ Alcotest.test_case "admin panel" `Quick test_admin_panel;
        Alcotest.test_case "spatial tool" `Quick test_spatial_tool;
        Alcotest.test_case "initial window" `Quick test_initial_window
      ] )
  ]
