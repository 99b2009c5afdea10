(* Tests for the Function Manager and MoodC (Section 2). *)

module Fm = Mood_funcmgr.Function_manager
module Moodc = Mood_funcmgr.Moodc
module Catalog = Mood_catalog.Catalog
module Store = Mood_storage.Store
module Lock = Mood_storage.Lock_manager
module Mtype = Mood_model.Mtype
module Value = Mood_model.Value

let basic b = Mtype.Basic b

let setup () =
  let store = Store.create ~buffer_capacity:64 () in
  let cat = Catalog.create ~store in
  Mood_workload.Vehicle.define_schema cat;
  let fm = Fm.create ~catalog:cat in
  (store, cat, fm)

let vehicle_sig name =
  { Catalog.method_name = name; parameters = []; return_type = basic Mtype.Integer }

let insert_vehicle cat ?(cls = "Vehicle") weight =
  Catalog.insert_object cat ~class_name:cls
    (Value.Tuple [ ("id", Value.Int 1); ("weight", Value.Int weight) ])

(* ---------------- MoodC ---------------- *)

let test_preprocess () =
  Alcotest.(check string) "types substituted"
    "Integer x = 1; Float f = 2.0; Boolean ok = true;"
    (Moodc.preprocess "int x = 1; double f = 2.0; bool ok = true;");
  (* word boundaries respected *)
  Alcotest.(check string) "no mid-word replacement" "printer interior"
    (Moodc.preprocess "printer interior")

let run_body ?(self = Value.Tuple [ ("weight", Value.Int 100) ]) ?(args = []) ?(params = []) body =
  let ast = Moodc.compile ~params (Moodc.preprocess body) in
  Moodc.run ast { Moodc.deref = (fun _ -> None); self; args }

let test_moodc_paper_body () =
  (* int Vehicle::lbweight() { return weight * 2.2075; } *)
  match run_body "{ return weight * 2.2075; }" with
  | Value.Float f -> Alcotest.(check bool) "220.75" true (Float.abs (f -. 220.75) < 1e-9)
  | v -> Alcotest.failf "unexpected %s" (Value.to_string v)

let test_moodc_control_flow () =
  let body =
    "{ int x = 0; if (weight > 50) { x = weight - 50; } else { x = 0; } return x + 1; }"
  in
  Alcotest.(check bool) "if-then" true (run_body body = Value.Int 51);
  Alcotest.(check bool) "else branch" true
    (run_body ~self:(Value.Tuple [ ("weight", Value.Int 10) ]) body = Value.Int 1)

let test_moodc_params_shadow () =
  let body = "{ return weight + 1; }" in
  (* parameter named weight shadows the attribute *)
  Alcotest.(check bool) "param shadows attr" true
    (run_body ~params:[ "weight" ] ~args:[ Value.Int 7 ] body = Value.Int 8)

let test_moodc_member_access_derefs () =
  let target = Mood_model.Oid.make ~class_id:5 ~slot:0 in
  let store = Hashtbl.create 4 in
  Hashtbl.replace store target (Value.Tuple [ ("cylinders", Value.Int 8) ]);
  let ast = Moodc.compile ~params:[] "{ return engine.cylinders * 2; }" in
  let result =
    Moodc.run ast
      { Moodc.deref = (fun o -> Hashtbl.find_opt store o);
        self = Value.Tuple [ ("engine", Value.Ref target) ];
        args = []
      }
  in
  Alcotest.(check bool) "deref + member" true (result = Value.Int 16)

let test_moodc_booleans_and_logic () =
  Alcotest.(check bool) "logic" true
    (run_body "{ return weight > 10 && weight < 1000 || false; }" = Value.Bool true);
  Alcotest.(check bool) "not" true (run_body "{ return !(weight == 100); }" = Value.Bool false)

let test_moodc_parse_errors () =
  let expect_parse_error body =
    match Moodc.compile ~params:[] body with
    | exception Moodc.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted %S" body
  in
  expect_parse_error "{ return ; }";
  expect_parse_error "{ if weight return 1; }";
  expect_parse_error "{ return 1 }";
  expect_parse_error "{ 5 = x; }"

let test_moodc_while_loop () =
  (* factorial via a while loop *)
  let body = "{ int acc = 1; int i = 1; while (i <= weight) { acc = acc * i; i = i + 1; } return acc; }" in
  Alcotest.(check bool) "5! = 120" true
    (run_body ~self:(Value.Tuple [ ("weight", Value.Int 5) ]) body = Value.Int 120);
  (* a runaway loop hits the iteration budget instead of hanging *)
  match run_body "{ while (true) { int x = 1; } return 0; }" with
  | exception Mood_model.Operand.Type_error _ -> ()
  | v -> Alcotest.failf "runaway loop returned %s" (Value.to_string v)

let test_moodc_string_concat () =
  let body = "{ return \"id-\" + name; }" in
  Alcotest.(check bool) "concat" true
    (run_body ~self:(Value.Tuple [ ("name", Value.Str "x7") ]) body = Value.Str "id-x7")

let test_moodc_no_return_yields_null () =
  Alcotest.(check bool) "null" true (run_body "{ int x = 1; }" = Value.Null)

(* Random integer arithmetic: a MoodC body computing the expression must
   agree with direct OCaml evaluation. Division/modulo excluded to
   avoid by-zero cases; operands kept small so products fit. *)
type arith_tree = Leaf of int | Node of char * arith_tree * arith_tree

let arith_tree_gen =
  QCheck.Gen.(
    let rec gen n =
      if n <= 1 then map (fun i -> Leaf (i - 50)) (int_bound 100)
      else
        frequency
          [ (2, map (fun i -> Leaf (i - 50)) (int_bound 100));
            (3,
             map3
               (fun op l r -> Node ([| '+'; '-'; '*' |].(op), l, r))
               (int_bound 2) (gen (n / 2)) (gen (n / 2)))
          ]
    in
    (* at most ~8 leaves: |values| <= 50, so even a pure product stays
       far inside 63-bit native ints and Int64 alike *)
    int_range 1 8 >>= gen)

let rec arith_to_moodc = function
  | Leaf i -> if i < 0 then Printf.sprintf "(0 - %d)" (-i) else string_of_int i
  | Node (op, l, r) ->
      Printf.sprintf "(%s %c %s)" (arith_to_moodc l) op (arith_to_moodc r)

let rec arith_eval = function
  | Leaf i -> i
  | Node ('+', l, r) -> arith_eval l + arith_eval r
  | Node ('-', l, r) -> arith_eval l - arith_eval r
  | Node (_, l, r) -> arith_eval l * arith_eval r

let rec arith_size = function Leaf _ -> 1 | Node (_, l, r) -> arith_size l + arith_size r

let prop_moodc_arithmetic_matches_ocaml =
  QCheck.Test.make ~name:"MoodC arithmetic = OCaml evaluation" ~count:200
    (QCheck.make ~print:arith_to_moodc arith_tree_gen)
    (fun tree ->
      arith_size tree <= 64
      &&
      let body = Printf.sprintf "{ return %s; }" (arith_to_moodc tree) in
      match run_body body with
      | Value.Int got -> got = arith_eval tree
      | Value.Long got -> Int64.to_int got = arith_eval tree
      | _ -> false)

(* ---------------- Function Manager ---------------- *)

let test_signature_key () =
  Alcotest.(check string) "signature"
    "Vehicle::lbweight()"
    (Fm.signature_key ~class_name:"Vehicle" ~function_name:"lbweight" ~param_types:[]);
  Alcotest.(check string) "with params"
    "Vehicle::scale(Integer,Float)"
    (Fm.signature_key ~class_name:"Vehicle" ~function_name:"scale"
       ~param_types:[ basic Mtype.Integer; basic Mtype.Float ])

let test_define_and_invoke () =
  let _, cat, fm = setup () in
  Fm.define fm ~class_name:"Vehicle" ~signature:(vehicle_sig "lbweight")
    (Fm.Moodc "{ return weight * 2; }");
  let oid = insert_vehicle cat 150 in
  let scope = Fm.enter_scope fm in
  let result = Fm.invoke fm ~scope ~self:oid ~function_name:"lbweight" ~args:[] in
  Alcotest.(check bool) "invoked" true (result = Value.Int 300)

let test_late_binding_resolves_override () =
  let _, cat, fm = setup () in
  Fm.define fm ~class_name:"Vehicle" ~signature:(vehicle_sig "lbweight")
    (Fm.Moodc "{ return 1; }");
  Fm.define fm ~class_name:"JapaneseAuto" ~signature:(vehicle_sig "lbweight")
    (Fm.Moodc "{ return 2; }");
  let v = insert_vehicle cat 100 in
  let j = insert_vehicle cat ~cls:"JapaneseAuto" 100 in
  let scope = Fm.enter_scope fm in
  Alcotest.(check bool) "base" true
    (Fm.invoke fm ~scope ~self:v ~function_name:"lbweight" ~args:[] = Value.Int 1);
  Alcotest.(check bool) "derived overrides" true
    (Fm.invoke fm ~scope ~self:j ~function_name:"lbweight" ~args:[] = Value.Int 2);
  (* subclass without its own body inherits the superclass binding *)
  let a = insert_vehicle cat ~cls:"Automobile" 100 in
  Alcotest.(check bool) "inherited" true
    (Fm.invoke fm ~scope ~self:a ~function_name:"lbweight" ~args:[] = Value.Int 1)

let test_scope_caching_and_reload () =
  let _, cat, fm = setup () in
  Fm.define fm ~class_name:"Vehicle" ~signature:(vehicle_sig "lbweight")
    (Fm.Moodc "{ return 1; }");
  let oid = insert_vehicle cat 100 in
  let scope = Fm.enter_scope fm in
  let loads0 = Fm.loads fm in
  ignore (Fm.invoke fm ~scope ~self:oid ~function_name:"lbweight" ~args:[]);
  ignore (Fm.invoke fm ~scope ~self:oid ~function_name:"lbweight" ~args:[]);
  Alcotest.(check int) "loaded once per scope" (loads0 + 1) (Fm.loads fm);
  Alcotest.(check int) "cached" 1 (Fm.cached scope);
  (* new scope reloads *)
  let scope2 = Fm.enter_scope fm in
  ignore (Fm.invoke fm ~scope:scope2 ~self:oid ~function_name:"lbweight" ~args:[]);
  Alcotest.(check int) "reloaded" (loads0 + 2) (Fm.loads fm);
  (* redefinition bumps the shared object version: stale cache reloads
     and picks up the new body without any server restart *)
  Fm.define fm ~class_name:"Vehicle" ~signature:(vehicle_sig "lbweight")
    (Fm.Moodc "{ return 42; }");
  Alcotest.(check bool) "new body visible" true
    (Fm.invoke fm ~scope ~self:oid ~function_name:"lbweight" ~args:[] = Value.Int 42)

let test_drop_function () =
  let _, cat, fm = setup () in
  Fm.define fm ~class_name:"Vehicle" ~signature:(vehicle_sig "lbweight")
    (Fm.Moodc "{ return 1; }");
  Fm.drop fm ~class_name:"Vehicle" ~function_name:"lbweight";
  let oid = insert_vehicle cat 100 in
  let scope = Fm.enter_scope fm in
  (match Fm.invoke fm ~scope ~self:oid ~function_name:"lbweight" ~args:[] with
  | exception Fm.Mood_exception _ -> ()
  | _ -> Alcotest.fail "dropped function still invokable");
  match Fm.drop fm ~class_name:"Vehicle" ~function_name:"lbweight" with
  | exception Fm.Mood_exception _ -> ()
  | _ -> Alcotest.fail "double drop accepted"

let test_native_function () =
  let _, cat, fm = setup () in
  Fm.define fm ~class_name:"Vehicle"
    ~signature:
      { Catalog.method_name = "heavier_than";
        parameters = [ ("limit", basic Mtype.Integer) ];
        return_type = basic Mtype.Boolean
      }
    (Fm.Native
       (fun ~deref:_ ~self ~args ->
         match Value.tuple_get self "weight", args with
         | Some (Value.Int w), [ Value.Int limit ] -> Value.Bool (w > limit)
         | _ -> Value.Null));
  let oid = insert_vehicle cat 1500 in
  let scope = Fm.enter_scope fm in
  Alcotest.(check bool) "native invoke" true
    (Fm.invoke fm ~scope ~self:oid ~function_name:"heavier_than" ~args:[ Value.Int 1000 ]
    = Value.Bool true);
  (* arity checked against the catalog signature *)
  match Fm.invoke fm ~scope ~self:oid ~function_name:"heavier_than" ~args:[] with
  | exception Fm.Mood_exception { message; _ } ->
      Alcotest.(check bool) "arity message" true (String.length message > 0)
  | _ -> Alcotest.fail "arity violation accepted"

let test_runtime_errors_are_mood_exceptions () =
  let _, cat, fm = setup () in
  Fm.define fm ~class_name:"Vehicle" ~signature:(vehicle_sig "bad")
    (Fm.Moodc "{ return weight / 0; }");
  let oid = insert_vehicle cat 100 in
  let scope = Fm.enter_scope fm in
  (match Fm.invoke fm ~scope ~self:oid ~function_name:"bad" ~args:[] with
  | exception Fm.Mood_exception { message; _ } ->
      Alcotest.(check bool) "mentions zero" true
        (String.length message > 0)
  | v -> Alcotest.failf "expected exception, got %s" (Value.to_string v));
  (* compile-time failure surfaces at definition *)
  match
    Fm.define fm ~class_name:"Vehicle" ~signature:(vehicle_sig "worse") (Fm.Moodc "{ return ; }")
  with
  | exception Fm.Mood_exception _ -> ()
  | _ -> Alcotest.fail "bad body accepted"

let test_interpreted_matches_compiled () =
  let _, cat, fm = setup () in
  Fm.define fm ~class_name:"Vehicle" ~signature:(vehicle_sig "lbweight")
    (Fm.Moodc "{ return weight * 3 + 7; }");
  let oid = insert_vehicle cat 11 in
  let scope = Fm.enter_scope fm in
  let compiled = Fm.invoke fm ~scope ~self:oid ~function_name:"lbweight" ~args:[] in
  let interpreted = Fm.invoke_interpreted fm ~self:oid ~function_name:"lbweight" ~args:[] in
  Alcotest.(check bool) "same result" true (Value.equal compiled interpreted)

let test_definition_respects_so_lock () =
  let store, _, fm = setup () in
  (* Another transaction holds the class's shared object exclusively:
     definition must fail rather than corrupt it. *)
  let locks = Store.locks store in
  let txn = Lock.begin_txn locks in
  Alcotest.(check bool) "lock taken" true
    (Lock.acquire locks txn "shared_object:Vehicle" = Lock.Granted);
  (match
     Fm.define fm ~class_name:"Vehicle" ~signature:(vehicle_sig "lbweight")
       (Fm.Moodc "{ return 1; }")
   with
  | exception Fm.Mood_exception { message; _ } ->
      Alcotest.(check bool) "blocked" true (String.length message > 0)
  | _ -> Alcotest.fail "definition proceeded under a foreign lock");
  Lock.release_all locks txn;
  (* now it succeeds, and other classes were never blocked *)
  Fm.define fm ~class_name:"Vehicle" ~signature:(vehicle_sig "lbweight")
    (Fm.Moodc "{ return 1; }")

let test_invoke_on_transient_value () =
  (* late binding on a value that is not stored in any extent: the
     class is supplied explicitly *)
  let _, _, fm = setup () in
  Fm.define fm ~class_name:"Vehicle" ~signature:(vehicle_sig "lbweight")
    (Fm.Moodc "{ return weight + 1; }");
  let scope = Fm.enter_scope fm in
  let result =
    Fm.invoke_on_value fm ~scope ~class_name:"JapaneseAuto"
      ~self:(Value.Tuple [ ("weight", Value.Int 9) ])
      ~function_name:"lbweight" ~args:[]
  in
  Alcotest.(check bool) "resolved through IS-A" true (result = Value.Int 10)

let test_catalog_signature_registration () =
  let _, cat, fm = setup () in
  Fm.define fm ~class_name:"Employee"
    ~signature:
      { Catalog.method_name = "greet"; parameters = []; return_type = basic (Mtype.String 16) }
    (Fm.Moodc "{ return \"hi\"; }");
  Alcotest.(check bool) "signature in catalog" true
    (Catalog.find_method cat ~class_name:"Employee" ~method_name:"greet" <> None)

let suites =
  [ ( "funcmgr.moodc",
      [ Alcotest.test_case "preprocess" `Quick test_preprocess;
        Alcotest.test_case "paper body" `Quick test_moodc_paper_body;
        Alcotest.test_case "control flow" `Quick test_moodc_control_flow;
        Alcotest.test_case "parameter shadowing" `Quick test_moodc_params_shadow;
        Alcotest.test_case "member deref" `Quick test_moodc_member_access_derefs;
        Alcotest.test_case "booleans" `Quick test_moodc_booleans_and_logic;
        Alcotest.test_case "parse errors" `Quick test_moodc_parse_errors;
        Alcotest.test_case "while loops" `Quick test_moodc_while_loop;
        Alcotest.test_case "string concat" `Quick test_moodc_string_concat;
        Alcotest.test_case "no return" `Quick test_moodc_no_return_yields_null;
        QCheck_alcotest.to_alcotest prop_moodc_arithmetic_matches_ocaml
      ] );
    ( "funcmgr.manager",
      [ Alcotest.test_case "signature key" `Quick test_signature_key;
        Alcotest.test_case "define/invoke" `Quick test_define_and_invoke;
        Alcotest.test_case "late binding" `Quick test_late_binding_resolves_override;
        Alcotest.test_case "scope caching" `Quick test_scope_caching_and_reload;
        Alcotest.test_case "drop" `Quick test_drop_function;
        Alcotest.test_case "native bodies" `Quick test_native_function;
        Alcotest.test_case "run-time exceptions" `Quick test_runtime_errors_are_mood_exceptions;
        Alcotest.test_case "interpreted = compiled" `Quick test_interpreted_matches_compiled;
        Alcotest.test_case "shared-object locking" `Quick test_definition_respects_so_lock;
        Alcotest.test_case "transient receivers" `Quick test_invoke_on_transient_value;
        Alcotest.test_case "catalog registration" `Quick test_catalog_signature_registration
      ] )
  ]
