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
  let ast = Moodc.parse ~params (Moodc.preprocess body) in
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
  let ast = Moodc.parse ~params:[] "{ return engine.cylinders * 2; }" in
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

(* The lowered closure against the AST walk it replaces: the same value
   with the same constructor, or the same exception with the same
   message. Bodies are generated as source text over: locals that are
   read before any assignment (falling back to an attribute of the same
   name, or unbound) and assigned without a declaration; parameters
   that shadow attributes, called with fewer arguments than parameters
   at times; member access through a live and a dangling
   reference; if, counted while loops, and ifs and loops whose
   condition is not a Boolean; && and || over non-Booleans; zero
   divisors; Int32-edge literals. *)
let moodc_target = Mood_model.Oid.make ~class_id:5 ~slot:0

let moodc_dangling = Mood_model.Oid.make ~class_id:5 ~slot:1

let moodc_deref oid =
  if Mood_model.Oid.equal oid moodc_target then Some (Value.Tuple [ ("w", Value.Int 5) ])
  else None

(* Mostly well-typed bodies, so that values as well as errors are
   compared: integer and Boolean expressions, with now and then a wild
   operand (an unbound or not-yet-assigned name, a reference, a string,
   a float, a member of a dangling reference or of an integer). *)
let moodc_int_literals =
  [| "0"; "1"; "2"; "7"; "46341"; "65536"; "2147483647"; "2147483648"; "4294967296" |]

let moodc_wide = [| "9007199254740992"; "9007199254740993"; "4611686018427387903" |]

let moodc_wild = [| "b"; "q"; "r"; "d.w"; "w.x"; "s"; "2.5"; "0.0"; "\"s\""; "f"; "0" |]

let moodc_expr_gens =
  QCheck.Gen.(
    let binop l ops r = map3 (Printf.sprintf "(%s %s %s)") l (oneofl ops) r in
    let int_leaf =
      frequency [ (4, oneofa moodc_int_literals); (6, oneofl [ "w"; "a"; "p"; "r.w" ]) ]
    in
    let rec int_e n =
      if n <= 1 then frequency [ (19, int_leaf); (1, oneofa moodc_wild) ]
      else
        frequency
          [ (2, int_leaf);
            (6, binop (int_e (n / 2)) [ "+"; "-"; "*"; "/"; "%" ] (int_e (n / 2)));
            (1, map (Printf.sprintf "-(%s)") (int_e (n - 1)));
            (* two literals whose sum, difference or product may leave Int32 *)
            (1,
             binop (oneofa moodc_int_literals) [ "+"; "-"; "*" ] (oneofa moodc_int_literals));
            (1, oneofa moodc_wild);
            (* a left side that is no operand, then a right side that
               may fail: the left one's error comes first *)
            (1, binop (return "r") [ "+"; "<" ] (oneof [ oneofa moodc_wild; failing (n / 2) ]))
          ]
    and failing n = map (Printf.sprintf "(%s / 0)") (int_e n)
    and bool_e n =
      if n <= 1 then frequency [ (6, oneofl [ "true"; "false"; "f" ]); (1, oneofa moodc_wild) ]
      else
        frequency
          [ (4, binop (int_e (n / 2)) [ "<"; "<="; ">"; ">="; "=="; "!=" ] (int_e (n / 2)));
            (2, binop (bool_e (n / 2)) [ "&&"; "||" ] (bool_e (n / 2)));
            (* a Boolean that decides the result, then a side that may fail *)
            (1,
             binop (oneofl [ "false"; "true" ]) [ "&&"; "||" ]
               (oneof [ int_e (n / 2); oneofa moodc_wild; failing (n / 2) ]));
            (* integers a float cannot tell apart *)
            (2, binop (oneofa moodc_wide) [ "<"; "=="; "!=" ] (oneofa moodc_wide));
            (1, map (Printf.sprintf "!(%s)") (bool_e (n - 1)))
          ]
    in
    (int_range 1 6 >>= int_e, int_range 1 6 >>= bool_e))

let moodc_stmt_gen =
  QCheck.Gen.(
    let int_e, bool_e = moodc_expr_gens in
    let rec gen n =
      let leaf =
        frequency
          [ (3, map (Printf.sprintf "return %s;") int_e);
            (1, map (Printf.sprintf "return %s;") bool_e);
            (2, map (Printf.sprintf "Integer a = %s;") int_e);
            (2, map (Printf.sprintf "a = %s;") int_e);
            (2, map (Printf.sprintf "b = %s;") int_e)
          ]
      in
      if n <= 1 then leaf
      else
        frequency
          [ (4, leaf);
            (2, map2 (Printf.sprintf "if (%s) %s") bool_e (gen (n / 2)));
            (2, map3 (Printf.sprintf "if (%s) %s else %s") bool_e (gen (n / 2)) (gen (n / 2)));
            (* an integer condition: a run-time type error, not a crash *)
            (1, map2 (Printf.sprintf "if (%s) %s") int_e (gen (n / 2)));
            (2, map (fun ss -> "{ " ^ String.concat " " ss ^ " }") (list_size (int_range 0 3) (gen (n / 2))));
            (* A counter per nesting depth: a nested loop that reset its
               enclosing loop's counter could spin to the runaway bound. *)
            (2,
             map2
               (fun k body ->
                 Printf.sprintf "{ Integer i%d = 0; while (i%d < %d) { %s i%d = i%d + 1; } }" n n k
                   body n n)
               (int_bound 3) (gen (n / 2)));
            (* never true: [b] could hold [true] and spin to the runaway bound *)
            (1, map2 (Printf.sprintf "while (%s) %s") (oneofl [ "false"; "w" ]) (gen (n / 2)))
          ]
    in
    map
      (fun ss -> "{ " ^ String.concat " " ss ^ " }")
      (list_size (int_range 1 4) (int_range 1 8 >>= gen)))

let moodc_case_gen =
  QCheck.Gen.(
    let edge =
      oneofl [ 0; 1; -1; 3; 46341; 2147483647; -2147483648; 2147483648; -4294967296 ]
    in
    map3
      (fun body (w, a, p) nargs -> (body, w, a, p, nargs))
      moodc_stmt_gen (triple edge edge edge) (int_bound 2))

let outcome f =
  match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let prop_lowered_matches_run =
  QCheck.Test.make ~name:"lowered MoodC = AST walk" ~count:1000
    (QCheck.make
       ~print:(fun (body, w, a, p, nargs) ->
         Printf.sprintf "%s  [w=%d a=%d p=%d, %d args]" body w a p nargs)
       moodc_case_gen)
    (fun (body, w, a, p, nargs) ->
      let self =
        Value.Tuple
          [ ("w", Value.Int w); ("a", Value.Int a); ("p", Value.Int 11); ("f", Value.Bool true);
            ("s", Value.Str "t");
            ("r", Value.Ref moodc_target); ("d", Value.Ref moodc_dangling)
          ]
      in
      let args = List.filteri (fun i _ -> i < nargs) [ Value.Int p; Value.Int (p + 1) ] in
      let env = { Moodc.deref = moodc_deref; self; args } in
      let ast = Moodc.parse ~params:[ "p"; "w" ] (Moodc.preprocess body) in
      let reference = outcome (fun () -> Moodc.run ast env) in
      let lowered = outcome (fun () -> Moodc.exec (Moodc.lower ast) env) in
      match reference, lowered with
      | Ok x, Ok y -> compare x y = 0
      | Error x, Error y -> String.equal x y
      | Ok _, Error _ | Error _, Ok _ -> false)

(* A condition that is not a Boolean is a run-time type error, the
   same from the AST walk and the lowered closures. *)
let test_non_boolean_condition () =
  let self = Value.Tuple [ ("x", Value.Int 3) ] in
  let env = { Moodc.deref = (fun _ -> None); self; args = [] } in
  List.iter
    (fun body ->
      let ast = Moodc.parse ~params:[] (Moodc.preprocess body) in
      List.iter
        (fun (what, run) ->
          match run () with
          | exception Mood_model.Operand.Type_error msg ->
              Alcotest.(check string) (what ^ ": " ^ body) "condition did not evaluate to a Boolean"
                msg
          | v -> Alcotest.failf "%s of %s returned %s" what body (Value.to_string v))
        [ ("AST walk", fun () -> Moodc.run ast env);
          ("lowered", fun () -> Moodc.exec (Moodc.lower ast) env)
        ])
    [ "{ if (x) return 1; return 2; }";
      "{ if (x) return 1; else return 2; }";
      "{ while (x) { x = x - 1; } return 0; }"
    ]

(* A loop gets 10^7 - 1 iterations; the next one is the runaway. *)
let test_lowered_runaway_loop () =
  let ast =
    Moodc.parse ~params:[]
      (Moodc.preprocess "{ int i = 0; while (i < 10000000) { i = i + 1; } return i; }")
  in
  let env = { Moodc.deref = (fun _ -> None); self = Value.Tuple []; args = [] } in
  Alcotest.(check (result string string)) "same failure"
    (Result.map Value.to_string (outcome (fun () -> Moodc.run ast env)))
    (Result.map Value.to_string (outcome (fun () -> Moodc.exec (Moodc.lower ast) env)))

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

(* A scope binds (receiver class, name, argument count) once; a define
   or drop anywhere, or a schema change, rebinds. *)
let test_bindings_follow_define_and_drop () =
  let _, cat, fm = setup () in
  Fm.define fm ~class_name:"Vehicle" ~signature:(vehicle_sig "lbweight")
    (Fm.Moodc "{ return weight + 1; }");
  let j = insert_vehicle cat ~cls:"JapaneseAuto" 100 in
  let a = insert_vehicle cat ~cls:"Automobile" 200 in
  let scope = Fm.enter_scope fm in
  let call self = Fm.invoke fm ~scope ~self ~function_name:"lbweight" ~args:[] in
  let check_value what expected got =
    Alcotest.(check string) what (Value.to_string expected) (Value.to_string got)
  in
  check_value "inherited body" (Value.Int 101) (call j);
  check_value "inherited body, another class" (Value.Int 201) (call a);
  let loads = Fm.loads fm in
  check_value "bound" (Value.Int 101) (call j);
  Alcotest.(check int) "a hit loads nothing" loads (Fm.loads fm);
  check_value "runs on the value it is handed" (Value.Int 42)
    (Fm.invoke_stored fm ~scope ~self:j ~value:(Value.Tuple [ ("weight", Value.Int 41) ])
       ~function_name:"lbweight" ~args:[]);
  ignore (Catalog.define_class cat ~name:"Unrelated" ~attributes:[ ("k", basic Mtype.Integer) ] ());
  check_value "after a schema change" (Value.Int 101) (call j);
  for _ = 1 to 2 do
    match Fm.invoke fm ~scope ~self:j ~function_name:"lbweight" ~args:[ Value.Int 1 ] with
    | exception Fm.Mood_exception { message; _ } ->
        Alcotest.(check string) "arity, every time" "expected 0 argument(s), got 1" message
    | v -> Alcotest.failf "arity violation returned %s" (Value.to_string v)
  done;
  Fm.define fm ~class_name:"JapaneseAuto" ~signature:(vehicle_sig "lbweight")
    (Fm.Moodc "{ return weight + 2; }");
  check_value "override bound" (Value.Int 102) (call j);
  Fm.drop fm ~class_name:"Vehicle" ~function_name:"lbweight";
  check_value "the override outlives the base body" (Value.Int 102) (call j);
  (match call a with
  | exception Fm.Mood_exception { message; _ } ->
      Alcotest.(check string) "the inherited binding went with its body"
        "signature not found in CATALOG for class Automobile" message
  | v -> Alcotest.failf "dropped body returned %s" (Value.to_string v));
  let orphan = Mood_model.Oid.make ~class_id:9999 ~slot:0 in
  (match
    Fm.invoke_stored fm ~scope ~self:orphan ~value:(Value.Tuple []) ~function_name:"lbweight"
      ~args:[]
  with
  | exception Fm.Mood_exception { message; _ } ->
      Alcotest.(check string) "no class" "object <9999:0> has no class" message
  | v -> Alcotest.failf "classless receiver returned %s" (Value.to_string v));
  (* A signature the catalog gains is a schema change: the next call
     binds again and checks the arity against it. *)
  Catalog.add_method cat ~class_name:"JapaneseAuto"
    { Catalog.method_name = "lbweight";
      parameters = [ ("k", basic Mtype.Integer) ];
      return_type = basic Mtype.Integer
    };
  match call j with
  | exception Fm.Mood_exception { message; _ } ->
      Alcotest.(check string) "rebound after the schema change" "expected 1 argument(s), got 0" message
  | v -> Alcotest.failf "stale binding returned %s" (Value.to_string v)

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

let db_ok db src =
  match Mood.Db.exec db src with
  | Ok r -> r
  | Error m -> Alcotest.failf "unexpected error on %S: %s" src m

let values_of db src =
  List.map Value.to_string
    (Mood_executor.Executor.result_values (Mood.Db.query ~cache:false db src))

(* DROP METHOD of an override whose signature the class inherits: the
   class declares no catalog signature of its own, so only the body
   goes, and its callers run the inherited one. A second drop fails
   and changes nothing. *)
let test_drop_inherited_override () =
  let db = Mood.Db.create () in
  List.iter
    (fun src -> ignore (db_ok db src))
    [ "CREATE CLASS A TUPLE (x Integer)";
      "CREATE CLASS B INHERITS FROM A TUPLE (y Integer)";
      "DEFINE METHOD A::f () Integer { return 1; }";
      "DEFINE METHOD B::f () Integer { return 2; }";
      "new A <5>";
      "new B <6, 7>"
    ];
  let b_f () = values_of db "SELECT b.f() FROM B b" in
  Alcotest.(check (list string)) "the override runs" [ "<b.f(): 2>" ] (b_f ());
  (match db_ok db "DROP METHOD B::f" with
  | Mood.Db.Method_dropped ("B", "f") -> ()
  | _ -> Alcotest.fail "drop result");
  Alcotest.(check (list string)) "the inherited body runs" [ "<b.f(): 1>" ] (b_f ());
  let cat = Mood.Db.catalog db in
  Alcotest.(check bool) "A keeps its signature" true
    (Catalog.own_methods cat "A" <> [] && Catalog.find_method cat ~class_name:"B" ~method_name:"f" <> None);
  (match Mood.Db.exec db "DROP METHOD B::f" with
  | Error m ->
      Alcotest.(check bool) "second drop: not found" true
        (Helpers.contains m "function not found in shared object")
  | Ok _ -> Alcotest.fail "second drop accepted");
  Alcotest.(check (list string)) "unchanged by the failed drop" [ "<b.f(): 1>" ] (b_f ());
  Alcotest.(check (list string)) "A's own call" [ "<a.f(): 1>"; "<a.f(): 1>" ]
    (values_of db "SELECT a.f() FROM A a")

(* A MoodC condition that is not a Boolean fails the statement with a
   run-time error, as a division by zero does, and the database serves
   the next statement. *)
let test_non_boolean_condition_via_sql () =
  let db = Mood.Db.create () in
  List.iter
    (fun src -> ignore (db_ok db src))
    [ "CREATE CLASS S TUPLE (x Integer)";
      "DEFINE METHOD S::g () Integer { if (x) return 1; return 2; }";
      "DEFINE METHOD S::h () Integer { while (x) { x = 0; } return 1; }";
      "DEFINE METHOD S::z () Integer { return x / 0; }";
      "new S <3>"
    ];
  List.iter
    (fun (src, want) ->
      match Mood.Db.exec db src with
      | Error m -> Alcotest.(check bool) (src ^ ": " ^ m) true (Helpers.contains m want)
      | Ok _ -> Alcotest.failf "%s succeeded" src)
    [ ("SELECT s.g() FROM S s", "run-time error: condition did not evaluate to a Boolean");
      ("SELECT s.h() FROM S s", "run-time error: condition did not evaluate to a Boolean");
      ("SELECT s.z() FROM S s", "run-time error: division by zero")
    ];
  Alcotest.(check (list string)) "the next statement runs" [ "<s.x: 3>" ]
    (values_of db "SELECT s.x FROM S s")

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
        QCheck_alcotest.to_alcotest prop_moodc_arithmetic_matches_ocaml;
        QCheck_alcotest.to_alcotest prop_lowered_matches_run;
        Alcotest.test_case "lowered runaway loop" `Quick test_lowered_runaway_loop;
        Alcotest.test_case "non-Boolean condition" `Quick test_non_boolean_condition
      ] );
    ( "funcmgr.manager",
      [ Alcotest.test_case "signature key" `Quick test_signature_key;
        Alcotest.test_case "define/invoke" `Quick test_define_and_invoke;
        Alcotest.test_case "late binding" `Quick test_late_binding_resolves_override;
        Alcotest.test_case "scope caching" `Quick test_scope_caching_and_reload;
        Alcotest.test_case "bindings follow define/drop" `Quick
          test_bindings_follow_define_and_drop;
        Alcotest.test_case "drop" `Quick test_drop_function;
        Alcotest.test_case "native bodies" `Quick test_native_function;
        Alcotest.test_case "run-time exceptions" `Quick test_runtime_errors_are_mood_exceptions;
        Alcotest.test_case "interpreted = compiled" `Quick test_interpreted_matches_compiled;
        Alcotest.test_case "shared-object locking" `Quick test_definition_respects_so_lock;
        Alcotest.test_case "transient receivers" `Quick test_invoke_on_transient_value;
        Alcotest.test_case "catalog registration" `Quick test_catalog_signature_registration;
        Alcotest.test_case "drop an inherited override" `Quick test_drop_inherited_override;
        Alcotest.test_case "non-Boolean condition via SQL" `Quick
          test_non_boolean_condition_via_sql
      ] )
  ]
