(* Tests for Mood_model: values, types, operands, codec, OIDs. *)

module Value = Mood_model.Value
module Mtype = Mood_model.Mtype
module Oid = Mood_model.Oid
module Operand = Mood_model.Operand
module Codec = Mood_model.Codec

let oid c s = Oid.make ~class_id:c ~slot:s

(* ---------------- Oid ---------------- *)

let test_oid_basics () =
  let a = oid 1 2 and b = oid 1 3 and c = oid 2 0 in
  Alcotest.(check bool) "equal" true (Oid.equal a (oid 1 2));
  Alcotest.(check bool) "order by slot" true (Oid.compare a b < 0);
  Alcotest.(check bool) "order by class" true (Oid.compare b c < 0);
  Alcotest.(check string) "print" "<1:2>" (Oid.to_string a);
  Alcotest.check_raises "negative" (Invalid_argument "Oid.make: negative component")
    (fun () -> ignore (oid (-1) 0))

(* ---------------- Value ordering / sets ---------------- *)

let test_numeric_cross_kind_compare () =
  Alcotest.(check bool) "int = long" true (Value.equal (Value.Int 2) (Value.Long 2L));
  Alcotest.(check bool) "int = float" true (Value.equal (Value.Int 2) (Value.Float 2.));
  Alcotest.(check bool) "int < float" true (Value.compare (Value.Int 2) (Value.Float 2.5) < 0)

let test_set_canonical () =
  let s = Value.set [ Value.Int 3; Value.Int 1; Value.Int 3; Value.Int 2 ] in
  match s with
  | Value.Set xs ->
      Alcotest.(check int) "deduplicated" 3 (List.length xs);
      Alcotest.(check bool) "sorted" true
        (xs = [ Value.Int 1; Value.Int 2; Value.Int 3 ])
  | _ -> Alcotest.fail "expected a set"

let test_tuple_accessors () =
  let t = Value.Tuple [ ("a", Value.Int 1); ("b", Value.Str "x") ] in
  Alcotest.(check bool) "get" true (Value.tuple_get t "a" = Some (Value.Int 1));
  Alcotest.(check bool) "get missing" true (Value.tuple_get t "z" = None);
  let t2 = Value.tuple_set t "a" (Value.Int 9) in
  Alcotest.(check bool) "set" true (Value.tuple_get t2 "a" = Some (Value.Int 9));
  Alcotest.check_raises "set missing" (Invalid_argument "Value.tuple_set: no attribute \"z\"")
    (fun () -> ignore (Value.tuple_set t "z" Value.Null))

let test_deep_equality () =
  (* two distinct objects with equal contents are deep-equal *)
  let store = Hashtbl.create 8 in
  let deref o = Hashtbl.find_opt store o in
  Hashtbl.replace store (oid 0 0) (Value.Tuple [ ("x", Value.Int 1) ]);
  Hashtbl.replace store (oid 0 1) (Value.Tuple [ ("x", Value.Int 1) ]);
  Hashtbl.replace store (oid 0 2) (Value.Tuple [ ("x", Value.Int 2) ]);
  Alcotest.(check bool) "same contents" true
    (Value.deep_equal ~deref (Value.Ref (oid 0 0)) (Value.Ref (oid 0 1)));
  Alcotest.(check bool) "different contents" false
    (Value.deep_equal ~deref (Value.Ref (oid 0 0)) (Value.Ref (oid 0 2)));
  Alcotest.(check bool) "shallow equal stays equal" true
    (Value.deep_equal ~deref (Value.Ref (oid 0 0)) (Value.Ref (oid 0 0)))

let test_deep_equality_cycles () =
  (* a -> b -> a  vs  c -> d -> c with equal atoms: deep-equal
     coinductively *)
  let store = Hashtbl.create 8 in
  let deref o = Hashtbl.find_opt store o in
  Hashtbl.replace store (oid 1 0) (Value.Tuple [ ("n", Value.Int 1); ("next", Value.Ref (oid 1 1)) ]);
  Hashtbl.replace store (oid 1 1) (Value.Tuple [ ("n", Value.Int 2); ("next", Value.Ref (oid 1 0)) ]);
  Hashtbl.replace store (oid 1 2) (Value.Tuple [ ("n", Value.Int 1); ("next", Value.Ref (oid 1 3)) ]);
  Hashtbl.replace store (oid 1 3) (Value.Tuple [ ("n", Value.Int 2); ("next", Value.Ref (oid 1 2)) ]);
  Alcotest.(check bool) "cyclic equal" true
    (Value.deep_equal ~deref (Value.Ref (oid 1 0)) (Value.Ref (oid 1 2)));
  (* break the symmetry *)
  Hashtbl.replace store (oid 1 3) (Value.Tuple [ ("n", Value.Int 99); ("next", Value.Ref (oid 1 2)) ]);
  Alcotest.(check bool) "cyclic unequal" false
    (Value.deep_equal ~deref (Value.Ref (oid 1 0)) (Value.Ref (oid 1 2)))

let test_dangling_reference_deep_equality () =
  let deref _ = None in
  Alcotest.(check bool) "dangling same oid" true
    (Value.deep_equal ~deref (Value.Ref (oid 9 9)) (Value.Ref (oid 9 9)));
  Alcotest.(check bool) "dangling different" false
    (Value.deep_equal ~deref (Value.Ref (oid 9 9)) (Value.Ref (oid 9 8)))

(* ---------------- Type checking ---------------- *)

let test_type_check () =
  let check v ty expected =
    Alcotest.(check bool)
      (Printf.sprintf "%s : %s" (Value.to_string v) (Mtype.to_string ty))
      expected (Value.type_check v ty)
  in
  check (Value.Int 3) (Mtype.Basic Mtype.Integer) true;
  check (Value.Int 3) (Mtype.Basic Mtype.Float) false;
  check Value.Null (Mtype.Basic Mtype.Float) true;
  check (Value.Str "abc") (Mtype.Basic (Mtype.String 3)) true;
  check (Value.Str "abcd") (Mtype.Basic (Mtype.String 3)) false;
  check (Value.Set [ Value.Int 1 ]) (Mtype.Set (Mtype.Basic Mtype.Integer)) true;
  check (Value.Set [ Value.Str "x" ]) (Mtype.Set (Mtype.Basic Mtype.Integer)) false;
  check
    (Value.Tuple [ ("a", Value.Int 1) ])
    (Mtype.Tuple [ ("a", Mtype.Basic Mtype.Integer) ])
    true;
  check
    (Value.Tuple [ ("b", Value.Int 1) ])
    (Mtype.Tuple [ ("a", Mtype.Basic Mtype.Integer) ])
    false;
  check (Value.Ref (oid 0 0)) (Mtype.Reference "X") true

let test_mtype_helpers () =
  Alcotest.(check string) "ddl print" "TUPLE (a Integer, r REFERENCE (C))"
    (Mtype.to_string
       (Mtype.Tuple [ ("a", Mtype.Basic Mtype.Integer); ("r", Mtype.Reference "C") ]));
  Alcotest.(check int) "size" 12
    (Mtype.byte_size
       (Mtype.Tuple [ ("a", Mtype.Basic Mtype.Integer); ("r", Mtype.Reference "C") ]));
  Alcotest.(check (option string)) "ref through set" (Some "C")
    (Mtype.referenced_class (Mtype.Set (Mtype.Reference "C")));
  Alcotest.(check bool) "atomic" true (Mtype.is_atomic (Mtype.Basic Mtype.Char));
  Alcotest.(check bool) "not atomic" false (Mtype.is_atomic (Mtype.Reference "C"))

(* ---------------- OperandDataType (Section 2) ---------------- *)

let test_operand_paper_example () =
  (* OperandDataType x(INT16), y(INT32), z(DOUBLE);
     x = 10; y = 13; z = (x*3 + x%3) * (y/4*5) *)
  let open Operand in
  let x = assign (declare Int16) (of_value (Value.Int 10)) in
  let y = assign (declare Int32) (of_value (Value.Int 13)) in
  let expr =
    mul
      (add (mul x (of_value (Value.Int 3))) (modulo x (of_value (Value.Int 3))))
      (mul (div y (of_value (Value.Int 4))) (of_value (Value.Int 5)))
  in
  let z = assign (declare Double) expr in
  Alcotest.(check string) "z is a double" "DOUBLE" (data_type_name (data_type z));
  (* (30 + 1) * (3 * 5) = 465, cast to double *)
  Alcotest.(check bool) "value" true (Value.equal (to_value z) (Value.Float 465.))

let test_operand_promotion () =
  let open Operand in
  let a = of_value (Value.Int 1000) and b = of_value (Value.Float 0.5) in
  Alcotest.(check string) "int+float = double" "DOUBLE" (data_type_name (data_type (add a b)));
  (* Int16 overflow widens *)
  let big = mul (of_value (Value.Int 300)) (of_value (Value.Int 300)) in
  Alcotest.(check string) "widened" "INT32" (data_type_name (data_type big))

let test_operand_errors () =
  let open Operand in
  let check_raises name f =
    match f () with
    | exception Type_error _ -> ()
    | _ -> Alcotest.failf "%s: expected Type_error" name
  in
  check_raises "string arithmetic" (fun () -> add (of_value (Value.Str "a")) (of_value (Value.Int 1)));
  check_raises "div by zero" (fun () -> div (of_value (Value.Int 1)) (of_value (Value.Int 0)));
  check_raises "mod by zero" (fun () -> modulo (of_value (Value.Int 1)) (of_value (Value.Int 0)));
  check_raises "float modulo" (fun () -> modulo (of_value (Value.Float 1.)) (of_value (Value.Int 2)));
  check_raises "and on ints" (fun () -> logical_and (of_value (Value.Int 1)) (of_value (Value.Bool true)));
  check_raises "assign text to int" (fun () ->
      assign (declare Int16) (of_value (Value.Str "x")));
  check_raises "int16 range" (fun () -> assign (declare Int16) (of_value (Value.Int 40000)));
  check_raises "tuple operand" (fun () -> of_value (Value.Tuple []))

let test_operand_comparisons_and_logic () =
  let open Operand in
  let t = of_value (Value.Bool true) and f = of_value (Value.Bool false) in
  let as_bool o = Value.truthy (to_value o) in
  Alcotest.(check bool) "1 < 2" true (as_bool (compare_op `Lt (of_value (Value.Int 1)) (of_value (Value.Int 2))));
  Alcotest.(check bool) "2 >= 2.0" true
    (as_bool (compare_op `Ge (of_value (Value.Int 2)) (of_value (Value.Float 2.))));
  Alcotest.(check bool) "'a' < 'b'" true
    (as_bool (compare_op `Lt (of_value (Value.Str "a")) (of_value (Value.Str "b"))));
  Alcotest.(check bool) "char vs string" true
    (as_bool (compare_op `Eq (of_value (Value.Char 'x')) (of_value (Value.Str "x"))));
  Alcotest.(check bool) "and" false (as_bool (logical_and t f));
  Alcotest.(check bool) "or" true (as_bool (logical_or t f));
  Alcotest.(check bool) "not" true (as_bool (logical_not f))

(* ---------------- Codec ---------------- *)

let value_gen =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          let atom =
            oneof
              [ return Value.Null;
                map (fun i -> Value.Int i) int;
                map (fun i -> Value.Int i) (oneofl [ 0; -1; max_int; min_int ]);
                map (fun l -> Value.Long l) int64;
                map (fun l -> Value.Long l) (oneofl [ Int64.max_int; Int64.min_int ]);
                map (fun f -> Value.Float f) (float_bound_inclusive 1000.);
                map (fun s -> Value.Str s) (string_size (int_bound 12));
                map (fun c -> Value.Char c) printable;
                map (fun b -> Value.Bool b) bool;
                map2 (fun c s -> Value.Ref (Oid.make ~class_id:c ~slot:s)) (int_bound 50) (int_bound 1000)
              ]
          in
          if n <= 1 then atom
          else
            oneof
              [ atom;
                map (fun xs -> Value.set xs) (list_size (int_bound 4) (self (n / 2)));
                map (fun xs -> Value.List xs) (list_size (int_bound 4) (self (n / 2)));
                map
                  (fun xs -> Value.Tuple (List.mapi (fun i v -> (Printf.sprintf "f%d" i, v)) xs))
                  (list_size (int_bound 4) (self (n / 2)))
              ])
        (min n 12))

let arbitrary_value = QCheck.make ~print:Value.to_string value_gen

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec round-trip" ~count:500 arbitrary_value (fun v ->
      Value.compare (Codec.decode (Codec.encode v)) v = 0)

let prop_encoded_size =
  QCheck.Test.make ~name:"encoded_size = length of encoding" ~count:200 arbitrary_value
    (fun v -> Codec.encoded_size v = String.length (Codec.encode v))

(* The truncation rule: a record cut anywhere short of its end is
   rejected with [Failure], never decoded as something else and never
   an out-of-bounds read. *)
let prop_codec_prefix_fails =
  QCheck.Test.make ~name:"every proper prefix of an encoding fails" ~count:200 arbitrary_value
    (fun v ->
      let s = Codec.encode v in
      List.for_all
        (fun len ->
          match Codec.decode (String.sub s 0 len) with
          | exception Failure _ -> true
          | _ -> false)
        (List.init (String.length s) Fun.id))

let test_codec_rejects_garbage () =
  Alcotest.check_raises "trailing" (Failure "Codec.decode: trailing bytes") (fun () ->
      ignore (Codec.decode (Codec.encode (Value.Int 1) ^ "x")));
  (match Codec.decode "\255" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure on unknown tag");
  (* A negative OID component is malformed input, not a caller error. *)
  (match Codec.decode ("\010" ^ String.make 8 '\255' ^ String.make 8 '\000') with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure on a negative OID component");
  (* A string length of [max_int] must not overflow the bounds check. *)
  (match Codec.decode "\004\x3f\xff\xff\xff\xff\xff\xff\xffxyz" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure on an oversized string length");
  match Codec.decode "" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure on empty input"

let prop_value_compare_total_order =
  QCheck.Test.make ~name:"value compare antisymmetric" ~count:300
    (QCheck.pair arbitrary_value arbitrary_value) (fun (a, b) ->
      let c1 = Value.compare a b and c2 = Value.compare b a in
      (c1 = 0 && c2 = 0) || (c1 > 0 && c2 < 0) || (c1 < 0 && c2 > 0))

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [ ( "model.oid",
      [ Alcotest.test_case "basics" `Quick test_oid_basics ] );
    ( "model.value",
      [ Alcotest.test_case "numeric cross-kind" `Quick test_numeric_cross_kind_compare;
        Alcotest.test_case "set canonical" `Quick test_set_canonical;
        Alcotest.test_case "tuple accessors" `Quick test_tuple_accessors;
        Alcotest.test_case "deep equality" `Quick test_deep_equality;
        Alcotest.test_case "deep equality cycles" `Quick test_deep_equality_cycles;
        Alcotest.test_case "dangling refs" `Quick test_dangling_reference_deep_equality;
        Alcotest.test_case "type check" `Quick test_type_check;
        qtest prop_value_compare_total_order
      ] );
    ( "model.mtype",
      [ Alcotest.test_case "helpers" `Quick test_mtype_helpers ] );
    ( "model.operand",
      [ Alcotest.test_case "paper example" `Quick test_operand_paper_example;
        Alcotest.test_case "promotion" `Quick test_operand_promotion;
        Alcotest.test_case "errors" `Quick test_operand_errors;
        Alcotest.test_case "comparisons and logic" `Quick test_operand_comparisons_and_logic
      ] );
    ( "model.codec",
      [ qtest prop_codec_roundtrip;
        qtest prop_encoded_size;
        qtest prop_codec_prefix_fails;
        Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage
      ] )
  ]
