module Ast = Mood_sql.Ast
module Value = Mood_model.Value
module Fm = Mood_funcmgr.Function_manager
module Collection = Mood_algebra.Collection

type expr_fn = Eval.env -> Eval.row -> Value.t
type pred_fn = Eval.env -> Eval.row -> bool

let item_value (item : Collection.item) = item.Collection.value

(* The Int32-range guard of the fast paths below. Int32-range operands
   stay Int through the operand layer (Int64 arithmetic then 63-bit
   truncation agrees with native int arithmetic), and their numeric
   comparison via float is exact, so inside the guard native ints give
   the interpreter's answers. *)
let in32 x = x >= -2147483648 && x <= 2147483647

(* Anything wider than the guard promotes to Long in the operand layer
   and takes the generic route; so do zero divisors, so failures are
   the interpreter's, byte for byte. *)
let arith op =
  let generic = Eval.arith op in
  let int_fast =
    match op with
    | Ast.Add -> fun x y -> Value.Int (x + y)
    | Ast.Sub -> fun x y -> Value.Int (x - y)
    | Ast.Mul -> fun x y -> Value.Int (x * y)
    | Ast.Div ->
        fun x y -> if y = 0 then generic (Value.Int x) (Value.Int y) else Value.Int (x / y)
    | Ast.Mod ->
        fun x y -> if y = 0 then generic (Value.Int x) (Value.Int y) else Value.Int (x mod y)
  in
  fun va vb ->
    match va, vb with
    | Value.Int x, Value.Int y when in32 x && in32 y -> int_fast x y
    | _, _ -> generic va vb

let cmp c =
  let holds = Eval.comparison_holds c in
  fun va vb ->
    match va, vb with
    | Value.Int x, Value.Int y when in32 x && in32 y -> holds (Int.compare x y)
    | _, _ -> Eval.cmp_values c va vb

(* One compile-time pass: every [match] on AST constructors below runs
   once per plan; the returned closures dispatch on nothing but data. *)
let rec expr (e : Ast.expr) : expr_fn =
  match e with
  | Ast.Const v -> fun _env _row -> v
  | Ast.Path (var, []) -> fun _env row -> Eval.item_ref (Eval.lookup_var row var)
  | Ast.Path (var, path) -> fun env row -> Eval.path_value env (Eval.lookup_var row var) path
  | Ast.Method_call (var, path, name, args) ->
      let cargs = List.map expr args in
      fun env row ->
        let item = Eval.lookup_var row var in
        let receivers =
          if path = [] then [ Eval.item_ref item ]
          else Eval.navigate env (item_value item) path
        in
        let arg_values = List.map (fun f -> f env row) cargs in
        let invoke receiver =
          match receiver with
          | Value.Ref oid -> begin
              try
                Fm.invoke env.Eval.funcs ~scope:env.Eval.scope ~self:oid
                  ~function_name:name ~args:arg_values
              with Fm.Mood_exception { message; _ } -> Eval.eval_error "%s" message
            end
          | other ->
              Eval.eval_error "method %s on non-object value %s" name
                (Value.to_string other)
        in
        begin
          match receivers with
          | [] -> Value.Null
          | [ r ] -> invoke r
          | many -> Value.Set (List.map invoke many)
        end
  | Ast.Arith (op, a, b) ->
      let ca = expr a and cb = expr b and f = arith op in
      fun env row -> f (ca env row) (cb env row)
  | Ast.Neg a ->
      let ca = expr a in
      fun env row -> Eval.negate (ca env row)
  | Ast.Aggregate (_, _) as agg ->
      (* The group key string is rendered once here instead of once per
         row — the interpreter pays [expr_to_string] on every lookup. *)
      let key = Ast.expr_to_string agg in
      fun _env row -> Eval.aggregate_value key row

let rec predicate (p : Ast.predicate) : pred_fn =
  match p with
  | Ast.Ptrue -> fun _env _row -> true
  | Ast.Pfalse -> fun _env _row -> false
  | Ast.Is_null (e, negated) ->
      let ce = expr e in
      if negated then fun env row ->
        (match ce env row with Value.Null -> false | _ -> true)
      else fun env row ->
        (match ce env row with Value.Null -> true | _ -> false)
  | Ast.Not inner ->
      let ci = predicate inner in
      fun env row -> not (ci env row)
  | Ast.And (a, b) ->
      let ca = predicate a and cb = predicate b in
      fun env row -> ca env row && cb env row
  | Ast.Or (a, b) ->
      let ca = predicate a and cb = predicate b in
      fun env row -> ca env row || cb env row
  | Ast.Cmp (c, a, b) ->
      let ca = expr a and cb = expr b and f = cmp c in
      fun env row -> f (ca env row) (cb env row)

let interpret_expr e = fun env row -> Eval.expr env row e

let interpret_predicate p = fun env row -> Eval.predicate env row p
