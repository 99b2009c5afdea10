module Ast = Mood_sql.Ast
module Value = Mood_model.Value
module Operand = Mood_model.Operand
module Fm = Mood_funcmgr.Function_manager
module Collection = Mood_algebra.Collection

type expr_fn = Eval.env -> Eval.row -> Value.t
type pred_fn = Eval.env -> Eval.row -> bool

let item_value (item : Collection.item) = item.Collection.value

(* [Operand.int32_fast] is the one Int32 fast path. Everything outside
   it, zero divisors and results past Int32 included, takes [Eval]'s
   route, so values and failures are the interpreter's, byte for byte. *)
let arith op =
  let operator =
    match op with
    | Ast.Add -> `Add
    | Ast.Sub -> `Sub
    | Ast.Mul -> `Mul
    | Ast.Div -> `Div
    | Ast.Mod -> `Mod
  in
  Operand.int32_fast operator (Eval.arith op)

let cmp c = Operand.int32_compare (Eval.comparison_holds c) (Eval.cmp_values c)

(* Left to right, as [Eval] evaluates a call's arguments. *)
let rec eval_all env row = function
  | [] -> []
  | f :: rest ->
      let v = f env row in
      v :: eval_all env row rest

(* One compile-time pass: every [match] on AST constructors below runs
   once per plan; the returned closures dispatch on nothing but data. *)
let rec expr (e : Ast.expr) : expr_fn =
  match e with
  | Ast.Const v -> fun _env _row -> v
  | Ast.Path (var, []) -> fun _env row -> Eval.item_ref (Eval.lookup_var row var)
  | Ast.Path (var, path) -> fun env row -> Eval.path_value env (Eval.lookup_var row var) path
  | Ast.Method_call (var, path, name, args) ->
      let cargs = List.map expr args in
      let failed message = Eval.eval_error "%s" message in
      let non_object v =
        Eval.eval_error "method %s on non-object value %s" name (Value.to_string v)
      in
      if path = [] then fun env row ->
        (* The range variable's own object: the row holds its value, so
           the bound body runs on it and nothing is fetched again. *)
        let item = Eval.lookup_var row var in
        let args = eval_all env row cargs in
        begin
          match item.Collection.oid with
          | Some self -> (
              try
                Fm.invoke_stored env.Eval.funcs ~scope:env.Eval.scope ~self
                  ~value:item.Collection.value ~function_name:name ~args
              with Fm.Mood_exception { message; _ } -> failed message)
          | None -> non_object item.Collection.value
        end
      else fun env row ->
        let receivers = Eval.navigate env (item_value (Eval.lookup_var row var)) path in
        let args = eval_all env row cargs in
        let invoke = function
          | Value.Ref self -> (
              try Fm.invoke env.Eval.funcs ~scope:env.Eval.scope ~self ~function_name:name ~args
              with Fm.Mood_exception { message; _ } -> failed message)
          | other -> non_object other
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
