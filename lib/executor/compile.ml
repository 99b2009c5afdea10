module Ast = Mood_sql.Ast
module Value = Mood_model.Value
module Operand = Mood_model.Operand
module Fm = Mood_funcmgr.Function_manager
module Collection = Mood_algebra.Collection

type expr_fn = Eval.env -> Eval.row -> Value.t
type pred_fn = Eval.env -> Eval.row -> bool

let item_value (item : Collection.item) = item.Collection.value

(* One compile-time pass: every [match] on AST constructors below runs
   once per plan; the returned closures dispatch on nothing but data. *)
let rec expr (e : Ast.expr) : expr_fn =
  match e with
  | Ast.Const v -> fun _env _row -> v
  | Ast.Path (var, []) -> fun _env row -> Eval.item_ref (Eval.lookup_var row var)
  | Ast.Path (var, path) ->
      fun env row ->
        begin
          match Eval.navigate env (item_value (Eval.lookup_var row var)) path with
          | [] -> Value.Null
          | [ v ] -> v
          | many -> Value.Set many
        end
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
      let ca = expr a and cb = expr b in
      let f =
        match op with
        | Ast.Add -> Operand.add
        | Ast.Sub -> Operand.sub
        | Ast.Mul -> Operand.mul
        | Ast.Div -> Operand.div
        | Ast.Mod -> Operand.modulo
      in
      let generic va vb =
        try Operand.to_value (f (Operand.of_value va) (Operand.of_value vb))
        with Operand.Type_error m -> Eval.eval_error "%s" m
      in
      (* Int32-range operands stay Int through the operand layer
         (Int64 arithmetic then 63-bit truncation agrees with native
         int arithmetic), so this fast path is exact — anything wider
         promotes to Long there and must take the generic route. Zero
         divisors also take the generic route so failure behavior is
         byte-identical to the interpreter's. *)
      let int_fast =
        match op with
        | Ast.Add -> fun x y -> Value.Int (x + y)
        | Ast.Sub -> fun x y -> Value.Int (x - y)
        | Ast.Mul -> fun x y -> Value.Int (x * y)
        | Ast.Div ->
            fun x y ->
              if y = 0 then generic (Value.Int x) (Value.Int y) else Value.Int (x / y)
        | Ast.Mod ->
            fun x y ->
              if y = 0 then generic (Value.Int x) (Value.Int y)
              else Value.Int (x mod y)
      in
      fun env row ->
        begin
          match (ca env row, cb env row) with
          | Value.Int x, Value.Int y
            when x >= -2147483648 && x <= 2147483647 && y >= -2147483648
                 && y <= 2147483647 ->
              int_fast x y
          | Value.Null, _ | _, Value.Null -> Value.Null
          | va, vb -> generic va vb
        end
  | Ast.Neg a ->
      let ca = expr a in
      fun env row ->
        begin
          match ca env row with
          | Value.Int i -> Value.Int (-i)
          | Value.Long l -> Value.Long (Int64.neg l)
          | Value.Float f -> Value.Float (-.f)
          | Value.Null -> Value.Null
          | v -> Eval.eval_error "cannot negate %s" (Value.to_string v)
        end
  | Ast.Aggregate (_, _) as agg ->
      (* The group key string is rendered once here instead of once per
         row — the interpreter pays [expr_to_string] on every lookup. *)
      let key = Ast.expr_to_string agg in
      fun _env row ->
        begin
          match Value.assoc_name "#agg" row with
          | Some item -> begin
              match Value.tuple_get item.Collection.value key with
              | Some v -> v
              | None -> Eval.eval_error "aggregate %s not computed for this group" key
            end
          | None -> Eval.eval_error "aggregate %s outside a grouped query" key
        end

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
  | Ast.Cmp (cmp, a, b) ->
      let ca = expr a and cb = expr b in
      let holds =
        match cmp with
        | Ast.Eq -> fun c -> c = 0
        | Ast.Ne -> fun c -> c <> 0
        | Ast.Lt -> fun c -> c < 0
        | Ast.Le -> fun c -> c <= 0
        | Ast.Gt -> fun c -> c > 0
        | Ast.Ge -> fun c -> c >= 0
      in
      (* Same Int32-range guard as the arithmetic fast path: inside it
         the interpreter's numeric comparison (via float) is exact and
         agrees with integer comparison. *)
      fun env row ->
        begin
          match (ca env row, cb env row) with
          | Value.Int x, Value.Int y
            when x >= -2147483648 && x <= 2147483647 && y >= -2147483648
                 && y <= 2147483647 ->
              holds (Int.compare x y)
          | va, vb -> Eval.cmp_values cmp va vb
        end

let interpret_expr e = fun env row -> Eval.expr env row e

let interpret_predicate p = fun env row -> Eval.predicate env row p
