module Ast = Mood_sql.Ast
module Value = Mood_model.Value
module Oid = Mood_model.Oid
module Operand = Mood_model.Operand
module Catalog = Mood_catalog.Catalog
module Fm = Mood_funcmgr.Function_manager
module Collection = Mood_algebra.Collection

exception Eval_error of string

let eval_error fmt = Format.kasprintf (fun m -> raise (Eval_error m)) fmt

type env = { catalog : Catalog.t; funcs : Fm.t; scope : Fm.scope }

type row = (string * Collection.item) list

let ctx env =
  { Collection.deref = (fun oid -> Catalog.get_object env.catalog oid);
    type_of =
      (fun oid ->
        match Catalog.class_of_object env.catalog oid with
        | Some info -> info.Catalog.class_id
        | None -> -1)
  }

(* Navigate one attribute from a value, dereferencing references.
   Multi-valued intermediate results fan out. *)
let rec navigate env value attrs =
  match attrs with
  | [] -> [ value ]
  | attr :: rest -> begin
      match value with
      | Value.Null -> []
      | Value.Ref oid -> begin
          match Catalog.get_object env.catalog oid with
          | Some target -> navigate env target (attr :: rest)
          | None -> []
        end
      | Value.Set elements | Value.List elements ->
          List.concat_map (fun e -> navigate env e (attr :: rest)) elements
      | Value.Tuple fields -> begin
          match Value.assoc_name attr fields with
          | Some v -> navigate env v rest
          | None -> eval_error "no attribute %s in %s" attr (Value.to_string value)
        end
      | Value.Int _ | Value.Long _ | Value.Float _ | Value.Str _ | Value.Char _
      | Value.Bool _ ->
          eval_error "cannot navigate attribute %s of atomic value" attr
    end

let item_value (item : Collection.item) = item.Collection.value

let item_ref (item : Collection.item) =
  match item.Collection.oid with
  | Some oid -> Value.Ref oid
  | None -> item.Collection.value

let lookup_var row var =
  match Value.assoc_name var row with
  | Some item -> item
  | None -> eval_error "unbound range variable %s" var

(* A path reaching nothing is [Null], several values a [Set]. *)
let path_value env item path =
  match navigate env (item_value item) path with
  | [] -> Value.Null
  | [ v ] -> v
  | many -> Value.Set many

(* NULL propagates; otherwise the [OperandDataType] layer computes,
   with its run-time type checks. The operator is resolved once, by
   [arith op]. *)
let arith op =
  let f =
    match op with
    | Ast.Add -> Operand.add
    | Ast.Sub -> Operand.sub
    | Ast.Mul -> Operand.mul
    | Ast.Div -> Operand.div
    | Ast.Mod -> Operand.modulo
  in
  fun va vb ->
    match va, vb with
    | Value.Null, _ | _, Value.Null -> Value.Null
    | _, _ -> (
        try Operand.to_value (f (Operand.of_value va) (Operand.of_value vb))
        with Operand.Type_error m -> eval_error "%s" m)

let negate = function
  | Value.Int i -> Value.Int (-i)
  | Value.Long l -> Value.Long (Int64.neg l)
  | Value.Float f -> Value.Float (-.f)
  | Value.Null -> Value.Null
  | v -> eval_error "cannot negate %s" (Value.to_string v)

(* Aggregate values are precomputed per group by the executor's GROUP
   stage and carried in the row's [#agg] pseudo-binding. *)
let aggregate_value key row =
  match Value.assoc_name "#agg" row with
  | Some item -> begin
      match Value.tuple_get item.Collection.value key with
      | Some v -> v
      | None -> eval_error "aggregate %s not computed for this group" key
    end
  | None -> eval_error "aggregate %s outside a grouped query" key

let rec expr env row e =
  match e with
  | Ast.Const v -> v
  | Ast.Path (var, []) -> item_ref (lookup_var row var)
  | Ast.Path (var, path) -> path_value env (lookup_var row var) path
  | Ast.Method_call (var, path, name, args) -> begin
      let item = lookup_var row var in
      let receivers =
        if path = [] then [ item_ref item ] else navigate env (item_value item) path
      in
      let arg_values = List.map (expr env row) args in
      let invoke receiver =
        match receiver with
        | Value.Ref oid -> begin
            try Fm.invoke env.funcs ~scope:env.scope ~self:oid ~function_name:name ~args:arg_values
            with Fm.Mood_exception { message; _ } -> eval_error "%s" message
          end
        | other -> begin
            (* Method on a transient value: resolve by the variable's
               static class via the binding row is unavailable here;
               transient receivers carry no class, so this fails. *)
            eval_error "method %s on non-object value %s" name (Value.to_string other)
          end
      in
      match receivers with
      | [] -> Value.Null
      | [ r ] -> invoke r
      | many -> Value.Set (List.map invoke many)
    end
  | Ast.Arith (op, a, b) ->
      let va = expr env row a and vb = expr env row b in
      arith op va vb
  | Ast.Neg a -> negate (expr env row a)
  | Ast.Aggregate (_, _) as agg -> aggregate_value (Ast.expr_to_string agg) row

let compare_values a b =
  match a, b with
  | Value.Null, _ | _, Value.Null -> None
  | Value.Ref x, Value.Ref y -> Some (Oid.compare x y)
  | (Value.Int _ | Value.Long _ | Value.Float _), (Value.Int _ | Value.Long _ | Value.Float _)
  | Value.Str _, (Value.Str _ | Value.Char _)
  | Value.Char _, (Value.Str _ | Value.Char _)
  | Value.Bool _, Value.Bool _ -> begin
      match a, b with
      | Value.Str s, Value.Char c -> Some (String.compare s (String.make 1 c))
      | Value.Char c, Value.Str s -> Some (String.compare (String.make 1 c) s)
      | _, _ -> Some (Value.compare a b)
    end
  | Value.Tuple _, Value.Tuple _ | Value.Set _, Value.Set _ | Value.List _, Value.List _
    ->
      Some (Value.compare a b)
  | _, _ -> None

(* Resolved once by [comparison_holds cmp]. *)
let comparison_holds = function
  | Ast.Eq -> fun c -> c = 0
  | Ast.Ne -> fun c -> c <> 0
  | Ast.Lt -> fun c -> c < 0
  | Ast.Le -> fun c -> c <= 0
  | Ast.Gt -> fun c -> c > 0
  | Ast.Ge -> fun c -> c >= 0

(* Existential semantics for multi-valued sides. *)
let cmp_values cmp va vb =
  let elements = function
    | Value.Set xs | Value.List xs -> xs
    | v -> [ v ]
  in
  match va, vb with
  | (Value.Set _ | Value.List _), _ | _, (Value.Set _ | Value.List _) ->
      List.exists
        (fun x ->
          List.exists
            (fun y ->
              match compare_values x y with
              | Some c -> comparison_holds cmp c
              | None -> false)
            (elements vb))
        (elements va)
  | _, _ -> begin
      match compare_values va vb with
      | Some c -> comparison_holds cmp c
      | None -> false
    end

let rec predicate env row p =
  match p with
  | Ast.Ptrue -> true
  | Ast.Pfalse -> false
  | Ast.Is_null (e, negated) ->
      let is_null = expr env row e = Value.Null in
      if negated then not is_null else is_null
  | Ast.Not inner -> not (predicate env row inner)
  | Ast.And (a, b) -> predicate env row a && predicate env row b
  | Ast.Or (a, b) -> predicate env row a || predicate env row b
  | Ast.Cmp (cmp, a, b) -> cmp_values cmp (expr env row a) (expr env row b)
