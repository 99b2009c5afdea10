module Mtype = Mood_model.Mtype
module Value = Mood_model.Value
module Catalog = Mood_catalog.Catalog

exception Type_error of string

let type_error fmt = Format.kasprintf (fun m -> raise (Type_error m)) fmt

let constant_type = function
  | Value.Int _ -> Some (Mtype.Basic Mtype.Integer)
  | Value.Long _ -> Some (Mtype.Basic Mtype.Long_integer)
  | Value.Float _ -> Some (Mtype.Basic Mtype.Float)
  | Value.Str s -> Some (Mtype.Basic (Mtype.String (max 1 (String.length s))))
  | Value.Char _ -> Some (Mtype.Basic Mtype.Char)
  | Value.Bool _ -> Some (Mtype.Basic Mtype.Boolean)
  | Value.Null | Value.Tuple _ | Value.Set _ | Value.List _ | Value.Ref _ -> None

let numeric = function
  | Some (Mtype.Basic (Mtype.Integer | Mtype.Float | Mtype.Long_integer)) -> true
  | Some (Mtype.Basic (Mtype.String _ | Mtype.Char | Mtype.Boolean))
  | Some (Mtype.Tuple _ | Mtype.Set _ | Mtype.List _ | Mtype.Reference _)
  | None ->
      false

let rec expr_type ~catalog ~bindings e =
  match e with
  | Ast.Const v -> constant_type v
  | Ast.Path (var, path) -> begin
      match List.assoc_opt var bindings with
      | None -> type_error "unbound range variable %s" var
      | Some cls -> begin
          match path with
          | [] -> None (* the object itself *)
          | _ -> begin
              match Catalog.resolve_path catalog ~class_name:cls ~path with
              | None ->
                  type_error "path %s does not exist on class %s"
                    (Ast.path_to_string var path) cls
              | Some steps -> begin
                  match List.rev steps with
                  | (_, ty) :: _ -> Some ty
                  | [] -> None
                end
            end
        end
    end
  | Ast.Method_call (var, path, name, args) -> begin
      match List.assoc_opt var bindings with
      | None -> type_error "unbound range variable %s" var
      | Some cls ->
          let receiver_class =
            if path = [] then cls
            else begin
              match Catalog.resolve_path catalog ~class_name:cls ~path with
              | None ->
                  type_error "path %s does not exist on class %s"
                    (Ast.path_to_string var path) cls
              | Some steps -> begin
                  match List.rev steps with
                  | (_, ty) :: _ -> begin
                      match Mtype.referenced_class ty with
                      | Some target -> target
                      | None ->
                          type_error "method %s applied to non-object path %s" name
                            (Ast.path_to_string var path)
                    end
                  | [] -> cls
                end
            end
          in
          begin
            match Catalog.find_method catalog ~class_name:receiver_class ~method_name:name with
            | None -> type_error "class %s has no method %s" receiver_class name
            | Some m ->
                if List.length m.Catalog.parameters <> List.length args then
                  type_error "method %s.%s expects %d argument(s)" receiver_class name
                    (List.length m.Catalog.parameters);
                List.iter
                  (fun arg -> ignore (expr_type ~catalog ~bindings arg))
                  args;
                Some m.Catalog.return_type
          end
    end
  | Ast.Arith (_, a, b) ->
      let ta = expr_type ~catalog ~bindings a and tb = expr_type ~catalog ~bindings b in
      if not (numeric ta) then
        type_error "non-numeric operand %s in arithmetic" (Ast.expr_to_string a);
      if not (numeric tb) then
        type_error "non-numeric operand %s in arithmetic" (Ast.expr_to_string b);
      if ta = Some (Mtype.Basic Mtype.Float) || tb = Some (Mtype.Basic Mtype.Float) then
        Some (Mtype.Basic Mtype.Float)
      else ta
  | Ast.Neg a ->
      let ta = expr_type ~catalog ~bindings a in
      if not (numeric ta) then
        type_error "non-numeric operand %s under negation" (Ast.expr_to_string a);
      ta
  | Ast.Aggregate (fn, inner) -> begin
      let inner_ty = Option.map (expr_type ~catalog ~bindings) inner in
      match fn, inner_ty with
      | Ast.Count, _ -> Some (Mtype.Basic Mtype.Integer)
      | Ast.Avg, Some ty ->
          if not (numeric ty) then
            type_error "AVG requires a numeric argument";
          Some (Mtype.Basic Mtype.Float)
      | Ast.Sum, Some ty ->
          if not (numeric ty) then
            type_error "SUM requires a numeric argument";
          ty
      | (Ast.Min | Ast.Max), Some ty -> ty
      | (Ast.Sum | Ast.Avg | Ast.Min | Ast.Max), None ->
          type_error "%s requires an argument" (Ast.agg_fn_to_string fn)
    end

let comparable ta tb =
  match ta, tb with
  | None, _ | _, None -> true (* object comparisons (identity) or NULL *)
  | Some a, Some b -> begin
      match a, b with
      | Mtype.Basic (Mtype.Integer | Mtype.Float | Mtype.Long_integer),
        Mtype.Basic (Mtype.Integer | Mtype.Float | Mtype.Long_integer) ->
          true
      | Mtype.Basic (Mtype.String _), Mtype.Basic (Mtype.String _ | Mtype.Char)
      | Mtype.Basic Mtype.Char, Mtype.Basic (Mtype.String _ | Mtype.Char) ->
          true
      | Mtype.Basic Mtype.Boolean, Mtype.Basic Mtype.Boolean -> true
      | Mtype.Reference _, Mtype.Reference _ -> true
      | _, _ -> Mtype.equal a b
    end

let rec check_predicate ~catalog ~bindings p =
  match p with
  | Ast.Ptrue | Ast.Pfalse -> ()
  | Ast.Not inner -> check_predicate ~catalog ~bindings inner
  | Ast.And (a, b) | Ast.Or (a, b) ->
      check_predicate ~catalog ~bindings a;
      check_predicate ~catalog ~bindings b
  | Ast.Is_null (e, _) -> ignore (expr_type ~catalog ~bindings e)
  | Ast.Cmp (_, a, b) ->
      let ta = expr_type ~catalog ~bindings a and tb = expr_type ~catalog ~bindings b in
      if not (comparable ta tb) then
        type_error "incomparable operands: %s vs %s" (Ast.expr_to_string a)
          (Ast.expr_to_string b)

let check_query ~catalog (q : Ast.query) =
  let bindings =
    List.map
      (fun (item : Ast.from_item) ->
        if item.Ast.named then begin
          (* FROM NAMED x v: the binding's class is the named object's. *)
          match Catalog.named_object catalog item.Ast.class_name with
          | None -> type_error "unknown named object %s in FROM" item.Ast.class_name
          | Some oid -> begin
              match Catalog.class_of_object catalog oid with
              | Some info -> (item.Ast.var, info.Catalog.class_name)
              | None -> type_error "named object %s is dangling" item.Ast.class_name
            end
        end
        else begin
          begin
            match Catalog.find_class catalog item.Ast.class_name with
            | None -> type_error "unknown class %s in FROM" item.Ast.class_name
            | Some info ->
                if info.Catalog.kind <> Catalog.Class then
                  type_error "%s is a type, not a class: it has no extent"
                    item.Ast.class_name
          end;
          List.iter
            (fun minus ->
              if not (Catalog.is_subclass_of catalog ~sub:minus ~super:item.Ast.class_name)
              then
                type_error "%s is not a subclass of %s (FROM minus)" minus
                  item.Ast.class_name)
            item.Ast.minus;
          (item.Ast.var, item.Ast.class_name)
        end)
      q.Ast.from
  in
  let vars = List.map fst bindings in
  if List.length (List.sort_uniq String.compare vars) <> List.length vars then
    type_error "duplicate range variable in FROM";
  List.iter (fun (item : Ast.select_item) -> ignore (expr_type ~catalog ~bindings item.Ast.expr)) q.Ast.select;
  Option.iter
    (fun where ->
      if Ast.predicate_aggregates where <> [] then
        type_error "aggregates are not allowed in WHERE (use HAVING)";
      check_predicate ~catalog ~bindings where)
    q.Ast.where;
  List.iter
    (fun e ->
      if Ast.aggregates_in e <> [] then type_error "aggregates are not allowed in GROUP BY";
      ignore (expr_type ~catalog ~bindings e))
    q.Ast.group_by;
  Option.iter (check_predicate ~catalog ~bindings) q.Ast.having;
  List.iter (fun (e, _) -> ignore (expr_type ~catalog ~bindings e)) q.Ast.order_by;
  bindings

let check_statement ~catalog stmt =
  match stmt with
  | Ast.Select q | Ast.Explain { ex_query = q; _ } -> ignore (check_query ~catalog q)
  | Ast.Set _ -> ()
  | Ast.Create_class { cc_name; cc_supers; _ } ->
      if Catalog.find_class catalog cc_name <> None then
        type_error "class %s already exists" cc_name;
      List.iter
        (fun s ->
          if Catalog.find_class catalog s = None then type_error "unknown superclass %s" s)
        cc_supers
  | Ast.Create_index { ci_class; ci_attr; _ } -> begin
      match Catalog.attribute_type catalog ~class_name:ci_class ~attr:ci_attr with
      | Some ty when Mtype.is_atomic ty -> ()
      | Some _ -> type_error "cannot index non-atomic attribute %s.%s" ci_class ci_attr
      | None -> type_error "class %s has no attribute %s" ci_class ci_attr
    end
  | Ast.New_object { no_class; no_values } -> begin
      match Catalog.find_class catalog no_class with
      | None -> type_error "unknown class %s" no_class
      | Some _ ->
          let attrs = Catalog.attributes catalog no_class in
          if List.length no_values > List.length attrs then
            type_error "new %s: %d values for %d attributes" no_class
              (List.length no_values) (List.length attrs)
    end
  | Ast.Update { up_class; up_var; up_set; up_where } -> begin
      match Catalog.find_class catalog up_class with
      | None -> type_error "unknown class %s" up_class
      | Some _ ->
          let bindings = [ (up_var, up_class) ] in
          List.iter
            (fun (attr, e) ->
              begin
                match Catalog.attribute_type catalog ~class_name:up_class ~attr with
                | None -> type_error "class %s has no attribute %s" up_class attr
                | Some _ -> ()
              end;
              ignore (expr_type ~catalog ~bindings e))
            up_set;
          Option.iter (check_predicate ~catalog ~bindings) up_where
    end
  | Ast.Delete { de_class; de_var; de_where } -> begin
      match Catalog.find_class catalog de_class with
      | None -> type_error "unknown class %s" de_class
      | Some _ ->
          Option.iter (check_predicate ~catalog ~bindings:[ (de_var, de_class) ]) de_where
    end
  | Ast.Define_method { dm_class; _ } | Ast.Drop_method { xm_class = dm_class; _ } ->
      if Catalog.find_class catalog dm_class = None then
        type_error "unknown class %s" dm_class
  | Ast.Name_object { nm_name; nm_query } ->
      if Catalog.named_object catalog nm_name <> None then
        type_error "object name %s already in use" nm_name;
      ignore (check_query ~catalog nm_query)
  | Ast.Drop_name name ->
      if Catalog.named_object catalog name = None then
        type_error "unknown named object %s" name
  | Ast.Alter_class_layout { al_class; al_layout = _ } -> begin
      match Catalog.find_class catalog al_class with
      | None -> type_error "unknown class %s" al_class
      | Some info ->
          if info.Catalog.kind <> Catalog.Class then
            type_error "%s is a type, not a class" al_class
    end
