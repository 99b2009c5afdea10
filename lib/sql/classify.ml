module Value = Mood_model.Value
module Mtype = Mood_model.Mtype
module Catalog = Mood_catalog.Catalog

type side = { var : string; path : string list }

type classified =
  | Immediate of { target : side; cmp : Ast.comparison; constant : Value.t }
  | Immediate_method of {
      var : string;
      method_name : string;
      cmp : Ast.comparison;
      constant : Value.t;
    }
  | Path_selection of { target : side; cmp : Ast.comparison; constant : Value.t }
  | Explicit_join of { left : side; cmp : Ast.comparison; right : side }
  | Other of Ast.predicate

(* Is [path] on [cls] a chain of reference hops ending in an atomic
   attribute? Returns the number of reference hops. *)
let path_shape catalog cls path =
  match Catalog.resolve_path catalog ~class_name:cls ~path with
  | None -> None
  | Some steps -> begin
      match List.rev steps with
      | [] -> None
      | (_, last_ty) :: hops_rev ->
          if Mtype.is_atomic last_ty
             && List.for_all (fun (_, ty) -> Mtype.referenced_class ty <> None) hops_rev
          then Some (List.length hops_rev)
          else None
    end

let as_side = function
  | Ast.Path (var, path) -> Some { var; path }
  | Ast.Const _ | Ast.Method_call _ | Ast.Arith _ | Ast.Neg _ | Ast.Aggregate _ -> None

let classify ~catalog ~bindings p =
  let class_of var = List.assoc_opt var bindings in
  match p with
  | Ast.Cmp (cmp, lhs, rhs) -> begin
      (* Normalize constant-first comparisons. *)
      let cmp, lhs, rhs =
        match lhs, rhs with
        | Ast.Const _, (Ast.Path _ | Ast.Method_call _) -> (Ast.mirror cmp, rhs, lhs)
        | _, _ -> (cmp, lhs, rhs)
      in
      match lhs, rhs with
      | Ast.Path (var, path), Ast.Const constant -> begin
          match class_of var, path with
          | None, _ | _, [] -> Other p
          | Some cls, [ attr ] -> begin
              match Catalog.attribute_type catalog ~class_name:cls ~attr with
              | Some ty when Mtype.is_atomic ty ->
                  Immediate { target = { var; path }; cmp; constant }
              | Some _ -> Other p
              | None -> begin
                  (* Not an attribute: maybe a parameterless method. *)
                  match Catalog.find_method catalog ~class_name:cls ~method_name:attr with
                  | Some m when m.Catalog.parameters = [] ->
                      Immediate_method { var; method_name = attr; cmp; constant }
                  | Some _ | None -> Other p
                end
            end
          | Some cls, _ :: _ :: _ -> begin
              match path_shape catalog cls path with
              | Some _ -> Path_selection { target = { var; path }; cmp; constant }
              | None -> Other p
            end
        end
      | Ast.Method_call (var, [], name, []), Ast.Const constant when class_of var <> None ->
          Immediate_method { var; method_name = name; cmp; constant }
      | lhs, rhs -> begin
          match as_side lhs, as_side rhs with
          | Some left, Some right when not (String.equal left.var right.var) ->
              Explicit_join { left; cmp; right }
          | _, _ -> Other p
        end
    end
  | Ast.Is_null _ | Ast.And _ | Ast.Or _ | Ast.Not _ | Ast.Ptrue | Ast.Pfalse -> Other p

let classify_term ~catalog ~bindings term =
  List.map (classify ~catalog ~bindings) term

let predicate = function
  | Immediate { target; cmp; constant } | Path_selection { target; cmp; constant } ->
      Ast.Cmp (cmp, Ast.Path (target.var, target.path), Ast.Const constant)
  | Immediate_method { var; method_name; cmp; constant } ->
      Ast.Cmp (cmp, Ast.Method_call (var, [], method_name, []), Ast.Const constant)
  | Explicit_join { left; cmp; right } ->
      Ast.Cmp (cmp, Ast.Path (left.var, left.path), Ast.Path (right.var, right.path))
  | Other p -> p

let pp_side ppf { var; path } =
  Format.pp_print_string ppf (Ast.path_to_string var path)

let pp ppf = function
  | Immediate { target; cmp; constant } ->
      Format.fprintf ppf "Immediate(%a %s %a)" pp_side target
        (Ast.comparison_to_string cmp) Value.pp constant
  | Immediate_method { var; method_name; cmp; constant } ->
      Format.fprintf ppf "ImmediateMethod(%s.%s() %s %a)" var method_name
        (Ast.comparison_to_string cmp) Value.pp constant
  | Path_selection { target; cmp; constant } ->
      Format.fprintf ppf "Path(%a %s %a)" pp_side target (Ast.comparison_to_string cmp)
        Value.pp constant
  | Explicit_join { left; cmp; right } ->
      Format.fprintf ppf "Join(%a %s %a)" pp_side left (Ast.comparison_to_string cmp)
        pp_side right
  | Other p -> Format.fprintf ppf "Other(%a)" Ast.pp_predicate p
