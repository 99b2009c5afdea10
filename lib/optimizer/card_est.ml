module Ast = Mood_sql.Ast
module Value = Mood_model.Value
module Stats = Mood_cost.Stats

let card (env : Dicts.env) cls = float_of_int (Stats.cardinality env.Dicts.stats cls)

(* var -> class bindings visible in a subtree. Named objects bind a
   variable without a statically known class; they are simply absent
   and their predicates take the default selectivity. *)
let rec bindings (node : Plan.node) acc =
  match node with
  | Plan.Bind { class_name; var; _ }
  | Plan.Path_ind_sel { class_name; var; _ }
  | Plan.Vscan { class_name; var; _ } ->
      (var, class_name) :: acc
  | Plan.Named_obj _ -> acc
  | Plan.Ind_sel { source; _ }
  | Plan.Select { source; _ }
  | Plan.Project { source; _ }
  | Plan.Group { source; _ }
  | Plan.Sort { source; _ } ->
      bindings source acc
  | Plan.Join { left; right; _ } -> bindings left (bindings right acc)
  | Plan.Union nodes -> List.fold_left (fun acc n -> bindings n acc) acc nodes

let flip = function
  | Ast.Eq -> Ast.Eq
  | Ast.Ne -> Ast.Ne
  | Ast.Lt -> Ast.Gt
  | Ast.Le -> Ast.Ge
  | Ast.Gt -> Ast.Lt
  | Ast.Ge -> Ast.Le

(* Selectivity of a row predicate under the visible bindings. Atomic
   comparisons against constants go through the Section 4.1 formulas;
   multi-hop paths through the path-selectivity formula; anything else
   takes the 1/3 default. *)
let rec pred_sel env scope (p : Ast.predicate) =
  let clamp f = Float.max 0. (Float.min 1. f) in
  match p with
  | Ast.Ptrue -> 1.
  | Ast.Pfalse -> 0.
  | Ast.And (a, b) -> pred_sel env scope a *. pred_sel env scope b
  | Ast.Or (a, b) ->
      let sa = pred_sel env scope a and sb = pred_sel env scope b in
      clamp (sa +. sb -. (sa *. sb))
  | Ast.Not inner -> clamp (1. -. pred_sel env scope inner)
  | Ast.Is_null (Ast.Path (v, [ attr ]), negated) -> begin
      match List.assoc_opt v scope with
      | None -> Dicts.default_other_selectivity
      | Some cls -> begin
          match Stats.attr_stats env.Dicts.stats ~cls ~attr with
          | Some s -> clamp (if negated then s.Stats.notnull else 1. -. s.Stats.notnull)
          | None -> Dicts.default_other_selectivity
        end
    end
  | Ast.Cmp (cmp, Ast.Path (v, path), Ast.Const c)
  | Ast.Cmp ((Ast.Eq | Ast.Ne) as cmp, Ast.Const c, Ast.Path (v, path)) ->
      path_cmp_sel env scope v path cmp c
  | Ast.Cmp (cmp, Ast.Const c, Ast.Path (v, path)) ->
      path_cmp_sel env scope v path (flip cmp) c
  | Ast.Cmp _ | Ast.Is_null _ -> Dicts.default_other_selectivity

and path_cmp_sel env scope v path cmp c =
  match List.assoc_opt v scope, path with
  | None, _ | _, [] -> Dicts.default_other_selectivity
  | Some cls, [ attr ] -> Dicts.atomic_selectivity env ~cls ~attr cmp c
  | Some cls, path -> begin
      match Dicts.path_entry env ~var:v ~cls ~path ~cmp ~constant:c ~k:(card env cls) with
      | Some pe -> pe.Dicts.p_selectivity
      | None -> Dicts.default_other_selectivity
    end

(* The pointer shape [lv.path = rv.self] of a join predicate. *)
let pointer_pred = function
  | Ast.Cmp (Ast.Eq, Ast.Path (lv, (_ :: _ as path)), Ast.Path (rv, []))
  | Ast.Cmp (Ast.Eq, Ast.Path (rv, []), Ast.Path (lv, (_ :: _ as path))) ->
      Some (lv, path, rv)
  | _ -> None

(* Expected matches of a pointer join: each of the [k_l] left rows
   fans out along the reference path, and a target survives with
   probability [k_r / |C_r|] (the fraction of the right class the right
   subtree retained). *)
let pointer_join_est env scope ~k_l ~k_r lv path rv =
  match List.assoc_opt lv scope with
  | None -> None
  | Some lcls ->
      let rec fans cls = function
        | [] -> Some 1.
        | attr :: rest -> begin
            match Stats.ref_stats env.Dicts.stats ~cls ~attr with
            | Some r -> Option.map (fun f -> r.Stats.fan *. f) (fans r.Stats.target rest)
            | None -> None
          end
      in
      Option.map
        (fun fan_product ->
          let retained =
            match List.assoc_opt rv scope with
            | Some rcls when card env rcls > 0. ->
                Float.min 1. (k_r /. card env rcls)
            | Some _ | None -> 1.
          in
          k_l *. fan_product *. retained)
        (fans lcls path)

(* Rows out of a GROUP BY over [input] rows whose variables range over
   [scope]: one group without keys; otherwise the product of the
   grouping attributes' distinct counts, capped by the input size
   (unresolvable keys contribute nothing, so the cap applies). HAVING
   then keeps its selectivity's share. *)
let group_estimate env scope ~input by having =
  let groups =
    if by = [] then Float.min 1. input
    else begin
      let dist_of = function
        | Ast.Path (v, [ attr ]) -> begin
            match List.assoc_opt v scope with
            | None -> None
            | Some cls ->
                Option.map
                  (fun (s : Stats.attr_stats) -> float_of_int (max 1 s.Stats.dist))
                  (Stats.attr_stats env.Dicts.stats ~cls ~attr)
          end
        | _ -> None
      in
      let product =
        List.fold_left
          (fun acc e -> match dist_of e with Some d -> acc *. d | None -> acc)
          1. by
      in
      Float.min input product
    end
  in
  let having_sel = match having with None -> 1. | Some p -> pred_sel env scope p in
  groups *. having_sel

let rec estimate env (node : Plan.node) =
  match node with
  | Plan.Bind { class_name; minus; _ } ->
      (* Class cardinalities cover the deep extent; MINUS subtracts the
         excluded subtrees'. *)
      let excluded = List.fold_left (fun acc m -> acc +. card env m) 0. minus in
      Float.max 0. (card env class_name -. excluded)
  | Plan.Named_obj _ -> 1.
  | Plan.Vscan { class_name; var; minus; pred; by; having; aggregates; every = _ } ->
      let excluded = List.fold_left (fun acc m -> acc +. card env m) 0. minus in
      let base = Float.max 0. (card env class_name -. excluded) in
      let scope = [ (var, class_name) ] in
      let filtered =
        match pred with
        | None -> base
        | Some p -> base *. pred_sel env scope p
      in
      (* A fused GROUP BY takes the Group estimate over the filter. *)
      if by = [] && aggregates = [] then filtered
      else group_estimate env scope ~input:filtered by having
  | Plan.Ind_sel { source; preds } ->
      let scope = bindings source [] in
      let sel (p : Plan.indexed_pred) =
        match scope with
        | (_, cls) :: _ ->
            Dicts.atomic_selectivity env ~cls ~attr:p.Plan.ip_attr p.Plan.ip_cmp
              p.Plan.ip_constant
        | [] -> Dicts.default_other_selectivity
      in
      List.fold_left (fun acc p -> acc *. sel p) (estimate env source) preds
  | Plan.Path_ind_sel { class_name; var; path; cmp; constant } ->
      let k = card env class_name in
      let s =
        match Dicts.path_entry env ~var ~cls:class_name ~path ~cmp ~constant ~k with
        | Some pe -> pe.Dicts.p_selectivity
        | None -> Dicts.default_other_selectivity
      in
      k *. s
  | Plan.Select { source; pred; _ } ->
      estimate env source *. pred_sel env (bindings source []) pred
  | Plan.Join { left; right; pred; method_ = _ } -> begin
      let k_l = estimate env left and k_r = estimate env right in
      let scope = bindings node [] in
      let fallback () = k_l *. k_r *. pred_sel env scope pred in
      match pointer_pred pred with
      | Some (lv, path, rv) -> begin
          match pointer_join_est env scope ~k_l ~k_r lv path rv with
          | Some est -> est
          | None -> fallback ()
        end
      | None -> fallback ()
    end
  | Plan.Project { source; _ } | Plan.Sort { source; _ } -> estimate env source
  | Plan.Group { source; by; having; aggregates = _ } ->
      group_estimate env (bindings source []) ~input:(estimate env source) by having
  | Plan.Union nodes -> List.fold_left (fun acc n -> acc +. estimate env n) 0. nodes
