module Ast = Mood_sql.Ast
module Value = Mood_model.Value
module Join_cost = Mood_cost.Join_cost

type indexed_pred = {
  ip_attr : string;
  ip_cmp : Ast.comparison;
  ip_constant : Value.t;
  ip_kind : [ `Btree | `Hash ];
}

type node =
  | Bind of { class_name : string; var : string; every : bool; minus : string list }
  | Named_obj of { name : string; var : string }
  | Ind_sel of { source : node; preds : indexed_pred list }
  | Path_ind_sel of {
      class_name : string;
      var : string;
      path : string list;
      cmp : Ast.comparison;
      constant : Value.t;
    }
  | Select of { source : node; var : string; pred : Ast.predicate }
  | Vscan of {
      class_name : string;
      var : string;
      every : bool;
      minus : string list;
      pred : Ast.predicate option;
      by : Ast.expr list;
      having : Ast.predicate option;
      aggregates : Ast.expr list;
    }
  | Join of {
      left : node;
      right : node;
      method_ : Join_cost.method_choice;
      pred : Ast.predicate;
    }
  | Project of { source : node; items : Ast.select_item list }
  | Group of {
      source : node;
      by : Ast.expr list;
      having : Ast.predicate option;
      aggregates : Ast.expr list;
    }
  | Sort of { source : node; keys : (Ast.expr * Ast.order_direction) list }
  | Union of node list

let vars node =
  let seen = ref [] in
  let add v = if not (List.mem v !seen) then seen := v :: !seen in
  let rec walk = function
    | Bind { var; _ } | Path_ind_sel { var; _ } | Named_obj { var; _ }
    | Vscan { var; _ } ->
        add var
    | Ind_sel { source; _ } | Select { source; _ } | Project { source; _ }
    | Group { source; _ } | Sort { source; _ } ->
        walk source
    | Join { left; right; _ } ->
        walk left;
        walk right
    | Union nodes -> List.iter walk nodes
  in
  walk node;
  List.rev !seen

let rec var_classes = function
  | Bind { class_name; var; _ } | Path_ind_sel { class_name; var; _ } | Vscan { class_name; var; _ }
    ->
      [ (var, class_name) ]
  | Named_obj _ -> []
  | Ind_sel { source; _ } | Select { source; _ } | Project { source; _ } | Group { source; _ }
  | Sort { source; _ } ->
      var_classes source
  | Join { left; right; _ } -> var_classes left @ var_classes right
  | Union nodes -> List.concat_map var_classes nodes

type reads = string -> string list option

(* A variable's reads only widen: [None] absorbs every attribute. *)
let reads_of ~whole exprs preds =
  if whole then fun _ -> None
  else begin
    let seen = Hashtbl.create 8 in
    let add var attr =
      match Hashtbl.find_opt seen var, attr with
      | Some None, _ -> ()
      | _, None -> Hashtbl.replace seen var None
      | None, Some a -> Hashtbl.replace seen var (Some [ a ])
      | Some (Some attrs), Some a ->
          if not (List.mem a attrs) then Hashtbl.replace seen var (Some (attrs @ [ a ]))
    in
    let rec expr = function
      | Ast.Const _ | Ast.Aggregate (_, None) -> ()
      | Ast.Path (var, []) -> add var None
      | Ast.Path (var, attr :: _) -> add var (Some attr)
      | Ast.Method_call (var, _, _, args) ->
          add var None;
          List.iter expr args
      | Ast.Arith (_, a, b) ->
          expr a;
          expr b
      | Ast.Neg e | Ast.Aggregate (_, Some e) -> expr e
    and pred = function
      | Ast.Cmp (_, a, b) ->
          expr a;
          expr b
      | Ast.Is_null (e, _) -> expr e
      | Ast.And (a, b) | Ast.Or (a, b) ->
          pred a;
          pred b
      | Ast.Not p -> pred p
      | Ast.Ptrue | Ast.Pfalse -> ()
    in
    List.iter expr exprs;
    List.iter pred preds;
    fun var -> Option.value ~default:(Some []) (Hashtbl.find_opt seen var)
  end

let reads node =
  let exprs = ref [] and preds = ref [] in
  let add_exprs es = exprs := es @ !exprs and add_pred p = preds := p :: !preds in
  let rec walk = function
    | Bind _ | Named_obj _ | Path_ind_sel _ -> ()
    | Ind_sel { source; _ } -> walk source
    | Select { source; pred; _ } ->
        add_pred pred;
        walk source
    | Vscan { pred; by; having; aggregates; _ } ->
        Option.iter add_pred pred;
        Option.iter add_pred having;
        add_exprs (by @ aggregates)
    | Join { left; right; pred; _ } ->
        add_pred pred;
        walk left;
        walk right
    | Project { source; items } ->
        add_exprs (List.map (fun (i : Ast.select_item) -> i.Ast.expr) items);
        walk source
    | Group { source; by; having; aggregates } ->
        Option.iter add_pred having;
        add_exprs (by @ aggregates);
        walk source
    | Sort { source; keys } ->
        add_exprs (List.map fst keys);
        walk source
    | Union nodes -> List.iter walk nodes
  in
  walk node;
  let rec whole = function
    | Sort { source; _ } -> whole source
    | Project _ | Group _ -> false
    | Bind _ | Named_obj _ | Ind_sel _ | Path_ind_sel _ | Select _ | Vscan _ | Join _ | Union _ ->
        true
  in
  reads_of ~whole:(whole node) !exprs !preds

(* Render expressions with bare range variables as [var.self] — the
   spelling the paper uses inside join predicates. *)
let rec expr_str = function
  | Ast.Const v -> Value.to_string v
  | Ast.Path (var, []) -> var ^ ".self"
  | Ast.Path (var, path) -> Ast.path_to_string var path
  | Ast.Method_call (var, path, name, args) ->
      Printf.sprintf "%s.%s(%s)"
        (Ast.path_to_string var path)
        name
        (String.concat ", " (List.map expr_str args))
  | Ast.Arith (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (expr_str a) (Ast.arith_to_string op) (expr_str b)
  | Ast.Neg e -> Printf.sprintf "(-%s)" (expr_str e)
  | Ast.Aggregate (fn, None) -> Ast.agg_fn_to_string fn ^ "(*)"
  | Ast.Aggregate (fn, Some e) ->
      Printf.sprintf "%s(%s)" (Ast.agg_fn_to_string fn) (expr_str e)

let rec pred_str = function
  | Ast.Cmp (op, a, Ast.Const (Value.Str s)) ->
      Printf.sprintf "%s %s '%s'" (expr_str a) (Ast.comparison_to_string op) s
  | Ast.Cmp (op, a, b) ->
      Printf.sprintf "%s %s %s" (expr_str a) (Ast.comparison_to_string op) (expr_str b)
  | Ast.Is_null (e, negated) ->
      Printf.sprintf "%s IS %sNULL" (expr_str e) (if negated then "NOT " else "")
  | Ast.And (a, b) -> Printf.sprintf "%s AND %s" (pred_str a) (pred_str b)
  | Ast.Or (a, b) -> Printf.sprintf "(%s OR %s)" (pred_str a) (pred_str b)
  | Ast.Not p -> Printf.sprintf "NOT (%s)" (pred_str p)
  | Ast.Ptrue -> "TRUE"
  | Ast.Pfalse -> "FALSE"

let method_str m = Format.asprintf "%a" Join_cost.pp_method m

let indexed_pred_str p =
  Printf.sprintf "%s %s %s [%s index]" p.ip_attr
    (Ast.comparison_to_string p.ip_cmp)
    (Value.to_string p.ip_constant)
    (match p.ip_kind with `Btree -> "B+-tree" | `Hash -> "hash")

(* Plain recursive rendering with indentation. *)
let rec render_node ~indent ~name node =
  let pad = String.make indent ' ' in
  match node with
  | Bind { class_name; var; every; minus } ->
      let scope =
        (if every then "EVERY " else "")
        ^ class_name
        ^ String.concat "" (List.map (fun m -> " - " ^ m) minus)
      in
      Printf.sprintf "%sBIND(%s, %s)" pad scope var
  | Named_obj { name; var } -> Printf.sprintf "%sNAMED(%s, %s)" pad name var
  | Ind_sel { source; preds } ->
      Printf.sprintf "%sINDSEL(\n%s,\n%s%s )" pad
        (render_node ~indent:(indent + 2) ~name source)
        (String.make (indent + 2) ' ')
        (String.concat ", " (List.map indexed_pred_str preds))
  | Path_ind_sel { class_name; var; path; cmp; constant } ->
      Printf.sprintf "%sPATH_INDSEL(%s, %s, %s %s %s)" pad class_name var
        (String.concat "." (var :: path))
        (Ast.comparison_to_string cmp)
        (Value.to_string constant)
  | Select { source; pred; var = _ } ->
      Printf.sprintf "%sSELECT(%s, %s)" pad
        (String.trim (render_node ~indent:0 ~name source))
        (pred_str pred)
  | Vscan { class_name; var; every; minus; pred; by; having; aggregates } ->
      let scope =
        (if every then "EVERY " else "")
        ^ class_name
        ^ String.concat "" (List.map (fun m -> " - " ^ m) minus)
      in
      let filter = match pred with Some p -> ", " ^ pred_str p | None -> "" in
      let keys =
        match by with
        | [] -> ""
        | es -> ", BY " ^ String.concat ", " (List.map expr_str es)
      in
      let aggs =
        match aggregates with
        | [] -> ""
        | es -> ", [" ^ String.concat ", " (List.map expr_str es) ^ "]"
      in
      let having = match having with Some h -> ", HAVING " ^ pred_str h | None -> "" in
      Printf.sprintf "%sVSCAN(%s, %s%s%s%s%s)" pad scope var filter keys aggs having
  | Join { left; right; method_; pred } ->
      Printf.sprintf "%sJOIN(\n%s,\n%s,\n%s%s,\n%s%s )" pad
        (render_left ~indent:(indent + 2) ~name left)
        (render_node ~indent:(indent + 2) ~name right)
        (String.make (indent + 2) ' ')
        (method_str method_)
        (String.make (indent + 2) ' ')
        (pred_str pred)
  | Project { source; items } ->
      let item_str (i : Ast.select_item) =
        expr_str i.Ast.expr
        ^ match i.Ast.alias with Some a -> " AS " ^ a | None -> ""
      in
      Printf.sprintf "%sPROJECT(\n%s,\n%s[%s] )" pad
        (render_node ~indent:(indent + 2) ~name source)
        (String.make (indent + 2) ' ')
        (String.concat ", " (List.map item_str items))
  | Group { source; by; having; aggregates = _ } ->
      Printf.sprintf "%sGROUP(\n%s,\n%sBY [%s]%s )" pad
        (render_node ~indent:(indent + 2) ~name source)
        (String.make (indent + 2) ' ')
        (String.concat ", " (List.map expr_str by))
        (match having with Some h -> " HAVING " ^ pred_str h | None -> "")
  | Sort { source; keys } ->
      let key_str (e, dir) =
        expr_str e ^ match dir with Ast.Asc -> " ASC" | Ast.Desc -> " DESC"
      in
      Printf.sprintf "%sSORT(\n%s,\n%s[%s] )" pad
        (render_node ~indent:(indent + 2) ~name source)
        (String.make (indent + 2) ' ')
        (String.concat ", " (List.map key_str keys))
  | Union nodes ->
      Printf.sprintf "%sUNION(\n%s )" pad
        (String.concat ",\n"
           (List.map (render_node ~indent:(indent + 2) ~name) nodes))

and render_left ~indent ~name node =
  match name node with
  | Some label -> String.make indent ' ' ^ label
  | None -> render_node ~indent ~name node

let render ?(label_joins = false) node =
  if not label_joins then render_node ~indent:0 ~name:(fun _ -> None) node
  else begin
    (* Hoist joins that appear as the left input of another join into
       numbered temporaries, emitted before the final plan. *)
    let temps = ref [] in
    let counter = ref 0 in
    let rec hoist node =
      match node with
      | Join ({ left; right; _ } as j) ->
          let left =
            match left with
            | Join _ ->
                let inner = hoist left in
                incr counter;
                let label = Printf.sprintf "T%d" !counter in
                temps := (label, inner) :: !temps;
                Bind { class_name = label; var = label; every = false; minus = [] }
                (* placeholder replaced by [name] during rendering *)
            | _ -> hoist left
          in
          Join { j with left; right = hoist right }
      | Bind _ | Path_ind_sel _ | Named_obj _ | Vscan _ -> node
      | Ind_sel i -> Ind_sel { i with source = hoist i.source }
      | Select s -> Select { s with source = hoist s.source }
      | Project p -> Project { p with source = hoist p.source }
      | Group g -> Group { g with source = hoist g.source }
      | Sort s -> Sort { s with source = hoist s.source }
      | Union nodes -> Union (List.map hoist nodes)
    in
    let hoisted = hoist node in
    let name = function
      | Bind { class_name; var; _ }
        when String.equal class_name var
             && String.length var > 1
             && var.[0] = 'T'
             && List.mem_assoc var !temps ->
          Some var
      | _ -> None
    in
    let body = render_node ~indent:0 ~name hoisted in
    let temp_lines =
      List.rev_map
        (fun (label, sub) ->
          Printf.sprintf "%s : %s" label
            (render_node ~indent:0 ~name:(fun n -> name n) sub))
        !temps
    in
    String.concat "\n\n" (temp_lines @ [ body ])
  end

let pp ppf node = Format.pp_print_string ppf (render node)
