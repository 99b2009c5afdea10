module Ast = Mood_sql.Ast
module Value = Mood_model.Value
module Mtype = Mood_model.Mtype
module Catalog = Mood_catalog.Catalog
module Stats = Mood_cost.Stats
module Io_cost = Mood_cost.Io_cost
module Sel = Mood_cost.Selectivity
module Path_cost = Mood_cost.Path_cost
module Table = Mood_util.Text_table
module Join_cost = Mood_cost.Join_cost

type settings = {
  join_force : Join_cost.method_choice option;
  scan_force : Mood_cost.Scan_cost.choice option;
  join_mem_bytes : int;
}

let default_settings =
  { join_force = None; scan_force = None; join_mem_bytes = Join_cost.default_join_mem_bytes }

type env = { catalog : Catalog.t; stats : Stats.t; params : Io_cost.params; settings : settings }

type imm_entry = {
  i_var : string;
  i_pred : Ast.predicate;
  i_attr : string;
  i_cmp : Ast.comparison;
  i_constant : Value.t;
  i_selectivity : float;
  i_indexed_cost : float option;
  i_index_kind : [ `Btree | `Hash ] option;
  i_seq_cost : float;
  mutable i_access : [ `Indexed | `Sequential ];
}

type path_entry = {
  p_var : string;
  p_pred : Ast.predicate;
  p_hops : Sel.hop list;
  p_terminal_cls : string;
  p_terminal_attr : string;
  p_terminal_cmp : Ast.comparison;
  p_terminal_constant : Value.t;
  p_selectivity : float;
  p_forward_cost : float;
  p_rank : float;
}

type other_entry = { o_pred : Ast.predicate; o_selectivity : float }

let default_other_selectivity = 1. /. 3.

let comparison_to_sel = function
  | Ast.Eq -> `Eq
  | Ast.Ne -> `Ne
  | Ast.Lt -> `Lt
  | Ast.Le -> `Le
  | Ast.Gt -> `Gt
  | Ast.Ge -> `Ge

let numeric_of_value v = Mood_model.Value.as_float v

let atomic_selectivity env ~cls ~attr cmp constant =
  match Stats.attr_stats env.stats ~cls ~attr with
  | None -> 1.
  | Some s -> begin
      let c = Option.value ~default:0. (numeric_of_value constant) in
      let base =
        match comparison_to_sel cmp with
        | `Eq -> Sel.atomic s (Sel.Compare (Sel.Eq, c))
        | `Ne -> Sel.atomic s (Sel.Compare (Sel.Ne, c))
        | `Lt -> Sel.atomic s (Sel.Compare (Sel.Lt, c))
        | `Le -> Sel.atomic s (Sel.Compare (Sel.Le, c))
        | `Gt -> Sel.atomic s (Sel.Compare (Sel.Gt, c))
        | `Ge -> Sel.atomic s (Sel.Compare (Sel.Ge, c))
      in
      (* only the notnull(A,C) fraction of instances can satisfy any
         comparison on A (Table 8) *)
      base *. s.Stats.notnull
    end

(* dist of a path's last attribute, on the class that hosts it. *)
let terminal_dist env cls path =
  match Catalog.resolve_path env.catalog ~class_name:cls ~path with
  | Some (_ :: _ as steps) -> begin
      let host, _ = List.nth steps (List.length steps - 1) in
      match Stats.attr_stats env.stats ~cls:host ~attr:(List.nth path (List.length path - 1)) with
      | Some s when s.Stats.dist > 0 -> Some s.Stats.dist
      | Some _ | None -> None
    end
  | Some [] | None -> None

let other_selectivity env ~bindings (p : Ast.predicate) =
  match p with
  | Ast.Cmp (Ast.Eq, Ast.Path (lv, (_ :: _ as lpath)), Ast.Path (rv, (_ :: _ as rpath)))
    when not (String.equal lv rv) -> begin
      let dist v path =
        Option.bind (List.assoc_opt v bindings) (fun cls -> terminal_dist env cls path)
      in
      match dist lv lpath, dist rv rpath with
      | Some a, Some b -> 1. /. float_of_int (max a b)
      | _, _ -> default_other_selectivity
    end
  | _ -> default_other_selectivity

let imm_entry env ~var ~cls ~attr cmp constant =
  let selectivity = atomic_selectivity env ~cls ~attr cmp constant in
  let seq_cost = Io_cost.seqcost env.params (Stats.nbpages env.stats cls) in
  let index = Stats.index_stats env.stats ~cls ~attr in
  let indexed_cost =
    Option.map
      (fun ix ->
        match cmp with
        | Ast.Eq -> Io_cost.indcost env.params ix ~k:1
        | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
            Io_cost.rngxcost env.params ix ~fract:selectivity)
      index
  in
  { i_var = var;
    i_pred = Ast.Cmp (cmp, Ast.Path (var, [ attr ]), Ast.Const constant);
    i_attr = attr;
    i_cmp = cmp;
    i_constant = constant;
    i_selectivity = selectivity;
    i_indexed_cost = indexed_cost;
    i_index_kind = Option.map (fun _ -> `Btree) index;
    i_seq_cost = seq_cost;
    i_access = `Sequential
  }

let path_entry env ~var ~cls ~path ~cmp ~constant ~k =
  match Catalog.resolve_path env.catalog ~class_name:cls ~path with
  | None -> None
  | Some steps -> begin
      match List.rev steps, List.rev path with
      | (terminal_host, terminal_ty) :: _, terminal_attr :: _
        when Mtype.is_atomic terminal_ty ->
          let hop_classes = List.map fst steps in
          let hops =
            (* steps pairs each attribute with its host class; the last
               step is the atomic terminal, the rest are reference hops *)
            List.filteri (fun i _ -> i < List.length path - 1) path
            |> List.mapi (fun i attr -> { Sel.cls = List.nth hop_classes i; attr })
          in
          let terminal_selectivity =
            atomic_selectivity env ~cls:terminal_host ~attr:terminal_attr cmp constant
          in
          let p_selectivity =
            Sel.path env.stats ~hops ~terminal_cls:terminal_host ~terminal_selectivity ()
          in
          let p_forward_cost = Path_cost.forward_path env.params env.stats ~hops ~k in
          Some
            { p_var = var;
              p_pred = Ast.Cmp (cmp, Ast.Path (var, path), Ast.Const constant);
              p_hops = hops;
              p_terminal_cls = terminal_host;
              p_terminal_attr = terminal_attr;
              p_terminal_cmp = cmp;
              p_terminal_constant = constant;
              p_selectivity;
              p_forward_cost;
              p_rank = Path_cost.rank ~f:p_forward_cost ~s:p_selectivity
            }
      | _, _ -> None
    end

let render_imm entries =
  let table =
    Table.create
      ~header:
        [ "Range Variable"; "Predicate"; "Selectivity"; "Indexed Access Cost";
          "Sequential Access Cost"; "Access Type" ]
  in
  List.iter
    (fun e ->
      Table.add_row table
        [ e.i_var;
          Ast.predicate_to_string e.i_pred;
          Printf.sprintf "%.3g" e.i_selectivity;
          (match e.i_indexed_cost with
          | Some c -> Printf.sprintf "%.3f" c
          | None -> "-");
          Printf.sprintf "%.3f" e.i_seq_cost;
          (match e.i_access with `Indexed -> "Indexed" | `Sequential -> "Sequential")
        ])
    entries;
  Table.render table

let render_other entries =
  let table = Table.create ~header:[ "Predicate"; "Selectivity" ] in
  List.iter
    (fun e ->
      Table.add_row table
        [ Ast.predicate_to_string e.o_pred; Printf.sprintf "%.3g" e.o_selectivity ])
    entries;
  Table.render table

let render_path entries =
  let table =
    Table.create
      ~header:
        [ "Range Variable"; "Predicate"; "Selectivity"; "Forward Traversal Cost";
          "cost/(1-fs)" ]
  in
  List.iter
    (fun e ->
      Table.add_row table
        [ e.p_var;
          Ast.predicate_to_string e.p_pred;
          Printf.sprintf "%.3g" e.p_selectivity;
          Printf.sprintf "%.3f" e.p_forward_cost;
          Printf.sprintf "%.3f" e.p_rank
        ])
    entries;
  Table.render table
