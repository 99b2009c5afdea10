(** Abstract syntax of MOODSQL (Section 3.1).

    This module is pure types plus printers; the parser builds these and
    every later stage (simplifier, DNF, classifier, optimizer) consumes
    them. *)

module Value = Mood_model.Value
module Mtype = Mood_model.Mtype

type comparison = Eq | Ne | Lt | Le | Gt | Ge

type arith = Add | Sub | Mul | Div | Mod

type agg_fn = Count | Sum | Avg | Min | Max

(** Expressions. A [Path (v, [])] denotes the range variable itself
    (the paper's [v] or [d.self]); [Path (v, ["a"; "b"])] is the path
    expression [v.a.b]. Aggregates (COUNT of all rows, [SUM(e.age)],
    ...) are legal only in the SELECT list and HAVING clause of a
    grouped query (or over the whole result when there is no GROUP
    BY). *)
type expr =
  | Const of Value.t
  | Path of string * string list
  | Method_call of string * string list * string * expr list
      (** receiver variable, receiver path, method name, arguments *)
  | Arith of arith * expr * expr
  | Neg of expr
  | Aggregate of agg_fn * expr option  (** [None] only for the count of all rows *)

type predicate =
  | Cmp of comparison * expr * expr
  | Is_null of expr * bool  (** [IS NULL] ([true] = negated: [IS NOT NULL]) *)
  | And of predicate * predicate
  | Or of predicate * predicate
  | Not of predicate
  | Ptrue
  | Pfalse

(** One FROM-clause item: [EVERY Automobile - JapaneseAuto c] becomes
    [{ class_name = "Automobile"; every = true; minus = ["JapaneseAuto"];
    var = "c"; named = false }]. Without [EVERY], subclass instances are
    still included by IS-A (the paper's minus operator exists to exclude
    them), so [every] records only whether the keyword was written. With
    [named = true] ([FROM NAMED president p]) the item ranges over a
    single named object and [class_name] holds the object's {e name}. *)
type from_item = {
  class_name : string;
  every : bool;
  minus : string list;
  var : string;
  named : bool;
}

type order_direction = Asc | Desc

type select_item = { expr : expr; alias : string option }

type query = {
  select : select_item list;
  from : from_item list;
  where : predicate option;
  group_by : expr list;
  having : predicate option;
  order_by : (expr * order_direction) list;
}

type method_decl = {
  m_name : string;
  m_params : (string * Mtype.t) list;
  m_return : Mtype.t;
}

type layout = L_row | L_pax

type statement =
  | Select of query
  | Create_class of {
      cc_name : string;
      cc_supers : string list;
      cc_attrs : (string * Mtype.t) list;
      cc_methods : method_decl list;
      cc_layout : layout;
    }
  | Alter_class_layout of { al_class : string; al_layout : layout }
  | Create_index of { ci_class : string; ci_attr : string; ci_kind : [ `Btree | `Hash ] }
  | New_object of { no_class : string; no_values : expr list }
  | Update of {
      up_class : string;
      up_var : string;
      up_set : (string * expr) list;
      up_where : predicate option;
    }
  | Delete of { de_class : string; de_var : string; de_where : predicate option }
  | Define_method of {
      dm_class : string;
      dm_decl : method_decl;
      dm_body : string;  (** MoodC source *)
    }
  | Drop_method of { xm_class : string; xm_name : string }
  | Name_object of { nm_name : string; nm_query : query }
      (** [NAME president AS SELECT ...]: names the query's single
          result object *)
  | Drop_name of string
  | Set of { set_name : string; set_value : string }
      (** [SET JOIN_FORCE HASH_JOIN]: a planner setting; the value is an
          identifier or an integer, as written *)
  | Explain of { ex_analyze : bool; ex_query : query }
      (** [EXPLAIN [ANALYZE] SELECT ...] *)

(* ------------------------------------------------------------------ *)
(* Printers                                                            *)

let comparison_to_string = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let arith_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"

let agg_fn_to_string = function
  | Count -> "COUNT"
  | Sum -> "SUM"
  | Avg -> "AVG"
  | Min -> "MIN"
  | Max -> "MAX"

let path_to_string var path = String.concat "." (var :: path)

let rec pp_expr ppf = function
  | Const v -> Value.pp ppf v
  | Path (var, path) -> Format.pp_print_string ppf (path_to_string var path)
  | Method_call (var, path, name, args) ->
      Format.fprintf ppf "%s.%s(%a)" (path_to_string var path) name
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           pp_expr)
        args
  | Arith (op, a, b) ->
      Format.fprintf ppf "(%a %s %a)" pp_expr a (arith_to_string op) pp_expr b
  | Neg e -> Format.fprintf ppf "(-%a)" pp_expr e
  | Aggregate (fn, None) -> Format.fprintf ppf "%s(*)" (agg_fn_to_string fn)
  | Aggregate (fn, Some e) -> Format.fprintf ppf "%s(%a)" (agg_fn_to_string fn) pp_expr e

let rec pp_predicate ppf = function
  | Cmp (op, a, b) ->
      Format.fprintf ppf "%a %s %a" pp_expr a (comparison_to_string op) pp_expr b
  | Is_null (e, negated) ->
      Format.fprintf ppf "%a IS %sNULL" pp_expr e (if negated then "NOT " else "")
  | And (a, b) -> Format.fprintf ppf "(%a AND %a)" pp_predicate a pp_predicate b
  | Or (a, b) -> Format.fprintf ppf "(%a OR %a)" pp_predicate a pp_predicate b
  | Not p -> Format.fprintf ppf "(NOT %a)" pp_predicate p
  | Ptrue -> Format.pp_print_string ppf "TRUE"
  | Pfalse -> Format.pp_print_string ppf "FALSE"

let expr_to_string e = Format.asprintf "%a" pp_expr e

let predicate_to_string p = Format.asprintf "%a" pp_predicate p

(** Range variables an expression mentions. *)
let rec expr_vars = function
  | Const _ -> []
  | Path (var, _) -> [ var ]
  | Method_call (var, _, _, args) -> var :: List.concat_map expr_vars args
  | Arith (_, a, b) -> expr_vars a @ expr_vars b
  | Neg e -> expr_vars e
  | Aggregate (_, Some e) -> expr_vars e
  | Aggregate (_, None) -> []

(** All aggregate subexpressions, outermost only, left to right. *)
let rec aggregates_in = function
  | Const _ | Path _ -> []
  | Method_call (_, _, _, args) -> List.concat_map aggregates_in args
  | Arith (_, a, b) -> aggregates_in a @ aggregates_in b
  | Neg e -> aggregates_in e
  | Aggregate (_, _) as agg -> [ agg ]

let rec predicate_aggregates = function
  | Cmp (_, a, b) -> aggregates_in a @ aggregates_in b
  | Is_null (e, _) -> aggregates_in e
  | And (a, b) | Or (a, b) -> predicate_aggregates a @ predicate_aggregates b
  | Not p -> predicate_aggregates p
  | Ptrue | Pfalse -> []

let rec predicate_vars = function
  | Cmp (_, a, b) -> expr_vars a @ expr_vars b
  | Is_null (e, _) -> expr_vars e
  | And (a, b) | Or (a, b) -> predicate_vars a @ predicate_vars b
  | Not p -> predicate_vars p
  | Ptrue | Pfalse -> []

(** The left-nested conjunction of [preds]; [Ptrue] when empty. *)
let conj = function
  | [] -> Ptrue
  | p :: rest -> List.fold_left (fun acc q -> And (acc, q)) p rest

let mirror = function Eq -> Eq | Ne -> Ne | Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le
(** The comparison with swapped operands: [a < b] iff [b > a]. *)
