(** The MOODSQL query optimizer (Sections 7–8).

    The pipeline the paper describes: parse tree → expression
    simplification → DNF → per-AND-term classification into the
    ImmSelInfo / PathSelInfo / OtherSelInfo dictionaries → ordering of
    atomic selections (8.1's index-count inequality + selectivity
    order) → ordering of path expressions by [F/(1-s)] (Algorithm 8.1)
    → implicit-join ordering for the first path expression (Algorithm
    8.2), with subsequent path expressions forward-traversed from the
    shrinking candidate set → explicit joins → UNION of the AND-term
    subplans → GROUP BY/HAVING → projection → ORDER BY (Figures
    7.1–7.2). *)

type trace = {
  t_imm : (string * Dicts.imm_entry list) list;  (** per range variable *)
  t_paths : Dicts.path_entry list;               (** in execution order *)
  t_others : Dicts.other_entry list;             (** OtherSelInfo *)
  t_and_terms : int;
  t_est_cost : float;
}

type optimized = { plan : Plan.node; trace : trace }

val optimize : Dicts.env -> Mood_sql.Ast.query -> optimized
(** Raises [Mood_sql.Typecheck.Type_error] on ill-typed queries. *)

val side_bytes :
  Dicts.env -> Plan.reads -> Plan.node -> key:string * string list -> k:float -> float
(** The memory footprint the optimizer gives a value-join side whose
    plan is [side]: [k] entries of [Mood_cost.Join_cost.entry_bytes],
    each the canonical key of the path [key] (its range variable's class
    and the path) and one binding per range variable of [side], whose
    object keeps the attributes [reads] lists, or the whole object
    ([Stats.obj_size]) when it escapes. Each kept attribute is sized by
    its type and [Stats.avg_width], so for fixed-width attributes this
    is the byte count of the entries [Mood_executor.Value_join] holds. *)

val fresh_var_name : taken:string list -> string -> string
(** Variable naming for generated binds: the first letter of the
    attribute that reaches the class ([drivetrain] → [d]), suffixed on
    collision — matching the paper's example plans. *)
