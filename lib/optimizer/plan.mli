(** Physical access plans.

    The optimizer emits trees whose printed form matches the paper's
    plan listings of Section 8, e.g.
    {v
    T1 : JOIN(
      BIND(Vehicle, v),
      SELECT(BIND(Company, c), c.name = 'BMW'),
      HASH_PARTITION,
      v.company = c.self )
    v}
    Nodes keep typed predicates (the executor evaluates them); printing
    renders them in MOODSQL syntax with [var.self] for bare range
    variables in join predicates. *)

type indexed_pred = {
  ip_attr : string;
  ip_cmp : Mood_sql.Ast.comparison;
  ip_constant : Mood_model.Value.t;
  ip_kind : [ `Btree | `Hash ];
}

type node =
  | Bind of { class_name : string; var : string; every : bool; minus : string list }
  | Named_obj of { name : string; var : string }
      (** access through a named object (Section 3.2's fourth access
          mode) *)
  | Ind_sel of { source : node; preds : indexed_pred list }
      (** index-assisted base access: probe each index, intersect, fetch *)
  | Path_ind_sel of {
      class_name : string;
      var : string;
      path : string list;
      cmp : Mood_sql.Ast.comparison;
      constant : Mood_model.Value.t;
    }
      (** path-index probe: head objects of [class_name] whose terminal
          value along [path] satisfies the comparison — the paper's
          "path indices can be used in accessing the objects" *)
  | Select of { source : node; var : string; pred : Mood_sql.Ast.predicate }
  | Vscan of {
      class_name : string;
      var : string;
      every : bool;
      minus : string list;
      pred : Mood_sql.Ast.predicate option;
      by : Mood_sql.Ast.expr list;
      having : Mood_sql.Ast.predicate option;
      aggregates : Mood_sql.Ast.expr list;
    }
      (** vectorized batch scan: decode the class's PAX segment (or
          batch the row heap under a forced hint) and run the compiled
          filter over column arrays. When [by] or [aggregates] is
          non-empty the node also runs the fused GROUP BY: hash
          aggregation over the batches into one row per group (one
          group when [by] is empty), filtered by [having]. The rows
          have [Group]'s shape — first member plus [#agg] — in order
          of first appearance. *)
  | Join of {
      left : node;
      right : node;
      method_ : Mood_cost.Join_cost.method_choice;
      pred : Mood_sql.Ast.predicate;
    }
  | Project of { source : node; items : Mood_sql.Ast.select_item list }
  | Group of {
      source : node;
      by : Mood_sql.Ast.expr list;
      having : Mood_sql.Ast.predicate option;
      aggregates : Mood_sql.Ast.expr list;
          (** the aggregate subexpressions the enclosing query needs,
              precomputed per group by the executor *)
    }
  | Sort of { source : node; keys : (Mood_sql.Ast.expr * Mood_sql.Ast.order_direction) list }
  | Union of node list

val vars : node -> string list
(** Range variables bound somewhere under the node, in first-appearance
    order. *)

val var_classes : node -> (string * string) list
(** The range variables bound under the node with a statically known
    class ([BIND], [PATH_INDSEL], [VSCAN]; a [NAMED] object has none),
    each with its class. *)

type reads = string -> string list option
(** What a statement reads through each of its range variables:
    [Some attrs], the first attribute of every path from the variable
    (in first-appearance order; [Some []] when it is not mentioned), or
    [None] when the whole object escapes. A value join keeps, of each
    object it holds, its OID and only these attributes
    ([Mood_executor.Value_join]), and the optimizer sizes the join's
    sides by the same sets. *)

val reads_of :
  whole:bool -> Mood_sql.Ast.expr list -> Mood_sql.Ast.predicate list -> reads
(** The reads of a statement whose expressions and predicates are
    these. A bare variable ([v], [v.self]) and a method call's receiver
    escape whole: a method may read any attribute of its object. With
    [whole], every binding row leaves the statement as it is, so every
    variable escapes. *)

val reads : node -> reads
(** [reads_of] over every expression and predicate of the plan, with
    [whole] unless a PROJECT or GROUP sits on top (under SORTs): a
    plan without one returns its binding rows, as the hand-built plans
    of the join oracle, bench/micro and the tests do. For an optimizer
    plan these are the sets the optimizer sized its value joins by:
    [reads_of] over its query's clauses and classified predicates, with
    the variables a path expression generates escaping whole. *)

val render : ?label_joins:bool -> node -> string
(** Pretty prints. With [label_joins] (default false) every join that
    feeds another join is hoisted into a [Tn : ...] temporary, matching
    the paper's listings. *)

val pp : Format.formatter -> node -> unit
(** [render ~label_joins:false]. *)
