(** Evaluation of MOODSQL expressions and predicates over binding rows.

    A row binds each range variable to an extent item. Path expressions
    dereference through the catalog (charging the simulated disk);
    method calls go through the Function Manager (late binding);
    arithmetic uses the [OperandDataType] machinery, so run-time type
    checking matches Section 2. *)

exception Eval_error of string

type env = {
  catalog : Mood_catalog.Catalog.t;
  funcs : Mood_funcmgr.Function_manager.t;
  scope : Mood_funcmgr.Function_manager.scope;
}

type row = (string * Mood_algebra.Collection.item) list

val ctx : env -> Mood_algebra.Collection.ctx
(** The algebra evaluation context backed by the catalog. *)

val expr : env -> row -> Mood_sql.Ast.expr -> Mood_model.Value.t
(** A path through a null reference yields [Null]; a path over a
    set/list of references yields the Set/List of reached values (the
    data model's multi-valued navigation). Raises [Eval_error] on
    unbound variables or missing attributes. *)

val predicate : env -> row -> Mood_sql.Ast.predicate -> bool
(** Three-valued logic collapsed to two: comparisons involving [Null]
    are false ([Ne] included); a comparison against a multi-valued path
    holds when {e some} element satisfies it (existential semantics). *)

val compare_values : Mood_model.Value.t -> Mood_model.Value.t -> int option
(** Comparison used by predicates and ORDER BY: numerics compare
    numerically across kinds, strings/chars lexicographically,
    references by identity; [None] when incomparable or either side is
    [Null]. *)

(** {1 Building blocks}

    Exposed for the closure compiler ([Compile]) and the batch binder
    ([Vectorize]), which lower expressions and predicates once per plan
    or batch and need the same semantics per row. Each is the one copy
    of its rule: [expr] and [predicate] are built from them too. *)

val arith :
  Mood_sql.Ast.arith -> Mood_model.Value.t -> Mood_model.Value.t -> Mood_model.Value.t
(** [arith op] resolves the operator once. [Null] on either side gives
    [Null]; otherwise the [OperandDataType] layer computes, and its
    type errors raise [Eval_error]. No fast path: this is the
    reference [Compile.arith] is checked against. *)

val negate : Mood_model.Value.t -> Mood_model.Value.t
(** Unary minus on a numeric; [Null] stays [Null]; anything else raises
    [Eval_error]. *)

val comparison_holds : Mood_sql.Ast.comparison -> int -> bool
(** [comparison_holds cmp] resolves the operator once and reads a
    three-way comparison result under it. *)

val aggregate_value : string -> row -> Mood_model.Value.t
(** The aggregate labelled [key] in the row's [#agg] pseudo-binding,
    where GROUP and grouped VSCAN put each group's aggregates. Raises
    [Eval_error] outside a grouped row or for an uncomputed label. *)

val navigate : env -> Mood_model.Value.t -> string list -> Mood_model.Value.t list
(** All values reached from a value along an attribute path,
    dereferencing references and fanning out over sets/lists. *)

val path_value :
  env -> Mood_algebra.Collection.item -> string list -> Mood_model.Value.t
(** The value of a non-empty path from an item: [Null] when it reaches
    nothing, the one value it reaches, or the [Set] of several. *)

val lookup_var : row -> string -> Mood_algebra.Collection.item
(** Raises [Eval_error] when the variable is unbound. *)

val item_ref : Mood_algebra.Collection.item -> Mood_model.Value.t
(** The item as a value: [Ref oid] for stored objects, the transient
    value otherwise. *)

val cmp_values :
  Mood_sql.Ast.comparison -> Mood_model.Value.t -> Mood_model.Value.t -> bool
(** One comparison under the predicate semantics: existential over
    multi-valued sides, [Null] never compares. *)

val eval_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raises [Eval_error] with a formatted message. *)
