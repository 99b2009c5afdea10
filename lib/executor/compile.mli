(** Closure compilation of MOODSQL expressions and predicates.

    The paper's Function Manager argument (Section 2) applied to the
    query executor: interpreting an AST re-dispatches on every node for
    every row, while compiling once turns per-row evaluation into a
    plain closure call. [expr]/[predicate] walk the AST exactly once —
    resolving operators, pre-compiling subexpressions, precomputing
    aggregate keys and projection labels — and return closures that
    only touch the data.

    The closures are built from [Eval]'s building blocks (navigation,
    [Eval.arith], [Eval.negate], [Eval.cmp_values]), so they share the
    interpreter's semantics except where [arith] and [cmp] take their
    Int32 fast path, the guard [Mood_model.Operand] shares with the
    lowered MoodC bodies; [Vectorize] binds batch expressions through
    them too. A method call on the range variable itself
    ([v.m()]) runs the body the scope bound for the object's class on
    the row's value ([Function_manager.invoke_stored]); a call through
    a path fetches each receiver, as [Eval] does.
    [interpret_expr]/[interpret_predicate] wrap the interpreter behind
    the same types, so an executor can run either lowering and a
    differential test can compare the fast paths with the generic ones
    row for row. *)

type expr_fn = Eval.env -> Eval.row -> Mood_model.Value.t
type pred_fn = Eval.env -> Eval.row -> bool

val arith :
  Mood_sql.Ast.arith -> Mood_model.Value.t -> Mood_model.Value.t -> Mood_model.Value.t
(** [arith op] resolves the operator once. [Operand.int32_fast]
    computes two [Int]s whose result stays inside [Operand.in32];
    everything else, zero divisors and results past Int32 included,
    takes [Eval.arith op], so values, constructors and errors are the
    interpreter's. *)

val cmp : Mood_sql.Ast.comparison -> Mood_model.Value.t -> Mood_model.Value.t -> bool
(** [cmp c] resolves the comparison once. Two [Int]s inside
    [Operand.in32] compare with [Int.compare]; everything else takes
    [Eval.cmp_values c]. *)

val expr : Mood_sql.Ast.expr -> expr_fn
(** Compile once; the returned closure never inspects the AST again. *)

val predicate : Mood_sql.Ast.predicate -> pred_fn

val interpret_expr : Mood_sql.Ast.expr -> expr_fn
(** The interpreter ([Eval.expr]) behind the compiled interface — the
    fallback path and the differential-testing oracle. *)

val interpret_predicate : Mood_sql.Ast.predicate -> pred_fn
