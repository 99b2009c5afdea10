(** [OperandDataType]: run-time typed operands for the MOODSQL
    interpreter (Section 2).

    The kernel interprets arithmetic and Boolean expressions over
    operands whose data types are only known at run time. This module
    reproduces the paper's operator overloading: [+ - * / %] over
    numeric operands with type promotion, comparisons, and
    [AND OR NOT], with type checking and conversion of results
    performed at run time. A type violation raises [Type_error] (the
    kernel's Exception class turns these into interpreted-style error
    messages even for compiled functions). *)

exception Type_error of string

type data_type = Int16 | Int32 | Int64 | Double | Text | Char_t | Bool_t

type t
(** A typed operand: a declared [data_type] plus a current value. *)

val declare : data_type -> t
(** An operand of the given type holding that type's zero value — the
    paper's [OperandDataType x(INT16)]. *)

val of_value : Value.t -> t
(** Wraps a model value, inferring the tightest data type. Raises
    [Type_error] on values with no operand counterpart (tuples, sets,
    lists, references, null). *)

val assign : t -> t -> t
(** [assign target source]: stores [source]'s value into an operand of
    [target]'s declared type, converting (and truncating floats to
    integer types) as the paper's [z = ...] example does; the result's
    type is cast to the declared type of the assignment target. Raises
    [Type_error] for impossible conversions (e.g. text to Int16) and
    [Type_error] on Int16 overflow. *)

val data_type : t -> data_type

val to_value : t -> Value.t

val add : t -> t -> t
(** Numeric addition; on text/char operands, concatenation. *)

val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** Integer division when both operands are integral; float division
    otherwise. Raises [Type_error] on division by zero. *)

val modulo : t -> t -> t
(** Integral operands only. *)

val compare_op : [ `Eq | `Ne | `Lt | `Le | `Gt | `Ge ] -> t -> t -> t
(** Comparison with numeric promotion; strings and chars compare
    lexicographically; mixed incomparable types raise [Type_error].
    Result is a [Bool_t] operand. *)

val logical_and : t -> t -> t
val logical_or : t -> t -> t
val logical_not : t -> t
(** Boolean operands only; [Type_error] otherwise. *)

val pp : Format.formatter -> t -> unit

val data_type_name : data_type -> string

(** {1 The Int32 fast path}

    Shared by every evaluator that computes over [Value.t]s with this
    layer's semantics: the query executor's compiled closures, its
    vectorized binders and the lowered MoodC bodies. *)

val in32 : int -> bool
(** Whether an [Int] lies in the Int32 range. Inside it, native [int]
    arithmetic whose result lies inside it too gives this layer's
    answer (its Int16 and Int32 results stay [Value.Int]), and
    [Int.compare] agrees with its float-based numeric comparison. *)

val int32_compare :
  (int -> 'a) -> (Value.t -> Value.t -> 'a) -> Value.t -> Value.t -> 'a
(** [int32_compare verdict generic]: two [Int]s inside [in32] give
    [verdict] of their [Int.compare]; every other pair goes to
    [generic]. *)

val int32_fast :
  [ `Add | `Sub | `Mul | `Div | `Mod ] ->
  (Value.t -> Value.t -> Value.t) ->
  Value.t ->
  Value.t ->
  Value.t
(** [int32_fast op generic] resolves [op] once. Two [Int]s inside
    [in32], with a nonzero divisor for [`Div] and [`Mod], compute
    natively, and the result is an [Int] when it lies inside [in32]
    too. Every other pair, a result that leaves the range included,
    goes to [generic], so values, constructors ([Long] past Int32) and
    errors are [generic]'s. *)
