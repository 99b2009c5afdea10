(** MoodC: the miniature C-like method-body language.

    MOOD stores "the C++ source after some processing into the class
    hierarchy" and compiles it out-of-band; at run time only the
    compiled code runs. Without a C++ toolchain we reproduce the same
    life cycle with MoodC: a body arrives as source text (e.g.
    [{ return weight * 2.2075; }]), is preprocessed (basic C types are
    replaced by MOOD type classes, exactly the substitution the paper
    performs), parsed once into an AST and lowered once to closures
    ("compiled"), and thereafter runs without reparsing or walking the
    AST. The Function Manager can also run a body in {e interpreted}
    mode — reparsing and walking the AST at every call — which is the
    strawman the paper's architecture avoids; the benches compare the
    two.

    The language: statements [return e;], [if (e) s else s],
    [while (e) s] (iteration-bounded so a runaway body cannot hang the
    server), blocks, local declarations [int x = e;], assignment
    [x = e;]; expressions
    over integer/float/string/char/bool literals, identifiers (locals,
    then parameters, then attributes of [self]), member access
    [expr.attr] (dereferencing references through the kernel), unary
    [- !], binary [* / % + - < <= > >= == != && ||], and parentheses.
    Evaluation uses [Operand] semantics, so run-time type errors raise
    [Mood_model.Operand.Type_error]. *)

type ast

exception Parse_error of string

val preprocess : string -> string
(** The paper's source processing: occurrences of the basic C++ type
    names ([int], [long], [float], [double], [char], [bool]) are
    replaced with the MOOD type classes ([Integer], [LongInteger],
    [Float], [Char], [Boolean]) at word boundaries. *)

val parse : params:string list -> string -> ast
(** Parses a (preprocessed) body. [params] are the parameter names in
    signature order. Raises [Parse_error]. *)

type env = {
  deref : Mood_model.Oid.t -> Mood_model.Value.t option;
  self : Mood_model.Value.t;
  args : Mood_model.Value.t list;
}

type code
(** A body lowered to closures: what the Function Manager keeps loaded
    and calls. *)

val lower : ast -> code
(** Resolves every identifier once, to a local slot, a parameter index
    or an attribute of [self], and turns every node into a closure.
    [exec] of the result behaves exactly as [run] of the AST: the same
    value with the same constructor, or the same exception with the same
    message. *)

val compile : params:string list -> string -> code
(** [lower (parse ~params source)]: the life cycle's compile step. *)

val exec : code -> env -> Mood_model.Value.t
(** Executes a lowered body; the value of the first executed [return]
    (or [Null] if none executes). A call allocates a frame only when the
    body has locals, and a [return] is a value, not an exception. *)

val run : ast -> env -> Mood_model.Value.t
(** Walks the AST: the reference [exec] is tested against, and what the
    interpreted mode runs. A local shadows a parameter or attribute of
    the same name once an executed declaration or assignment has set
    it; [&&] and [||] evaluate both operands; a [while] loop raises
    [Operand.Type_error] when it comes to its 10^7th iteration. *)

val interpret : params:string list -> string -> env -> Mood_model.Value.t
(** Parse-and-run in one step: the interpreted mode the paper rejects
    for efficiency. *)
