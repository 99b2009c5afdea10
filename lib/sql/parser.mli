(** MOODSQL recursive-descent parser.

    Accepted statement forms:
    {v
    SELECT list FROM [EVERY] C [- Sub]* v, ... [WHERE p]
      [GROUP BY paths [HAVING p]] [ORDER BY paths [ASC|DESC]]
    CREATE CLASS Name [INHERITS FROM A, B]
      [TUPLE ( attr Type, ... )] [METHODS: name (p Type, ...) RetType, ...]
    CREATE [BTREE|HASH] INDEX ON Class ( attr )
    new Class < value, ... >
    UPDATE Class [v] SET attr = expr, ... [WHERE p]
    DELETE FROM Class [v] [WHERE p]
    DEFINE METHOD Class::name ( p Type, ... ) RetType { body }
    DROP METHOD Class::name
    SET name value
    EXPLAIN [ANALYZE] SELECT ...
    v}
    Clauses after FROM may appear in any order (the paper's grammar
    lists GROUP BY before WHERE; both readings parse). *)

exception Parse_error of string

val parse : string -> Ast.statement
(** Raises [Parse_error] (lexing errors are converted too). *)

val parse_query : string -> Ast.query
(** Parses a SELECT and raises [Parse_error] for any other statement. *)

val parse_predicate : string -> Ast.predicate
(** Parses a bare predicate (tests and the query-manager REPL). *)
