module Value = Mood_model.Value
module Mtype = Mood_model.Mtype

exception Parse_error of string

let parse_error fmt = Format.kasprintf (fun m -> raise (Parse_error m)) fmt

type state = { mutable toks : Lexer.token list }

let peek st = match st.toks with [] -> Lexer.Eof | t :: _ -> t

let peek2 st = match st.toks with _ :: t :: _ -> t | _ :: [] | [] -> Lexer.Eof

let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let save st = st.toks

let restore st toks = st.toks <- toks

let at_keyword st kw =
  match Lexer.keyword (peek st) with Some k -> String.equal k kw | None -> false

let eat_keyword st kw =
  if at_keyword st kw then advance st else parse_error "expected keyword %s" kw

let at_punct st p = match peek st with Lexer.Punct q -> String.equal p q | _ -> false

let eat_punct st p =
  if at_punct st p then advance st else parse_error "expected %S" p

let ident st =
  match peek st with
  | Lexer.Ident name ->
      advance st;
      name
  | _ -> parse_error "expected identifier"

(* Keywords that terminate expression lists; identifiers spelling these
   cannot be range variables or attributes in the positions we check. *)
let clause_keywords =
  [ "FROM"; "WHERE"; "GROUP"; "HAVING"; "ORDER"; "BY"; "AND"; "OR"; "NOT";
    "ASC"; "DESC"; "AS"; "EVERY"; "BETWEEN"; "SELECT" ]

let at_clause_keyword st =
  match Lexer.keyword (peek st) with
  | Some k -> List.mem k clause_keywords
  | None -> false

(* ------------------------------------------------------------------ *)
(* Types (DDL)                                                         *)

let rec parse_type st =
  match Lexer.keyword (peek st) with
  | Some "INTEGER" ->
      advance st;
      Mtype.Basic Mtype.Integer
  | Some "FLOAT" ->
      advance st;
      Mtype.Basic Mtype.Float
  | Some "LONGINTEGER" ->
      advance st;
      Mtype.Basic Mtype.Long_integer
  | Some "CHAR" ->
      advance st;
      Mtype.Basic Mtype.Char
  | Some "BOOLEAN" ->
      advance st;
      Mtype.Basic Mtype.Boolean
  | Some "STRING" -> begin
      advance st;
      if at_punct st "(" then begin
        advance st;
        match peek st with
        | Lexer.Int n ->
            advance st;
            eat_punct st ")";
            Mtype.Basic (Mtype.String n)
        | _ -> parse_error "expected length in String(n)"
      end
      else Mtype.Basic (Mtype.String 255)
    end
  | Some "REFERENCE" ->
      advance st;
      eat_punct st "(";
      let cls = ident st in
      eat_punct st ")";
      Mtype.Reference cls
  | Some "SET" ->
      advance st;
      eat_punct st "(";
      let ty = parse_type st in
      eat_punct st ")";
      Mtype.Set ty
  | Some "LIST" ->
      advance st;
      eat_punct st "(";
      let ty = parse_type st in
      eat_punct st ")";
      Mtype.List ty
  | Some "TUPLE" ->
      advance st;
      eat_punct st "(";
      let attrs = parse_attr_list st in
      eat_punct st ")";
      Mtype.Tuple attrs
  | Some other -> parse_error "unknown type %s" other
  | None -> parse_error "expected a type"

and parse_attr_list st =
  let rec loop acc =
    let name = ident st in
    let ty = parse_type st in
    let acc = (name, ty) :: acc in
    if at_punct st "," then begin
      advance st;
      loop acc
    end
    else List.rev acc
  in
  loop []

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)

let rec parse_expr st = parse_additive st

and parse_additive st =
  let lhs = ref (parse_multiplicative st) in
  let continue = ref true in
  while !continue do
    if at_punct st "+" then begin
      advance st;
      lhs := Ast.Arith (Ast.Add, !lhs, parse_multiplicative st)
    end
    else if at_punct st "-" then begin
      advance st;
      lhs := Ast.Arith (Ast.Sub, !lhs, parse_multiplicative st)
    end
    else continue := false
  done;
  !lhs

and parse_multiplicative st =
  let lhs = ref (parse_unary st) in
  let continue = ref true in
  while !continue do
    if at_punct st "*" then begin
      advance st;
      lhs := Ast.Arith (Ast.Mul, !lhs, parse_unary st)
    end
    else if at_punct st "/" then begin
      advance st;
      lhs := Ast.Arith (Ast.Div, !lhs, parse_unary st)
    end
    else if at_punct st "%" then begin
      advance st;
      lhs := Ast.Arith (Ast.Mod, !lhs, parse_unary st)
    end
    else continue := false
  done;
  !lhs

and parse_unary st =
  if at_punct st "-" then begin
    advance st;
    Ast.Neg (parse_unary st)
  end
  else parse_primary st

and parse_primary st =
  match peek st with
  | Lexer.Int v ->
      advance st;
      Ast.Const (Value.Int v)
  | Lexer.Float v ->
      advance st;
      Ast.Const (Value.Float v)
  | Lexer.String v ->
      advance st;
      Ast.Const (Value.Str v)
  | Lexer.Punct "(" ->
      advance st;
      let e = parse_expr st in
      eat_punct st ")";
      e
  | Lexer.Ident _ -> begin
      match Lexer.keyword (peek st) with
      | Some "TRUE" ->
          advance st;
          Ast.Const (Value.Bool true)
      | Some "FALSE" ->
          advance st;
          Ast.Const (Value.Bool false)
      | Some "NULL" ->
          advance st;
          Ast.Const Value.Null
      | Some (("COUNT" | "SUM" | "AVG" | "MIN" | "MAX") as fn)
        when peek2 st = Lexer.Punct "(" ->
          advance st;
          advance st;
          let agg_fn =
            match fn with
            | "COUNT" -> Ast.Count
            | "SUM" -> Ast.Sum
            | "AVG" -> Ast.Avg
            | "MIN" -> Ast.Min
            | _ -> Ast.Max
          in
          let inner =
            if at_punct st "*" then begin
              advance st;
              if agg_fn <> Ast.Count then
                parse_error "only COUNT accepts a * argument";
              None
            end
            else Some (parse_expr st)
          in
          eat_punct st ")";
          Ast.Aggregate (agg_fn, inner)
      | _ -> parse_path_or_call st
    end
  | Lexer.Punct p -> parse_error "unexpected %S in expression" p
  | Lexer.Eof -> parse_error "unexpected end of input in expression"

and parse_path_or_call st =
  let exception Method_found of string list * string * Ast.expr list in
  let var = ident st in
  let rec loop acc =
    if at_punct st "." then begin
      advance st;
      let name = ident st in
      if String.equal (String.uppercase_ascii name) "SELF" && not (at_punct st ".") then
        (* v.self denotes the object itself. *)
        List.rev acc
      else if at_punct st "(" then begin
        advance st;
        let args =
          if at_punct st ")" then []
          else begin
            let rec args_loop acc =
              let e = parse_expr st in
              if at_punct st "," then begin
                advance st;
                args_loop (e :: acc)
              end
              else List.rev (e :: acc)
            in
            args_loop []
          end
        in
        eat_punct st ")";
        raise (Method_found (List.rev acc, name, args))
      end
      else loop (name :: acc)
    end
    else List.rev acc
  in
  try Ast.Path (var, loop [])
  with Method_found (path, name, args) -> Ast.Method_call (var, path, name, args)

(* ------------------------------------------------------------------ *)
(* Predicates                                                          *)

let rec parse_predicate_toks st = parse_or st

and parse_or st =
  let lhs = ref (parse_and st) in
  while at_keyword st "OR" do
    advance st;
    lhs := Ast.Or (!lhs, parse_and st)
  done;
  !lhs

and parse_and st =
  let lhs = ref (parse_not st) in
  while at_keyword st "AND" do
    advance st;
    lhs := Ast.And (!lhs, parse_not st)
  done;
  !lhs

and parse_not st =
  if at_keyword st "NOT" then begin
    advance st;
    Ast.Not (parse_not st)
  end
  else parse_atom st

and parse_atom st =
  if at_punct st "(" then begin
    (* Backtrack: '(' may open a nested predicate or an arithmetic
       grouping; try the predicate reading first. *)
    let saved = save st in
    advance st;
    match
      (try
         let p = parse_predicate_toks st in
         eat_punct st ")";
         Some p
       with Parse_error _ ->
         restore st saved;
         None)
    with
    | Some p -> p
    | None -> parse_comparison st
  end
  else parse_comparison st

and parse_comparison st =
  let lhs = parse_expr st in
  if at_keyword st "IS" then begin
    advance st;
    let negated = at_keyword st "NOT" in
    if negated then advance st;
    eat_keyword st "NULL";
    Ast.Is_null (lhs, negated)
  end
  else if at_keyword st "BETWEEN" then begin
    advance st;
    let lo = parse_expr st in
    eat_keyword st "AND";
    let hi = parse_expr st in
    Ast.And (Ast.Cmp (Ast.Ge, lhs, lo), Ast.Cmp (Ast.Le, lhs, hi))
  end
  else begin
    let op =
      match peek st with
      | Lexer.Punct "=" -> Some Ast.Eq
      | Lexer.Punct "<>" -> Some Ast.Ne
      | Lexer.Punct "<" -> Some Ast.Lt
      | Lexer.Punct "<=" -> Some Ast.Le
      | Lexer.Punct ">" -> Some Ast.Gt
      | Lexer.Punct ">=" -> Some Ast.Ge
      | _ -> None
    in
    match op with
    | Some op ->
        advance st;
        let rhs = parse_expr st in
        Ast.Cmp (op, lhs, rhs)
    | None ->
        (* A bare Boolean-valued expression (e.g. a method call). *)
        Ast.Cmp (Ast.Eq, lhs, Ast.Const (Value.Bool true))
  end

(* ------------------------------------------------------------------ *)
(* SELECT                                                              *)

let parse_from_item st =
  if at_keyword st "NAMED" then begin
    advance st;
    let object_name = ident st in
    let var =
      match peek st with
      | Lexer.Ident _ when not (at_clause_keyword st) -> ident st
      | _ -> object_name
    in
    { Ast.class_name = object_name; every = false; minus = []; var; named = true }
  end
  else begin
    let every = at_keyword st "EVERY" in
    if every then advance st;
    let class_name = ident st in
    let rec minus acc =
      (* A '-' here subtracts a subclass unless it begins an arithmetic
         expression, which cannot happen in FROM position. *)
      if at_punct st "-" then begin
        advance st;
        minus (ident st :: acc)
      end
      else List.rev acc
    in
    let minus = minus [] in
    let var =
      match peek st with
      | Lexer.Ident _ when not (at_clause_keyword st) -> ident st
      | _ -> class_name
    in
    { Ast.class_name; every; minus; var; named = false }
  end

let parse_select_list st =
  if at_punct st "*" then begin
    advance st;
    []
  end
  else begin
    let rec loop acc =
      let expr = parse_expr st in
      let alias =
        if at_keyword st "AS" then begin
          advance st;
          Some (ident st)
        end
        else None
      in
      let acc = { Ast.expr; alias } :: acc in
      if at_punct st "," then begin
        advance st;
        loop acc
      end
      else List.rev acc
    in
    loop []
  end

let parse_expr_list st =
  let rec loop acc =
    let e = parse_expr st in
    let acc = e :: acc in
    if at_punct st "," then begin
      advance st;
      loop acc
    end
    else List.rev acc
  in
  loop []

let parse_query_toks st =
  eat_keyword st "SELECT";
  let select = parse_select_list st in
  eat_keyword st "FROM";
  let rec from_loop acc =
    let item = parse_from_item st in
    let acc = item :: acc in
    if at_punct st "," then begin
      advance st;
      from_loop acc
    end
    else List.rev acc
  in
  let from = from_loop [] in
  let where = ref None and group_by = ref [] and having = ref None and order_by = ref [] in
  let continue = ref true in
  while !continue do
    if at_keyword st "WHERE" then begin
      advance st;
      where := Some (parse_predicate_toks st)
    end
    else if at_keyword st "GROUP" then begin
      advance st;
      eat_keyword st "BY";
      group_by := parse_expr_list st;
      if at_keyword st "HAVING" then begin
        advance st;
        having := Some (parse_predicate_toks st)
      end
    end
    else if at_keyword st "ORDER" then begin
      advance st;
      eat_keyword st "BY";
      let rec order_loop acc =
        let e = parse_expr st in
        let dir =
          if at_keyword st "DESC" then begin
            advance st;
            Ast.Desc
          end
          else begin
            if at_keyword st "ASC" then advance st;
            Ast.Asc
          end
        in
        let acc = (e, dir) :: acc in
        if at_punct st "," then begin
          advance st;
          order_loop acc
        end
        else List.rev acc
      in
      order_by := order_loop []
    end
    else continue := false
  done;
  { Ast.select;
    from;
    where = !where;
    group_by = !group_by;
    having = !having;
    order_by = !order_by
  }

(* ------------------------------------------------------------------ *)
(* DDL / DML                                                           *)

let parse_method_decl st =
  let m_name = ident st in
  eat_punct st "(";
  let m_params =
    if at_punct st ")" then []
    else begin
      let rec loop acc =
        let p = ident st in
        let ty = parse_type st in
        let acc = (p, ty) :: acc in
        if at_punct st "," then begin
          advance st;
          loop acc
        end
        else List.rev acc
      in
      loop []
    end
  in
  eat_punct st ")";
  let m_return = parse_type st in
  { Ast.m_name; m_params; m_return }

let parse_layout st =
  match Lexer.keyword (peek st) with
  | Some "ROW" ->
      advance st;
      Ast.L_row
  | Some "PAX" ->
      advance st;
      Ast.L_pax
  | _ -> parse_error "expected ROW or PAX after LAYOUT"

let parse_alter st =
  advance st (* ALTER *);
  eat_keyword st "CLASS";
  let al_class = ident st in
  eat_keyword st "SET";
  eat_keyword st "LAYOUT";
  let al_layout = parse_layout st in
  Ast.Alter_class_layout { al_class; al_layout }

let parse_create st =
  advance st (* CREATE *);
  match Lexer.keyword (peek st) with
  | Some "CLASS" ->
      advance st;
      let cc_name = ident st in
      let cc_supers = ref [] and cc_attrs = ref [] and cc_methods = ref [] in
      let cc_layout = ref Ast.L_row in
      let continue = ref true in
      while !continue do
        match Lexer.keyword (peek st) with
        | Some "LAYOUT" ->
            advance st;
            cc_layout := parse_layout st
        | Some "INHERITS" ->
            advance st;
            eat_keyword st "FROM";
            let rec supers acc =
              let s = ident st in
              if at_punct st "," then begin
                advance st;
                supers (s :: acc)
              end
              else List.rev (s :: acc)
            in
            cc_supers := supers []
        | Some "TUPLE" ->
            advance st;
            eat_punct st "(";
            cc_attrs := parse_attr_list st;
            eat_punct st ")"
        | Some "METHODS" ->
            advance st;
            (* the paper writes "METHODS:"; the colon is optional here *)
            if at_punct st ":" then advance st;
            let rec methods acc =
              match peek st with
              | Lexer.Ident _ when not (at_clause_keyword st) ->
                  let decl = parse_method_decl st in
                  if at_punct st "," then begin
                    advance st;
                    methods (decl :: acc)
                  end
                  else List.rev (decl :: acc)
              | _ -> List.rev acc
            in
            cc_methods := methods []
        | _ -> continue := false
      done;
      Ast.Create_class
        { cc_name;
          cc_supers = !cc_supers;
          cc_attrs = !cc_attrs;
          cc_methods = !cc_methods;
          cc_layout = !cc_layout
        }
  | Some ("BTREE" | "HASH" | "INDEX") ->
      let ci_kind =
        match Lexer.keyword (peek st) with
        | Some "HASH" ->
            advance st;
            `Hash
        | Some "BTREE" ->
            advance st;
            `Btree
        | _ -> `Btree
      in
      eat_keyword st "INDEX";
      eat_keyword st "ON";
      let ci_class = ident st in
      eat_punct st "(";
      let ci_attr = ident st in
      eat_punct st ")";
      Ast.Create_index { ci_class; ci_attr; ci_kind }
  | _ -> parse_error "expected CLASS or INDEX after CREATE"

let parse_new st =
  advance st (* NEW *);
  let no_class = ident st in
  eat_punct st "<";
  let no_values = if at_punct st ">" then [] else parse_expr_list st in
  eat_punct st ">";
  Ast.New_object { no_class; no_values }

let parse_update st =
  advance st (* UPDATE *);
  let up_class = ident st in
  let up_var =
    match peek st with
    | Lexer.Ident _ when not (at_clause_keyword st) && not (at_keyword st "SET") -> ident st
    | _ -> up_class
  in
  eat_keyword st "SET";
  let rec sets acc =
    let attr = ident st in
    eat_punct st "=";
    let e = parse_expr st in
    let acc = (attr, e) :: acc in
    if at_punct st "," then begin
      advance st;
      sets acc
    end
    else List.rev acc
  in
  let up_set = sets [] in
  let up_where =
    if at_keyword st "WHERE" then begin
      advance st;
      Some (parse_predicate_toks st)
    end
    else None
  in
  Ast.Update { up_class; up_var; up_set; up_where }

let parse_delete st =
  advance st (* DELETE *);
  eat_keyword st "FROM";
  let de_class = ident st in
  let de_var =
    match peek st with
    | Lexer.Ident _ when not (at_clause_keyword st) -> ident st
    | _ -> de_class
  in
  let de_where =
    if at_keyword st "WHERE" then begin
      advance st;
      Some (parse_predicate_toks st)
    end
    else None
  in
  Ast.Delete { de_class; de_var; de_where }

(* DEFINE METHOD needs the raw source because the body is MoodC, not
   MOODSQL. We split at the first '{'. *)
let parse_define_method source =
  let brace =
    match String.index_opt source '{' with
    | Some i -> i
    | None -> parse_error "DEFINE METHOD requires a { body }"
  in
  let header = String.sub source 0 brace in
  let body, _ = Lexer.raw_braces source ~start:brace in
  (* header: DEFINE METHOD Class::name (params) RetType — '::' lexes as
     two ':' which are not MOODSQL puncts, so pre-split on "::" . *)
  let header =
    match String.index_opt header ':' with
    | Some i when i + 1 < String.length header && header.[i + 1] = ':' ->
        String.sub header 0 i ^ " " ^ String.sub header (i + 2) (String.length header - i - 2)
    | Some _ | None -> header
  in
  let st = { toks = Lexer.tokenize header } in
  eat_keyword st "DEFINE";
  eat_keyword st "METHOD";
  let dm_class = ident st in
  let decl = parse_method_decl st in
  Ast.Define_method { dm_class; dm_decl = decl; dm_body = body }

let parse_drop source =
  (* DROP METHOD Class::name | DROP NAME ident *)
  let source =
    match String.index_opt source ':' with
    | Some i when i + 1 < String.length source && source.[i + 1] = ':' ->
        String.sub source 0 i ^ " " ^ String.sub source (i + 2) (String.length source - i - 2)
    | Some _ | None -> source
  in
  let st = { toks = Lexer.tokenize source } in
  eat_keyword st "DROP";
  if at_keyword st "NAME" then begin
    advance st;
    Ast.Drop_name (ident st)
  end
  else begin
    eat_keyword st "METHOD";
    let xm_class = ident st in
    let xm_name = ident st in
    Ast.Drop_method { xm_class; xm_name }
  end

let parse_name st =
  advance st (* NAME *);
  let nm_name = ident st in
  eat_keyword st "AS";
  let nm_query = parse_query_toks st in
  Ast.Name_object { nm_name; nm_query }

let parse_set st =
  advance st (* SET *);
  let set_name = ident st in
  let set_value =
    match peek st with
    | Lexer.Ident v ->
        advance st;
        v
    | Lexer.Int n ->
        advance st;
        string_of_int n
    | _ -> parse_error "SET %s expects an identifier or an integer" set_name
  in
  Ast.Set { set_name; set_value }

let parse_explain st =
  advance st (* EXPLAIN *);
  let ex_analyze = at_keyword st "ANALYZE" in
  if ex_analyze then advance st;
  Ast.Explain { ex_analyze; ex_query = parse_query_toks st }

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

(* First word of the statement, scanned without the lexer: DEFINE
   METHOD statements contain a MoodC body the MOODSQL lexer rejects. *)
let first_keyword source =
  let n = String.length source in
  let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' in
  let rec skip i = if i < n && is_space source.[i] then skip (i + 1) else i in
  let start = skip 0 in
  let rec word i =
    if i < n
       && ((source.[i] >= 'a' && source.[i] <= 'z')
          || (source.[i] >= 'A' && source.[i] <= 'Z'))
    then word (i + 1)
    else i
  in
  let stop = word start in
  if stop > start then Some (String.uppercase_ascii (String.sub source start (stop - start)))
  else None

let finish st result =
  (match peek st with
  | Lexer.Punct ";" -> advance st
  | _ -> ());
  match peek st with
  | Lexer.Eof -> result
  | _ -> parse_error "trailing input after statement"

let parse source =
  try
    match first_keyword source with
    | Some "DEFINE" -> parse_define_method source
    | Some "DROP" -> parse_drop source
    | _ ->
        let st = { toks = Lexer.tokenize source } in
        let result =
          match Lexer.keyword (peek st) with
          | Some "SELECT" -> Ast.Select (parse_query_toks st)
          | Some "CREATE" -> parse_create st
          | Some "ALTER" -> parse_alter st
          | Some "NAME" -> parse_name st
          | Some "NEW" -> parse_new st
          | Some "UPDATE" -> parse_update st
          | Some "DELETE" -> parse_delete st
          | Some "SET" -> parse_set st
          | Some "EXPLAIN" -> parse_explain st
          | Some other -> parse_error "unknown statement %s" other
          | None -> parse_error "empty statement"
        in
        finish st result
  with Lexer.Lex_error msg -> parse_error "lexical error: %s" msg

let parse_query source =
  match parse source with
  | Ast.Select q -> q
  | Ast.Create_class _ | Ast.Create_index _ | Ast.New_object _ | Ast.Update _
  | Ast.Delete _ | Ast.Define_method _ | Ast.Drop_method _ | Ast.Name_object _
  | Ast.Drop_name _ | Ast.Alter_class_layout _ | Ast.Set _ | Ast.Explain _ ->
      parse_error "expected a SELECT statement"

let parse_predicate source =
  try
    let st = { toks = Lexer.tokenize source } in
    let p = parse_predicate_toks st in
    match peek st with
    | Lexer.Eof -> p
    | _ -> parse_error "trailing input after predicate"
  with Lexer.Lex_error msg -> parse_error "lexical error: %s" msg
