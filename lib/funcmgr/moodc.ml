module Value = Mood_model.Value
module Operand = Mood_model.Operand
module Oid = Mood_model.Oid

exception Parse_error of string

let parse_error fmt = Format.kasprintf (fun m -> raise (Parse_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Preprocessing                                                       *)

let type_substitutions =
  [ ("int", "Integer"); ("long", "LongInteger"); ("float", "Float");
    ("double", "Float"); ("char", "Char"); ("bool", "Boolean") ]

let is_word_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let preprocess source =
  let buf = Buffer.create (String.length source) in
  let n = String.length source in
  let i = ref 0 in
  while !i < n do
    let c = source.[!i] in
    if is_word_char c then begin
      let start = !i in
      while !i < n && is_word_char source.[!i] do
        incr i
      done;
      let word = String.sub source start (!i - start) in
      match List.assoc_opt word type_substitutions with
      | Some replacement -> Buffer.add_string buf replacement
      | None -> Buffer.add_string buf word
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)

type token =
  | T_int of int
  | T_float of float
  | T_string of string
  | T_char of char
  | T_ident of string
  | T_punct of string
  | T_eof

let punctuation =
  [ "&&"; "||"; "=="; "!="; "<="; ">="; "{"; "}"; "("; ")"; ";"; ","; "."; "+";
    "-"; "*"; "/"; "%"; "<"; ">"; "="; "!" ]

let tokenize source =
  let n = String.length source in
  let tokens = ref [] in
  let i = ref 0 in
  let push t = tokens := t :: !tokens in
  while !i < n do
    let c = source.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c >= '0' && c <= '9' then begin
      let start = !i in
      while !i < n && ((source.[!i] >= '0' && source.[!i] <= '9') || source.[!i] = '.') do
        incr i
      done;
      let text = String.sub source start (!i - start) in
      if String.contains text '.' then push (T_float (float_of_string text))
      else push (T_int (int_of_string text))
    end
    else if is_word_char c then begin
      let start = !i in
      while !i < n && is_word_char source.[!i] do
        incr i
      done;
      push (T_ident (String.sub source start (!i - start)))
    end
    else if c = '"' then begin
      incr i;
      let start = !i in
      while !i < n && source.[!i] <> '"' do
        incr i
      done;
      if !i >= n then parse_error "unterminated string literal";
      push (T_string (String.sub source start (!i - start)));
      incr i
    end
    else if c = '\'' then begin
      if !i + 2 >= n || source.[!i + 2] <> '\'' then parse_error "bad char literal";
      push (T_char source.[!i + 1]);
      i := !i + 3
    end
    else begin
      let two = if !i + 1 < n then String.sub source !i 2 else "" in
      if List.mem two punctuation then begin
        push (T_punct two);
        i := !i + 2
      end
      else begin
        let one = String.make 1 c in
        if List.mem one punctuation then begin
          push (T_punct one);
          incr i
        end
        else parse_error "unexpected character %C" c
      end
    end
  done;
  List.rev (T_eof :: !tokens)

(* ------------------------------------------------------------------ *)
(* AST                                                                 *)

type binop = Add | Sub | Mul | Div | Mod | Lt | Le | Gt | Ge | Eq | Ne | And | Or

type expr =
  | Lit of Value.t
  | Ident of string
  | Member of expr * string
  | Unary_minus of expr
  | Not of expr
  | Binop of binop * expr * expr

type stmt =
  | Return of expr
  | If of expr * stmt * stmt option
  | While of expr * stmt
  | Block of stmt list
  | Declare of string * string * expr  (* type name, var, init *)
  | Assign of string * expr

type ast = { params : string list; body : stmt list }

(* ------------------------------------------------------------------ *)
(* Parser (recursive descent)                                          *)

type parser_state = { mutable toks : token list }

let peek ps = match ps.toks with [] -> T_eof | t :: _ -> t

let advance ps = match ps.toks with [] -> () | _ :: rest -> ps.toks <- rest

let expect_punct ps p =
  match peek ps with
  | T_punct q when String.equal p q -> advance ps
  | _ -> parse_error "expected %S" p

let rec parse_primary ps =
  match peek ps with
  | T_int v ->
      advance ps;
      Lit (Value.Int v)
  | T_float v ->
      advance ps;
      Lit (Value.Float v)
  | T_string v ->
      advance ps;
      Lit (Value.Str v)
  | T_char v ->
      advance ps;
      Lit (Value.Char v)
  | T_ident "true" ->
      advance ps;
      Lit (Value.Bool true)
  | T_ident "false" ->
      advance ps;
      Lit (Value.Bool false)
  | T_ident name ->
      advance ps;
      parse_members ps (Ident name)
  | T_punct "(" ->
      advance ps;
      let e = parse_expr ps in
      expect_punct ps ")";
      parse_members ps e
  | T_punct "-" ->
      advance ps;
      Unary_minus (parse_primary ps)
  | T_punct "!" ->
      advance ps;
      Not (parse_primary ps)
  | T_punct p -> parse_error "unexpected %S in expression" p
  | T_eof -> parse_error "unexpected end of body"

and parse_members ps e =
  match peek ps with
  | T_punct "." -> begin
      advance ps;
      match peek ps with
      | T_ident field ->
          advance ps;
          parse_members ps (Member (e, field))
      | _ -> parse_error "expected attribute name after '.'"
    end
  | _ -> e

and parse_binary ps level =
  (* Precedence climbing: levels from loosest to tightest. *)
  let table =
    [| [ ("||", Or) ];
       [ ("&&", And) ];
       [ ("==", Eq); ("!=", Ne) ];
       [ ("<", Lt); ("<=", Le); (">", Gt); (">=", Ge) ];
       [ ("+", Add); ("-", Sub) ];
       [ ("*", Mul); ("/", Div); ("%", Mod) ]
    |]
  in
  if level >= Array.length table then parse_primary ps
  else begin
    let lhs = ref (parse_binary ps (level + 1)) in
    let continue = ref true in
    while !continue do
      match peek ps with
      | T_punct p -> begin
          match List.assoc_opt p table.(level) with
          | Some op ->
              advance ps;
              let rhs = parse_binary ps (level + 1) in
              lhs := Binop (op, !lhs, rhs)
          | None -> continue := false
        end
      | _ -> continue := false
    done;
    !lhs
  end

and parse_expr ps = parse_binary ps 0

let rec parse_stmt ps =
  match peek ps with
  | T_ident "return" ->
      advance ps;
      let e = parse_expr ps in
      expect_punct ps ";";
      Return e
  | T_ident "while" ->
      advance ps;
      expect_punct ps "(";
      let cond = parse_expr ps in
      expect_punct ps ")";
      While (cond, parse_stmt ps)
  | T_ident "if" ->
      advance ps;
      expect_punct ps "(";
      let cond = parse_expr ps in
      expect_punct ps ")";
      let then_branch = parse_stmt ps in
      let else_branch =
        match peek ps with
        | T_ident "else" ->
            advance ps;
            Some (parse_stmt ps)
        | _ -> None
      in
      If (cond, then_branch, else_branch)
  | T_punct "{" ->
      advance ps;
      let rec loop acc =
        match peek ps with
        | T_punct "}" ->
            advance ps;
            List.rev acc
        | T_eof -> parse_error "unterminated block"
        | _ -> loop (parse_stmt ps :: acc)
      in
      Block (loop [])
  | T_ident type_name
    when List.exists
           (fun (_, mood) -> String.equal mood type_name)
           type_substitutions
         || String.equal type_name "String" -> begin
      advance ps;
      match peek ps with
      | T_ident var -> begin
          advance ps;
          expect_punct ps "=";
          let init = parse_expr ps in
          expect_punct ps ";";
          Declare (type_name, var, init)
        end
      | _ -> parse_error "expected variable name after type %s" type_name
    end
  | T_ident name -> begin
      advance ps;
      match peek ps with
      | T_punct "=" ->
          advance ps;
          let e = parse_expr ps in
          expect_punct ps ";";
          Assign (name, e)
      | _ -> parse_error "expected '=' after identifier %s" name
    end
  | T_punct p -> parse_error "unexpected %S at statement start" p
  | T_eof -> parse_error "unexpected end of body"
  | T_int _ | T_float _ | T_string _ | T_char _ ->
      parse_error "statement cannot start with a literal"

let parse ~params source =
  let ps = { toks = tokenize source } in
  let rec loop acc =
    match peek ps with
    | T_eof -> List.rev acc
    | _ -> loop (parse_stmt ps :: acc)
  in
  { params; body = loop [] }

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)

type env = {
  deref : Oid.t -> Value.t option;
  self : Value.t;
  args : Value.t list;
}

exception Returned of Value.t

type frame = (string, Value.t) Hashtbl.t

(* Pairwise lookup tolerant of an argument-count mismatch (checked by
   the Function Manager before the call). *)
let rec assoc_param params args name =
  match params, args with
  | p :: _, a :: _ when String.equal p name -> Some a
  | _ :: ps, _ :: rest -> assoc_param ps rest name
  | _, _ -> None

(* The steps [run] and [lower] share, each with its error. *)

let of_self env name =
  match Value.tuple_get env.self name with
  | Some v -> v
  | None ->
      raise (Operand.Type_error (Printf.sprintf "unbound identifier %s in method body" name))

let member env base field =
  let target =
    match base with
    | Value.Ref oid -> begin
        match env.deref oid with
        | Some v -> v
        | None ->
            raise (Operand.Type_error (Printf.sprintf "dangling reference %s" (Oid.to_string oid)))
      end
    | other -> other
  in
  match Value.tuple_get target field with
  | Some v -> v
  | None -> raise (Operand.Type_error (Printf.sprintf "no attribute %s" field))

let negate = function
  | Value.Int i -> Value.Int (-i)
  | Value.Long l -> Value.Long (Int64.neg l)
  | Value.Float f -> Value.Float (-.f)
  | _ -> raise (Operand.Type_error "unary minus on non-numeric value")

(* Loops are bounded: a method body that spins 10^7 iterations is a
   runaway, reported as the kernel's Exception rather than a hung
   server. *)
let loop_fuel = 10_000_000

let runaway () = raise (Operand.Type_error "while loop exceeded the iteration budget")

(* An [if] or [while] condition: anything but a Boolean is a run-time
   type error, which the Function Manager reports as the kernel's
   Exception. *)
let condition = function
  | Value.Bool b -> b
  | _ -> raise (Operand.Type_error "condition did not evaluate to a Boolean")

let lookup env frame ast name =
  match Hashtbl.find_opt frame name with
  | Some v -> v
  | None -> begin
      (* Parameters shadow attributes of self, as in C++. *)
      match assoc_param ast.params env.args name with
      | Some v -> v
      | None -> of_self env name
    end

let binop_eval op a b =
  let open Operand in
  match op with
  | Add -> add a b
  | Sub -> sub a b
  | Mul -> mul a b
  | Div -> div a b
  | Mod -> modulo a b
  | Lt -> compare_op `Lt a b
  | Le -> compare_op `Le a b
  | Gt -> compare_op `Gt a b
  | Ge -> compare_op `Ge a b
  | Eq -> compare_op `Eq a b
  | Ne -> compare_op `Ne a b
  | And -> logical_and a b
  | Or -> logical_or a b

let rec eval_expr env frame ast e =
  match e with
  | Lit v -> v
  | Ident name -> lookup env frame ast name
  | Member (e, field) -> member env (eval_expr env frame ast e) field
  | Unary_minus e -> negate (eval_expr env frame ast e)
  | Not e ->
      Operand.to_value (Operand.logical_not (Operand.of_value (eval_expr env frame ast e)))
  | Binop (op, l, r) ->
      let a = Operand.of_value (eval_expr env frame ast l) in
      let b = Operand.of_value (eval_expr env frame ast r) in
      Operand.to_value (binop_eval op a b)

let rec exec_stmt env frame ast = function
  | Return e -> raise (Returned (eval_expr env frame ast e))
  | If (cond, then_branch, else_branch) ->
      if condition (eval_expr env frame ast cond) then exec_stmt env frame ast then_branch
      else begin
        match else_branch with
        | Some s -> exec_stmt env frame ast s
        | None -> ()
      end
  | While (cond, body) ->
      let fuel = ref loop_fuel in
      while condition (eval_expr env frame ast cond) do
        decr fuel;
        if !fuel <= 0 then runaway ();
        exec_stmt env frame ast body
      done
  | Block stmts -> List.iter (exec_stmt env frame ast) stmts
  | Declare (_, var, init) -> Hashtbl.replace frame var (eval_expr env frame ast init)
  | Assign (var, e) -> Hashtbl.replace frame var (eval_expr env frame ast e)

let run ast env =
  let frame : frame = Hashtbl.create 8 in
  try
    List.iter (exec_stmt env frame ast) ast.body;
    Value.Null
  with Returned v -> v

let interpret ~params source env = run (parse ~params source) env

(* ------------------------------------------------------------------ *)
(* Lowering to closures                                                *)

(* [lower] resolves every identifier once and turns each node into a
   closure over its lowered children, so a call dispatches on nothing
   but data: no frame table, no name lookup in a table, no exception to
   return. Its semantics are [run]'s, error messages included. Two
   sentinels stand for the states [run] keeps in its frame table and
   its [Returned] exception. They are allocated here, at run time, so
   no value a body computes is physically equal to either. *)

(* A local slot before the body first assigns it: the identifier still
   means the parameter or attribute it shadows. *)
let unset = Value.Str (String.make 1 'u')

(* What a statement that did not execute a [return] yields. *)
let no_return = Value.Str (String.make 1 'r')

type slots = Value.t array

type code = { nslots : int; entry : env -> slots -> Value.t }

let rec index_of name i = function
  | [] -> None
  | p :: rest -> if String.equal p name then Some i else index_of name (i + 1) rest

(* Every name a body declares or assigns, in first-appearance order. *)
let locals_of body =
  let rec stmt acc = function
    | Return _ -> acc
    | If (_, t, e) -> Option.fold ~none:(stmt acc t) ~some:(stmt (stmt acc t)) e
    | While (_, s) -> stmt acc s
    | Block ss -> List.fold_left stmt acc ss
    | Declare (_, v, _) | Assign (v, _) -> if List.mem v acc then acc else acc @ [ v ]
  in
  List.fold_left stmt [] body

(* The operand check [Operand.of_value] makes before an operator reads
   its left side, made before the right side runs. *)
let check_operand = function
  | Value.Null | Value.Tuple _ | Value.Set _ | Value.List _ | Value.Ref _ as v ->
      ignore (Operand.of_value v)
  | Value.Int _ | Value.Long _ | Value.Float _ | Value.Str _ | Value.Char _ | Value.Bool _ -> ()

let lower_binop op =
  let generic va vb =
    Operand.to_value (binop_eval op (Operand.of_value va) (Operand.of_value vb))
  in
  let compare holds = Operand.int32_compare (fun c -> Value.Bool (holds c)) generic in
  match op with
  | Add -> Operand.int32_fast `Add generic
  | Sub -> Operand.int32_fast `Sub generic
  | Mul -> Operand.int32_fast `Mul generic
  | Div -> Operand.int32_fast `Div generic
  | Mod -> Operand.int32_fast `Mod generic
  | Lt -> compare (fun c -> c < 0)
  | Le -> compare (fun c -> c <= 0)
  | Gt -> compare (fun c -> c > 0)
  | Ge -> compare (fun c -> c >= 0)
  | Eq -> compare (fun c -> c = 0)
  | Ne -> compare (fun c -> c <> 0)
  | And -> (
      fun va vb ->
        match va, vb with Value.Bool x, Value.Bool y -> Value.Bool (x && y) | _ -> generic va vb)
  | Or -> (
      fun va vb ->
        match va, vb with Value.Bool x, Value.Bool y -> Value.Bool (x || y) | _ -> generic va vb)

let rec lower_expr params locals e : env -> slots -> Value.t =
  match e with
  | Lit v -> fun _ _ -> v
  | Ident name -> begin
      (* A local, once assigned, then a parameter the call supplied,
         then an attribute of self. *)
      let outer =
        match index_of name 0 params with
        | Some i -> (
            fun env _ ->
              match List.nth_opt env.args i with Some v -> v | None -> of_self env name)
        | None -> fun env _ -> of_self env name
      in
      match index_of name 0 locals with
      | Some slot ->
          fun env slots ->
            let v = slots.(slot) in
            if v != unset then v else outer env slots
      | None -> outer
    end
  | Member (e, field) ->
      let base = lower_expr params locals e in
      fun env slots -> member env (base env slots) field
  | Unary_minus e ->
      let operand = lower_expr params locals e in
      fun env slots -> negate (operand env slots)
  | Not e -> (
      let operand = lower_expr params locals e in
      fun env slots ->
        match operand env slots with
        | Value.Bool b -> Value.Bool (not b)
        | v -> Operand.to_value (Operand.logical_not (Operand.of_value v)))
  | Binop (op, l, r) ->
      let left = lower_expr params locals l
      and right = lower_expr params locals r
      and f = lower_binop op in
      fun env slots ->
        let va = left env slots in
        check_operand va;
        f va (right env slots)

(* A statement's closure yields [no_return] unless it executed a
   [return], whose value it yields. *)
let rec lower_stmt params locals s : env -> slots -> Value.t =
  let expr = lower_expr params locals and stmt = lower_stmt params locals in
  match s with
  | Return e -> expr e
  | If (cond, then_branch, else_branch) -> begin
      let c = expr cond and t = stmt then_branch in
      match else_branch with
      | Some e ->
          let e = stmt e in
          fun env slots -> if condition (c env slots) then t env slots else e env slots
      | None -> fun env slots -> if condition (c env slots) then t env slots else no_return
    end
  | While (cond, body) ->
      let c = expr cond and b = stmt body in
      fun env slots ->
        let rec loop fuel =
          if not (condition (c env slots)) then no_return
          else begin
            let fuel = fuel - 1 in
            if fuel <= 0 then runaway ();
            let r = b env slots in
            if r == no_return then loop fuel else r
          end
        in
        loop loop_fuel
  | Block stmts -> sequence (List.map stmt stmts)
  | Declare (_, var, e) | Assign (var, e) ->
      let slot = Option.get (index_of var 0 locals) and v = expr e in
      fun env slots ->
        slots.(slot) <- v env slots;
        no_return

and sequence = function
  | [] -> fun _ _ -> no_return
  | [ s ] -> s
  | s :: rest ->
      let rest = sequence rest in
      fun env slots ->
        let r = s env slots in
        if r == no_return then rest env slots else r

let lower ast =
  let locals = locals_of ast.body in
  let entry = sequence (List.map (lower_stmt ast.params locals) ast.body) in
  { nslots = List.length locals; entry }

let compile ~params source = lower (parse ~params source)

let exec code env =
  let slots = if code.nslots = 0 then [||] else Array.make code.nslots unset in
  let r = code.entry env slots in
  if r == no_return then Value.Null else r
