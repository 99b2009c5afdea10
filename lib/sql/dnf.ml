type and_term = Ast.predicate list

let negate_comparison = function
  | Ast.Eq -> Ast.Ne
  | Ast.Ne -> Ast.Eq
  | Ast.Lt -> Ast.Ge
  | Ast.Le -> Ast.Gt
  | Ast.Gt -> Ast.Le
  | Ast.Ge -> Ast.Lt

let rec push_not p =
  match p with
  | Ast.Ptrue | Ast.Pfalse | Ast.Cmp _ | Ast.Is_null _ -> p
  | Ast.And (a, b) -> Ast.And (push_not a, push_not b)
  | Ast.Or (a, b) -> Ast.Or (push_not a, push_not b)
  | Ast.Not inner -> begin
      match inner with
      | Ast.Ptrue -> Ast.Pfalse
      | Ast.Pfalse -> Ast.Ptrue
      | Ast.Cmp (op, a, b) -> Ast.Cmp (negate_comparison op, a, b)
      | Ast.Is_null (e, negated) -> Ast.Is_null (e, not negated)
      | Ast.Not p -> push_not p
      | Ast.And (a, b) -> Ast.Or (push_not (Ast.Not a), push_not (Ast.Not b))
      | Ast.Or (a, b) -> Ast.And (push_not (Ast.Not a), push_not (Ast.Not b))
    end

let dedup term =
  let rec go seen = function
    | [] -> List.rev seen
    | p :: rest ->
        if List.exists (fun q -> Ast.predicate_to_string q = Ast.predicate_to_string p) seen
        then go seen rest
        else go (p :: seen) rest
  in
  go [] term

let of_predicate p =
  let rec go p =
    match p with
    | Ast.Ptrue -> [ [] ]
    | Ast.Pfalse -> []
    | Ast.Cmp _ | Ast.Is_null _ | Ast.Not _ -> [ [ p ] ]
    | Ast.Or (a, b) -> go a @ go b
    | Ast.And (a, b) ->
        let left = go a and right = go b in
        List.concat_map (fun l -> List.map (fun r -> l @ r) right) left
  in
  List.map dedup (go (push_not p))

let to_predicate terms =
  match terms with
  | [] -> Ast.Pfalse
  | t :: rest -> List.fold_left (fun acc u -> Ast.Or (acc, Ast.conj u)) (Ast.conj t) rest
