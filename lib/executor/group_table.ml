module Ast = Mood_sql.Ast
module Value = Mood_model.Value
module Collection = Mood_algebra.Collection

(* Group identity is [Value.equal] over the key list, so the hash is
   [Value.hash], which agrees with it. *)
let hash_key key = Value.hash (Value.List key)

module Key_table = Hashtbl.Make (struct
  type t = Value.t list

  let equal = List.equal Value.equal
  let hash = hash_key
end)

type 'acc group = { mutable first : Eval.row option; accs : 'acc array }

type 'acc t = {
  labels : string array;
  fresh : int -> 'acc;
  index : 'acc group Key_table.t;
  mutable groups : 'acc group list; (* newest first *)
}

let create ~labels ~fresh =
  { labels = Array.of_list labels; fresh; index = Key_table.create 16; groups = [] }

let find t key =
  match Key_table.find_opt t.index key with
  | Some g -> g
  | None ->
      let g = { first = None; accs = Array.init (Array.length t.labels) t.fresh } in
      Key_table.add t.index key g;
      t.groups <- g :: t.groups;
      g

let keep_first g make x = match g.first with None -> g.first <- Some (make x) | Some _ -> ()

let iter_rows t ~final k =
  let no_aggs = Array.length t.labels = 0 in
  List.iter
    (fun g ->
      let first = Option.value g.first ~default:[] in
      if no_aggs then k first
      else
        let fields = Array.to_list (Array.mapi (fun i acc -> (t.labels.(i), final i acc)) g.accs) in
        k (first @ [ ("#agg", { Collection.oid = None; value = Value.Tuple fields }) ]))
    (List.rev t.groups)

let better fn a b =
  match Eval.compare_values a b with
  | Some c -> if (fn = Ast.Min && c <= 0) || (fn = Ast.Max && c >= 0) then a else b
  | None -> a
