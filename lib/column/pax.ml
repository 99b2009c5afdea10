module Value = Mood_model.Value
module Mtype = Mood_model.Mtype

(* The columns of a PAX page: all attributes of a fixed run of heap
   slots, re-arranged into per-attribute arrays with null bitmaps and a
   page-local dictionary per string attribute. The page is held only
   as this [Batch.t]; the row heap stays authoritative. *)

type akind = KInt | KFloat | KStr | KOther

let kind_of_type = function
  | Mtype.Basic Mtype.Integer -> KInt
  | Mtype.Basic Mtype.Float -> KFloat
  | Mtype.Basic (Mtype.String _) -> KStr
  | Mtype.Basic (Mtype.Long_integer | Mtype.Char | Mtype.Boolean)
  | Mtype.Tuple _ | Mtype.Set _ | Mtype.List _ | Mtype.Reference _ ->
      KOther

(* A string column's codes renumbered into the page dictionary: the
   distinct strings of its non-null rows in first-seen order, each row
   coded by its string's position, NULL rows coded 0. Code 0 must
   resolve even for NULL rows (a reader that loses the null bitmap,
   like the scan oracle's control, reads them), so an all-null column
   gets the one entry [""]. Every batch [page_columns] builds carries
   this dictionary, so stale and repeated entries a merge brings in
   go, and a merged page's columns equal a fresh build's. *)
let renumber ~n (col : Batch.column) ~codes ~dict =
  let renumbered = Array.make (Array.length dict) (-1) in
  let table = Hashtbl.create 64 in
  let page_dict = ref [] and size = ref 0 in
  let page_codes = Array.make n 0 in
  for i = 0 to n - 1 do
    if not (Batch.is_null col i) then begin
      let c = codes.(i) in
      if renumbered.(c) < 0 then
        renumbered.(c) <-
          (let s = dict.(c) in
           match Hashtbl.find_opt table s with
           | Some code -> code
           | None ->
               Hashtbl.add table s !size;
               page_dict := s :: !page_dict;
               incr size;
               !size - 1);
      page_codes.(i) <- renumbered.(c)
    end
  done;
  (page_codes, if !size = 0 then [| "" |] else Array.of_list (List.rev !page_dict))

let field attr row = match Value.tuple_get row attr with Some v -> v | None -> Value.Null

(* A non-null cell [kind]'s typed array can hold. *)
let fits kind v =
  match kind, v with
  | _, Value.Null -> true
  | KInt, Value.Int _ | KFloat, Value.Float _ | KStr, Value.Str _ -> true
  | (KInt | KFloat | KStr | KOther), _ -> false

(* One attribute's column over a page's rows: row [j] is base row
   [from_base.(j)] when that is [>= 0], else the attribute of the tuple
   [rows.(j)]. Int, float and string attributes get their typed arrays;
   a column that meets an off-kind cell, and every [KOther] column, is
   boxed ([Values]). A string column's codes index the base's
   dictionary followed by the other rows' strings until [renumber]
   turns them into the page dictionary. *)
let page_column ~n ~from_base ~rows ~attr kind (bcol : Batch.column option) =
  let cell j =
    let i = from_base.(j) in
    if i >= 0 then Batch.cell (Option.get bcol) i else field attr rows.(j)
  in
  let base_typed =
    match kind, bcol with
    | KInt, Some { Batch.data = Batch.Ints _; _ }
    | KFloat, Some { Batch.data = Batch.Floats _; _ }
    | KStr, Some { Batch.data = Batch.Strs _; _ } ->
        true
    | _, _ -> false
  in
  let rec typed j =
    j >= n || (((from_base.(j) >= 0 && base_typed) || fits kind (cell j)) && typed (j + 1))
  in
  let nulls = Batch.fresh_nullbits n in
  let any = ref false in
  let null j =
    Batch.set_null nulls j;
    any := true
  in
  (* Row [j]'s cell when it is not NULL, unboxed where the column is
     typed: from the base's array, or the tuple's field. Each loop
     matches the base column per row rather than calling a closure, so
     no float is boxed on the way. *)
  let data =
    match kind with
    | KInt when typed 0 ->
        let a = Array.make n 0 in
        for j = 0 to n - 1 do
          let i = from_base.(j) in
          match bcol with
          | _ when i < 0 -> (
              match field attr rows.(j) with Value.Int x -> a.(j) <- x | _ -> null j)
          | Some col when Batch.is_null col i -> null j
          | Some { Batch.data = Batch.Ints b; _ } -> a.(j) <- b.(i)
          | Some col -> ( match Batch.cell col i with Value.Int x -> a.(j) <- x | _ -> null j)
          | None -> null j
        done;
        Batch.Ints a
    | KFloat when typed 0 ->
        let a = Array.make n 0. in
        for j = 0 to n - 1 do
          let i = from_base.(j) in
          match bcol with
          | _ when i < 0 -> (
              match field attr rows.(j) with Value.Float x -> a.(j) <- x | _ -> null j)
          | Some col when Batch.is_null col i -> null j
          | Some { Batch.data = Batch.Floats b; _ } -> a.(j) <- b.(i)
          | Some col -> (
              match Batch.cell col i with Value.Float x -> a.(j) <- x | _ -> null j)
          | None -> null j
        done;
        Batch.Floats a
    | KStr when typed 0 ->
        let dict = match bcol with Some { Batch.data = Batch.Strs { dict; _ }; _ } -> dict | _ -> [||] in
        let codes = Array.make n 0 in
        let extra = ref [] and next = ref (Array.length dict) in
        let add j = function
          | Value.Str s ->
              codes.(j) <- !next;
              extra := s :: !extra;
              incr next
          | _ -> null j
        in
        for j = 0 to n - 1 do
          let i = from_base.(j) in
          match bcol with
          | _ when i < 0 -> add j (field attr rows.(j))
          | Some col when Batch.is_null col i -> null j
          | Some { Batch.data = Batch.Strs { codes = b; _ }; _ } -> codes.(j) <- b.(i)
          | Some col -> add j (Batch.cell col i)
          | None -> null j
        done;
        Batch.Strs { codes; dict = Array.append dict (Array.of_list (List.rev !extra)) }
    | KInt | KFloat | KStr | KOther ->
        Batch.Values
          (Array.init n (fun j ->
               match cell j with
               | Value.Null ->
                   null j;
                   Value.Null
               | v -> v))
  in
  let col = { Batch.data; nulls = (if !any then nulls else Batch.no_nulls) } in
  match data with
  | Batch.Strs { codes; dict } ->
      let codes, dict = renumber ~n col ~codes ~dict in
      { col with Batch.data = Batch.Strs { codes; dict } }
  | Batch.Ints _ | Batch.Floats _ | Batch.Values _ -> col

let page_columns ~schema ~slots ~base ~from_base ~rows =
  let n = Array.length slots in
  if Array.length from_base <> n || Array.length rows <> n then
    invalid_arg "Pax.page_columns: slots/from_base/rows mismatch";
  { Batch.n;
    slots;
    columns =
      Array.mapi
        (fun c (attr, kind) ->
          let bcol = Option.map (fun (b : Batch.t) -> snd b.Batch.columns.(c)) base in
          (attr, page_column ~n ~from_base ~rows ~attr kind bcol))
        schema
  }
