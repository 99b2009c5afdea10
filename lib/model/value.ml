type t =
  | Null
  | Int of int
  | Long of int64
  | Float of float
  | Str of string
  | Char of char
  | Bool of bool
  | Tuple of (string * t) list
  | Set of t list
  | List of t list
  | Ref of Oid.t

(* Constructor rank for ordering values of different shapes. Numerics
   share a rank so they compare by numeric value. *)
let rank = function
  | Null -> 0
  | Int _ | Long _ | Float _ -> 1
  | Str _ -> 2
  | Char _ -> 3
  | Bool _ -> 4
  | Tuple _ -> 5
  | Set _ -> 6
  | List _ -> 7
  | Ref _ -> 8

let numeric = function
  | Int i -> Some (float_of_int i)
  | Long l -> Some (Int64.to_float l)
  | Float f -> Some f
  | Null | Str _ | Char _ | Bool _ | Tuple _ | Set _ | List _ | Ref _ -> None

let rec compare a b =
  match a, b with
  | Null, Null -> 0
  | Int _, Int _ | Long _, Long _ | Float _, Float _
  | Int _, Long _ | Long _, Int _
  | Int _, Float _ | Float _, Int _
  | Long _, Float _ | Float _, Long _ -> begin
      match numeric a, numeric b with
      | Some x, Some y -> Float.compare x y
      | _, _ -> assert false
    end
  | Str x, Str y -> String.compare x y
  | Char x, Char y -> Stdlib.Char.compare x y
  | Bool x, Bool y -> Stdlib.Bool.compare x y
  | Tuple xs, Tuple ys ->
      compare_assoc xs ys
  | Set xs, Set ys | List xs, List ys -> compare_lists xs ys
  | Ref x, Ref y -> Oid.compare x y
  | ( ( Null | Int _ | Long _ | Float _ | Str _ | Char _ | Bool _ | Tuple _
      | Set _ | List _ | Ref _ ),
      _ ) ->
      Int.compare (rank a) (rank b)

and compare_lists xs ys =
  match xs, ys with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs', y :: ys' ->
      let c = compare x y in
      if c <> 0 then c else compare_lists xs' ys'

and compare_assoc xs ys =
  match xs, ys with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (n, x) :: xs', (m, y) :: ys' ->
      let c = String.compare n m in
      if c <> 0 then c
      else
        let c = compare x y in
        if c <> 0 then c else compare_assoc xs' ys'

let equal a b = compare a b = 0

(* Agrees with [equal]: a numeric hashes by its float value
   ([Hashtbl.hash] on a float folds -0.0 into 0.0 and all NaNs
   together, as [Float.compare] does). *)
let mix h x = ((h * 31) + x) land max_int

let rec hash v =
  match v with
  | Null -> 0
  | Int i -> Hashtbl.hash (float_of_int i)
  | Long l -> Hashtbl.hash (Int64.to_float l)
  | Float f -> Hashtbl.hash f
  | Str s -> Hashtbl.hash s
  | Char c -> mix 3 (Stdlib.Char.code c)
  | Bool b -> mix 4 (Stdlib.Bool.to_int b)
  | Tuple fields ->
      List.fold_left (fun h (name, x) -> mix (mix h (Hashtbl.hash name)) (hash x)) 5 fields
  | Set xs -> List.fold_left (fun h x -> mix h (hash x)) 6 xs
  | List xs -> List.fold_left (fun h x -> mix h (hash x)) 7 xs
  | Ref o -> mix 8 (Oid.hash o)

let set elements = Set (List.sort_uniq compare elements)

module Pair_set = Set.Make (struct
  type t = Oid.t * Oid.t

  let compare (a, b) (c, d) =
    match Oid.compare a c with 0 -> Oid.compare b d | r -> r
end)

let deep_equal ~deref a b =
  (* [assumed] carries pairs of OIDs currently being compared: on a
     cycle, the coinductive reading of deep equality presumes them
     equal. *)
  let rec go assumed a b =
    match a, b with
    | Ref x, Ref y ->
        if Oid.equal x y then true
        else if Pair_set.mem (x, y) assumed then true
        else begin
          match deref x, deref y with
          | Some vx, Some vy -> go (Pair_set.add (x, y) assumed) vx vy
          | _, _ -> false
        end
    | Tuple xs, Tuple ys ->
        List.length xs = List.length ys
        && List.for_all2
             (fun (n, x) (m, y) -> String.equal n m && go assumed x y)
             xs ys
    | Set xs, Set ys | List xs, List ys ->
        List.length xs = List.length ys && List.for_all2 (go assumed) xs ys
    | ( ( Null | Int _ | Long _ | Float _ | Str _ | Char _ | Bool _ | Tuple _
        | Set _ | List _ | Ref _ ),
        _ ) ->
        equal a b
  in
  go Pair_set.empty a b

let rec type_check v ty =
  match v, ty with
  | Null, _ -> true
  | Int _, Mtype.Basic Mtype.Integer -> true
  | Long _, Mtype.Basic Mtype.Long_integer -> true
  | Float _, Mtype.Basic Mtype.Float -> true
  | Str s, Mtype.Basic (Mtype.String n) -> String.length s <= n
  | Char _, Mtype.Basic Mtype.Char -> true
  | Bool _, Mtype.Basic Mtype.Boolean -> true
  | Tuple fields, Mtype.Tuple attrs ->
      List.length fields = List.length attrs
      && List.for_all2
           (fun (n, v) (m, t) -> String.equal n m && type_check v t)
           fields attrs
  | Set xs, Mtype.Set t | List xs, Mtype.List t ->
      List.for_all (fun x -> type_check x t) xs
  | Ref _, Mtype.Reference _ -> true
  | ( ( Int _ | Long _ | Float _ | Str _ | Char _ | Bool _ | Tuple _ | Set _
      | List _ | Ref _ ),
      _ ) ->
      false

let rec pp ppf = function
  | Null -> Format.pp_print_string ppf "NULL"
  | Int i -> Format.pp_print_int ppf i
  | Long l -> Format.fprintf ppf "%LdL" l
  | Float f -> Format.fprintf ppf "%g" f
  | Str s -> Format.fprintf ppf "%S" s
  | Char c -> Format.fprintf ppf "%C" c
  | Bool b -> Format.pp_print_bool ppf b
  | Tuple fields ->
      let pp_field ppf (n, v) = Format.fprintf ppf "%s: %a" n pp v in
      Format.fprintf ppf "<%a>" (pp_comma pp_field) fields
  | Set xs -> Format.fprintf ppf "{%a}" (pp_comma pp) xs
  | List xs -> Format.fprintf ppf "[%a]" (pp_comma pp) xs
  | Ref oid -> Oid.pp ppf oid

and pp_comma : 'a. (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a list -> unit =
 fun pp_item ppf xs ->
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_item ppf xs

let to_string v = Format.asprintf "%a" pp v

let rec assoc_name name = function
  | [] -> None
  | (n, x) :: rest -> if String.equal n name then Some x else assoc_name name rest

let tuple_get v name =
  match v with
  | Tuple fields -> assoc_name name fields
  | Null | Int _ | Long _ | Float _ | Str _ | Char _ | Bool _ | Set _ | List _
  | Ref _ ->
      None

let tuple_set v name fresh =
  match v with
  | Tuple fields when List.mem_assoc name fields ->
      Tuple (List.map (fun (n, old) -> (n, if String.equal n name then fresh else old)) fields)
  | _ -> invalid_arg (Printf.sprintf "Value.tuple_set: no attribute %S" name)

let as_float = numeric

let truthy = function
  | Bool b -> b
  | Null | Int _ | Long _ | Float _ | Str _ | Char _ | Tuple _ | Set _
  | List _ | Ref _ ->
      invalid_arg "Value.truthy: predicate did not evaluate to a Boolean"
