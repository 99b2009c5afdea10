type basic =
  | Integer
  | Float
  | Long_integer
  | String of int
  | Char
  | Boolean

type t =
  | Basic of basic
  | Tuple of (string * t) list
  | Set of t
  | List of t
  | Reference of string

let basic_equal a b =
  match a, b with
  | Integer, Integer | Float, Float | Long_integer, Long_integer
  | Char, Char | Boolean, Boolean ->
      true
  | String n, String m -> n = m
  | (Integer | Float | Long_integer | String _ | Char | Boolean), _ -> false

let rec equal a b =
  match a, b with
  | Basic x, Basic y -> basic_equal x y
  | Tuple xs, Tuple ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (n, t) (m, u) -> String.equal n m && equal t u) xs ys
  | Set x, Set y | List x, List y -> equal x y
  | Reference x, Reference y -> String.equal x y
  | (Basic _ | Tuple _ | Set _ | List _ | Reference _), _ -> false

let pp_basic ppf = function
  | Integer -> Format.pp_print_string ppf "Integer"
  | Float -> Format.pp_print_string ppf "Float"
  | Long_integer -> Format.pp_print_string ppf "LongInteger"
  | String n -> Format.fprintf ppf "String(%d)" n
  | Char -> Format.pp_print_string ppf "Char"
  | Boolean -> Format.pp_print_string ppf "Boolean"

let rec pp ppf = function
  | Basic b -> pp_basic ppf b
  | Tuple attrs ->
      let pp_attr ppf (name, ty) = Format.fprintf ppf "%s %a" name pp ty in
      Format.fprintf ppf "TUPLE (%a)"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_attr)
        attrs
  | Set ty -> Format.fprintf ppf "SET (%a)" pp ty
  | List ty -> Format.fprintf ppf "LIST (%a)" pp ty
  | Reference cls -> Format.fprintf ppf "REFERENCE (%s)" cls

let to_string t = Format.asprintf "%a" pp t

let basic_size = function
  | Integer -> 4
  | Float -> 8
  | Long_integer -> 8
  | String n -> n
  | Char -> 1
  | Boolean -> 1

let rec byte_size = function
  | Basic b -> basic_size b
  | Tuple attrs -> List.fold_left (fun acc (_, ty) -> acc + byte_size ty) 0 attrs
  | Set _ | List _ -> 64
  | Reference _ -> 8

let is_atomic = function
  | Basic _ -> true
  | Tuple _ | Set _ | List _ | Reference _ -> false

let rec referenced_class = function
  | Reference cls -> Some cls
  | Set ty | List ty -> referenced_class ty
  | Basic _ | Tuple _ -> None
