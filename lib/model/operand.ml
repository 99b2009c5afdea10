exception Type_error of string

type data_type = Int16 | Int32 | Int64 | Double | Text | Char_t | Bool_t

type payload =
  | P_int of int64
  | P_float of float
  | P_text of string
  | P_char of char
  | P_bool of bool

type t = { dtype : data_type; payload : payload }

let data_type t = t.dtype

let data_type_name = function
  | Int16 -> "INT16"
  | Int32 -> "INT32"
  | Int64 -> "INT64"
  | Double -> "DOUBLE"
  | Text -> "TEXT"
  | Char_t -> "CHAR"
  | Bool_t -> "BOOLEAN"

let type_error fmt = Format.kasprintf (fun msg -> raise (Type_error msg)) fmt

let zero_of = function
  | Int16 | Int32 | Int64 -> P_int 0L
  | Double -> P_float 0.
  | Text -> P_text ""
  | Char_t -> P_char '\000'
  | Bool_t -> P_bool false

let declare dtype = { dtype; payload = zero_of dtype }

let int_bounds = function
  | Int16 -> Some (-32768L, 32767L)
  | Int32 -> Some (-2147483648L, 2147483647L)
  | Int64 -> None
  | Double | Text | Char_t | Bool_t -> None

let check_int_range dtype v =
  match int_bounds dtype with
  | Some (lo, hi) when v < lo || v > hi ->
      type_error "integer %Ld out of range for %s" v (data_type_name dtype)
  | Some _ | None -> v

let of_value = function
  | Value.Int i ->
      let v = Int64.of_int i in
      let dtype = if v >= -32768L && v <= 32767L then Int16
        else if v >= -2147483648L && v <= 2147483647L then Int32
        else Int64
      in
      { dtype; payload = P_int v }
  | Value.Long l -> { dtype = Int64; payload = P_int l }
  | Value.Float f -> { dtype = Double; payload = P_float f }
  | Value.Str s -> { dtype = Text; payload = P_text s }
  | Value.Char c -> { dtype = Char_t; payload = P_char c }
  | Value.Bool b -> { dtype = Bool_t; payload = P_bool b }
  | (Value.Null | Value.Tuple _ | Value.Set _ | Value.List _ | Value.Ref _) as v ->
      type_error "value %s has no operand data type" (Value.to_string v)

let to_value t =
  match t.payload with
  | P_int v -> begin
      match t.dtype with
      | Int64 -> Value.Long v
      | Int16 | Int32 | Double | Text | Char_t | Bool_t -> Value.Int (Int64.to_int v)
    end
  | P_float f -> Value.Float f
  | P_text s -> Value.Str s
  | P_char c -> Value.Char c
  | P_bool b -> Value.Bool b

let assign target source =
  let payload =
    match target.dtype, source.payload with
    | (Int16 | Int32 | Int64), P_int v -> P_int (check_int_range target.dtype v)
    | (Int16 | Int32 | Int64), P_float f ->
        P_int (check_int_range target.dtype (Int64.of_float f))
    | Double, P_int v -> P_float (Int64.to_float v)
    | Double, P_float f -> P_float f
    | Text, P_text s -> P_text s
    | Char_t, P_char c -> P_char c
    | Bool_t, P_bool b -> P_bool b
    | _, _ ->
        type_error "cannot assign %s value to %s operand"
          (data_type_name source.dtype) (data_type_name target.dtype)
  in
  { dtype = target.dtype; payload }

(* Numeric promotion: the result type of an arithmetic operation is the
   wider of the operand types; Double dominates. *)
let promote a b =
  match a, b with
  | Double, _ | _, Double -> Double
  | Int64, _ | _, Int64 -> Int64
  | Int32, _ | _, Int32 -> Int32
  | Int16, Int16 -> Int16
  | (Text | Char_t | Bool_t), _ | _, (Text | Char_t | Bool_t) ->
      type_error "non-numeric operand in arithmetic expression"

let as_int = function
  | { payload = P_int v; _ } -> v
  | { dtype; _ } -> type_error "%s operand is not integral" (data_type_name dtype)

let as_num = function
  | { payload = P_int v; _ } -> Int64.to_float v
  | { payload = P_float f; _ } -> f
  | { dtype; _ } -> type_error "%s operand is not numeric" (data_type_name dtype)

let arith name int_op float_op a b =
  let dtype = promote a.dtype b.dtype in
  match dtype with
  | Double -> { dtype; payload = P_float (float_op (as_num a) (as_num b)) }
  | Int16 | Int32 | Int64 ->
      let v = int_op (as_int a) (as_int b) in
      (* Results widen rather than trap: Int16 arithmetic that overflows
         promotes, mirroring the paper's run-time conversion of results. *)
      let dtype =
        match int_bounds dtype with
        | Some (lo, hi) when v < lo || v > hi ->
            if v >= -2147483648L && v <= 2147483647L then Int32 else Int64
        | Some _ | None -> dtype
      in
      { dtype; payload = P_int v }
  | Text | Char_t | Bool_t ->
      type_error "operator %s undefined for %s" name (data_type_name dtype)

(* "+" doubles as string concatenation, as MoodView's C++ would do
   with an overloaded operator. *)
let add a b =
  match a.payload, b.payload with
  | P_text x, P_text y -> { dtype = Text; payload = P_text (x ^ y) }
  | P_text x, P_char y -> { dtype = Text; payload = P_text (x ^ String.make 1 y) }
  | P_char x, P_text y -> { dtype = Text; payload = P_text (String.make 1 x ^ y) }
  | _, _ -> arith "+" Int64.add ( +. ) a b
let sub a b = arith "-" Int64.sub ( -. ) a b
let mul a b = arith "*" Int64.mul ( *. ) a b

let div a b =
  let integral = function
    | { dtype = Int16 | Int32 | Int64; _ } -> true
    | { dtype = Double | Text | Char_t | Bool_t; _ } -> false
  in
  if integral a && integral b then begin
    if as_int b = 0L then type_error "division by zero";
    arith "/" Int64.div ( /. ) a b
  end
  else begin
    if as_num b = 0. then type_error "division by zero";
    { dtype = Double; payload = P_float (as_num a /. as_num b) }
  end

let modulo a b =
  let x = as_int a and y = as_int b in
  if y = 0L then type_error "modulo by zero";
  { dtype = promote a.dtype b.dtype; payload = P_int (Int64.rem x y) }

let compare_operands a b =
  match a.payload, b.payload with
  | P_int _, P_int _ | P_float _, P_float _ | P_int _, P_float _ | P_float _, P_int _ ->
      Float.compare (as_num a) (as_num b)
  | P_text x, P_text y -> String.compare x y
  | P_char x, P_char y -> Char.compare x y
  | P_text x, P_char y -> String.compare x (String.make 1 y)
  | P_char x, P_text y -> String.compare (String.make 1 x) y
  | P_bool x, P_bool y -> Bool.compare x y
  | _, _ ->
      type_error "cannot compare %s with %s" (data_type_name a.dtype)
        (data_type_name b.dtype)

let compare_op op a b =
  let c = compare_operands a b in
  let result =
    match op with
    | `Eq -> c = 0
    | `Ne -> c <> 0
    | `Lt -> c < 0
    | `Le -> c <= 0
    | `Gt -> c > 0
    | `Ge -> c >= 0
  in
  { dtype = Bool_t; payload = P_bool result }

let as_bool = function
  | { payload = P_bool b; _ } -> b
  | { dtype; _ } ->
      type_error "%s operand in Boolean expression" (data_type_name dtype)

let logical_and a b = { dtype = Bool_t; payload = P_bool (as_bool a && as_bool b) }
let logical_or a b = { dtype = Bool_t; payload = P_bool (as_bool a || as_bool b) }
let logical_not a = { dtype = Bool_t; payload = P_bool (not (as_bool a)) }

let pp ppf t =
  let value =
    match t.payload with
    | P_int v -> Int64.to_string v
    | P_float f -> string_of_float f
    | P_text s -> Printf.sprintf "%S" s
    | P_char c -> Printf.sprintf "%C" c
    | P_bool b -> string_of_bool b
  in
  Format.fprintf ppf "%s:%s" (data_type_name t.dtype) value

let in32 x = x >= -2147483648 && x <= 2147483647

(* Returns a two-argument closure, so that a caller applies it directly
   rather than through a partial application. *)
let int32_compare verdict generic =
  let compare va vb =
    match va, vb with
    | Value.Int x, Value.Int y when in32 x && in32 y -> verdict (Int.compare x y)
    | _, _ -> generic va vb
  in
  compare

(* Inside the guard the operand layer computes the same number in Int64
   and keeps it an Int; a product of two Int32s can reach 2^62, which
   wraps to [min_int] and so fails the result check. Each operator gets
   its own closure: one closure calling the operator through another
   made bench/micro's arithmetic-heavy compiled predicate about 10%
   slower. *)
let int32_fast op generic =
  let result r va vb = if in32 r then Value.Int r else generic va vb in
  match op with
  | `Add -> (
      fun va vb ->
        match va, vb with
        | Value.Int x, Value.Int y when in32 x && in32 y -> result (x + y) va vb
        | _, _ -> generic va vb)
  | `Sub -> (
      fun va vb ->
        match va, vb with
        | Value.Int x, Value.Int y when in32 x && in32 y -> result (x - y) va vb
        | _, _ -> generic va vb)
  | `Mul -> (
      fun va vb ->
        match va, vb with
        | Value.Int x, Value.Int y when in32 x && in32 y -> result (x * y) va vb
        | _, _ -> generic va vb)
  | `Div -> (
      fun va vb ->
        match va, vb with
        | Value.Int x, Value.Int y when in32 x && in32 y && y <> 0 -> result (x / y) va vb
        | _, _ -> generic va vb)
  | `Mod -> (
      fun va vb ->
        match va, vb with
        | Value.Int x, Value.Int y when in32 x && in32 y && y <> 0 -> result (x mod y) va vb
        | _, _ -> generic va vb)
