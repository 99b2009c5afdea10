(* Tags *)
let tag_null = '\000'
and tag_int = '\001'
and tag_long = '\002'
and tag_float = '\003'
and tag_str = '\004'
and tag_char = '\005'
and tag_bool = '\006'
and tag_tuple = '\007'
and tag_set = '\008'
and tag_list = '\009'
and tag_ref = '\010'

(* Fixed-width integers are 8 bytes, big-endian; an [Int] is stored
   sign-extended to 64 bits. *)
let add_int buf v = Buffer.add_int64_be buf (Int64.of_int v)

let add_string buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let rec add_value buf v =
  match v with
  | Value.Null -> Buffer.add_char buf tag_null
  | Value.Int i ->
      Buffer.add_char buf tag_int;
      add_int buf i
  | Value.Long l ->
      Buffer.add_char buf tag_long;
      Buffer.add_int64_be buf l
  | Value.Float f ->
      Buffer.add_char buf tag_float;
      Buffer.add_int64_be buf (Int64.bits_of_float f)
  | Value.Str s ->
      Buffer.add_char buf tag_str;
      add_string buf s
  | Value.Char c ->
      Buffer.add_char buf tag_char;
      Buffer.add_char buf c
  | Value.Bool b ->
      Buffer.add_char buf tag_bool;
      Buffer.add_char buf (if b then '\001' else '\000')
  | Value.Tuple fields ->
      Buffer.add_char buf tag_tuple;
      add_int buf (List.length fields);
      List.iter
        (fun (name, v) ->
          add_string buf name;
          add_value buf v)
        fields
  | Value.Set xs ->
      Buffer.add_char buf tag_set;
      add_int buf (List.length xs);
      List.iter (add_value buf) xs
  | Value.List xs ->
      Buffer.add_char buf tag_list;
      add_int buf (List.length xs);
      List.iter (add_value buf) xs
  | Value.Ref oid ->
      Buffer.add_char buf tag_ref;
      add_int buf (Oid.class_id oid);
      add_int buf (Oid.slot oid)

let encode v =
  let buf = Buffer.create 64 in
  add_value buf v;
  Buffer.contents buf

(* Mirrors [add_value]: a tag byte, 8 bytes per integer, count or
   length prefix. *)
let rec encoded_size = function
  | Value.Null -> 1
  | Value.Int _ | Value.Long _ | Value.Float _ -> 9
  | Value.Str s -> 9 + String.length s
  | Value.Char _ | Value.Bool _ -> 2
  | Value.Tuple fields ->
      List.fold_left (fun acc (name, v) -> acc + 8 + String.length name + encoded_size v) 9 fields
  | Value.Set xs | Value.List xs -> List.fold_left (fun acc v -> acc + encoded_size v) 9 xs
  | Value.Ref _ -> 17

type cursor = { data : string; mutable pos : int }

let cursor data = { data; pos = 0 }

let at_end cur = cur.pos >= String.length cur.data

let truncated () = failwith "Codec.decode: truncated"

let read_char cur =
  if cur.pos >= String.length cur.data then truncated ();
  let c = cur.data.[cur.pos] in
  cur.pos <- cur.pos + 1;
  c

let[@inline] read_int64 cur =
  let pos = cur.pos in
  if pos > String.length cur.data - 8 then truncated ();
  cur.pos <- pos + 8;
  String.get_int64_be cur.data pos

let read_int cur = Int64.to_int (read_int64 cur)

let read_string cur =
  let n = read_int cur in
  if n < 0 || n > String.length cur.data - cur.pos then
    failwith "Codec.decode: bad string length";
  let s = String.sub cur.data cur.pos n in
  cur.pos <- cur.pos + n;
  s

let read_count cur =
  let n = read_int cur in
  if n < 0 then failwith "Codec.decode: negative count";
  n

(* Items are read left to right and consed in place ([tail_mod_cons]),
   so a long collection needs neither stack nor a reversed copy. *)
let rec read_value cur =
  let tag = read_char cur in
  if tag = tag_null then Value.Null
  else if tag = tag_int then Value.Int (read_int cur)
  else if tag = tag_long then Value.Long (read_int64 cur)
  else if tag = tag_float then Value.Float (Int64.float_of_bits (read_int64 cur))
  else if tag = tag_str then Value.Str (read_string cur)
  else if tag = tag_char then Value.Char (read_char cur)
  else if tag = tag_bool then Value.Bool (read_char cur <> '\000')
  else if tag = tag_tuple then Value.Tuple (read_fields cur (read_count cur))
  else if tag = tag_set then Value.Set (read_items cur (read_count cur))
  else if tag = tag_list then Value.List (read_items cur (read_count cur))
  else if tag = tag_ref then begin
    let class_id = read_int cur in
    let slot = read_int cur in
    if class_id < 0 || slot < 0 then failwith "Codec.decode: negative OID component";
    Value.Ref (Oid.make ~class_id ~slot)
  end
  else failwith (Printf.sprintf "Codec.decode: unknown tag %d" (Char.code tag))

and[@tail_mod_cons] read_fields cur n =
  if n = 0 then []
  else
    let name = read_string cur in
    let v = read_value cur in
    (name, v) :: read_fields cur (n - 1)

and[@tail_mod_cons] read_items cur n =
  if n = 0 then []
  else
    let v = read_value cur in
    v :: read_items cur (n - 1)

let decode s =
  let cur = cursor s in
  let v = read_value cur in
  if cur.pos <> String.length s then failwith "Codec.decode: trailing bytes";
  v
