module Value = Mood_model.Value
module Mtype = Mood_model.Mtype
module Codec = Mood_model.Codec

(* PAX page image: all attributes of a fixed run of heap slots,
   re-arranged into per-attribute minipages.

     "PAX1" | checksum:u32 | nrows:u32 | ncols:u32
     slot minipage | attribute minipage * ncols

   Each minipage is [tag:u8 | n:u32 | has_nulls:u8 | nullbits? | payload]
   with payload per tag: plain i64 ints, RLE (len,value) runs, i64 float
   bits, length-prefixed strings, a page-local dictionary + code vector,
   or model-codec bytes for unspecialized kinds. The checksum (FNV-1a
   over everything after the checksum field) is the torn-write
   detector: a page that fails it is discarded and rebuilt from the row
   heap, which stays authoritative. *)

exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun m -> raise (Corrupt m)) fmt

type akind = KInt | KFloat | KStr | KOther

let kind_of_type = function
  | Mtype.Basic Mtype.Integer -> KInt
  | Mtype.Basic Mtype.Float -> KFloat
  | Mtype.Basic (Mtype.String _) -> KStr
  | Mtype.Basic (Mtype.Long_integer | Mtype.Char | Mtype.Boolean)
  | Mtype.Tuple _ | Mtype.Set _ | Mtype.List _ | Mtype.Reference _ ->
      KOther

(* Dictionary choice per string attribute: [Auto] decides per page from
   the page-local distinct count; ANALYZE refines it to an explicit
   verdict from class-level distinct/rows and average width. *)
type enc_hint = Auto | Prefer_dict | No_dict

let magic = "PAX1"

let tag_int_plain = 0
and tag_int_rle = 1
and tag_float_plain = 2
and tag_str_plain = 3
and tag_str_dict = 4
and tag_generic = 5

(* ------------------------------------------------------------------ *)
(* Primitive writers / readers                                         *)

let add_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

let add_u32 buf v =
  if v < 0 || v > 0xFFFFFFFF then corrupt "u32 out of range: %d" v;
  Buffer.add_int32_be buf (Int32.of_int v)

let add_int buf v = Buffer.add_int64_be buf (Int64.of_int v)

let add_str buf s =
  add_u32 buf (String.length s);
  Buffer.add_string buf s

type cursor = { data : string; mutable pos : int }

let need cur n =
  if cur.pos + n > String.length cur.data then corrupt "truncated page (need %d bytes)" n

let read_u8 cur =
  need cur 1;
  let v = Char.code cur.data.[cur.pos] in
  cur.pos <- cur.pos + 1;
  v

let read_u32 cur =
  need cur 4;
  let v = Int32.to_int (String.get_int32_be cur.data cur.pos) land 0xFFFFFFFF in
  cur.pos <- cur.pos + 4;
  v

let read_int cur =
  need cur 8;
  let v = Int64.to_int (String.get_int64_be cur.data cur.pos) in
  cur.pos <- cur.pos + 8;
  v

(* [n] consecutive 8-byte big-endian words, one bounds check for all. *)
let read_ints cur n =
  need cur (8 * n);
  let out = Array.make n 0 in
  for i = 0 to n - 1 do
    out.(i) <- Int64.to_int (String.get_int64_be cur.data (cur.pos + (8 * i)))
  done;
  cur.pos <- cur.pos + (8 * n);
  out

let read_floats cur n =
  need cur (8 * n);
  let out = Array.create_float n in
  for i = 0 to n - 1 do
    out.(i) <- Int64.float_of_bits (String.get_int64_be cur.data (cur.pos + (8 * i)))
  done;
  cur.pos <- cur.pos + (8 * n);
  out

let read_str cur =
  let n = read_u32 cur in
  need cur n;
  let s = String.sub cur.data cur.pos n in
  cur.pos <- cur.pos + n;
  s

(* FNV-1a, 32 bit, over [s] from [pos] to the end. The low 32 bits of
   a product depend only on the low 32 bits of its factors, and
   OCaml's 63-bit products keep them exact, so the mask is applied once,
   at the end. *)
let checksum s ~pos =
  if pos < 0 then invalid_arg "Pax.checksum: negative position";
  let h = ref 0x811c9dc5 in
  for i = pos to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x01000193
  done;
  !h land 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Page columns                                                        *)

(* A string column's codes renumbered into the page dictionary: the
   distinct strings of its non-null rows in first-seen order, each row
   coded by its string's position, NULL rows coded 0. Code 0 must
   resolve even for NULL rows (a reader that loses the null bitmap,
   like the scan oracle's control, reads them), so an all-null column
   gets the one entry [""]. The encoder writes this dictionary, and
   every batch [page_columns] builds carries it, so stale and repeated
   entries a merge brings in go. *)
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

(* A non-null cell [kind]'s specialized minipage can store. *)
let fits kind v =
  match kind, v with
  | _, Value.Null -> true
  | KInt, Value.Int _ | KFloat, Value.Float _ | KStr, Value.Str _ -> true
  | (KInt | KFloat | KStr | KOther), _ -> false

(* One attribute's column over a page's rows: row [j] is base row
   [from_base.(j)] when that is [>= 0], else the attribute of the tuple
   [rows.(j)]. Int, float and string attributes get their typed arrays;
   a column that meets an off-kind cell, and every [KOther] column, is
   boxed ([Values]), which [encode_batch] writes as the generic
   minipage, as the page codec always has. A string column's codes
   index the base's dictionary followed by the other rows' strings
   until [renumber] turns them into the page dictionary. *)
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

(* ------------------------------------------------------------------ *)
(* Minipage encode                                                     *)

(* The one encoder: each minipage is written straight from a column's
   arrays, whose NULL rows hold 0, 0.0 or [Null] (as [page_columns] and
   the decoder build them); a string column's NULL rows are skipped. *)

let add_nulls buf (col : Batch.column) =
  let any = Bytes.length col.Batch.nulls > 0 && Batch.any_null col.Batch.nulls in
  add_u8 buf (if any then 1 else 0);
  if any then Buffer.add_bytes buf col.Batch.nulls

let rle_runs ~n (ints : int array) =
  if n = 0 then 0
  else begin
    let runs = ref 1 in
    for i = 1 to n - 1 do
      if ints.(i) <> ints.(i - 1) then incr runs
    done;
    !runs
  end

let encode_ints buf ~n (col : Batch.column) ints =
  let header tag =
    add_u8 buf tag;
    add_u32 buf n;
    add_nulls buf col
  in
  let runs = rle_runs ~n ints in
  if n > 0 && 4 + (runs * 12) < n * 8 then begin
    header tag_int_rle;
    add_u32 buf runs;
    let start = ref 0 in
    for i = 1 to n do
      if i = n || ints.(i) <> ints.(!start) then begin
        add_u32 buf (i - !start);
        add_int buf ints.(!start);
        start := i
      end
    done
  end
  else begin
    header tag_int_plain;
    for i = 0 to n - 1 do
      add_int buf ints.(i)
    done
  end

let encode_floats buf ~n (col : Batch.column) floats =
  add_u8 buf tag_float_plain;
  add_u32 buf n;
  add_nulls buf col;
  for i = 0 to n - 1 do
    Buffer.add_int64_be buf (Int64.bits_of_float floats.(i))
  done

(* The dictionary minipage is the column's page dictionary ([renumber]),
   chosen under [Auto] when it holds at most one entry per two rows. *)
let encode_strs buf ~n ~hint (col : Batch.column) ~codes ~dict =
  let header tag =
    add_u8 buf tag;
    add_u32 buf n;
    add_nulls buf col
  in
  let plain () =
    header tag_str_plain;
    for i = 0 to n - 1 do
      add_str buf (if Batch.is_null col i then "" else dict.(codes.(i)))
    done
  in
  match hint with
  | No_dict -> plain ()
  | Auto | Prefer_dict ->
      let page_codes, page_dict = renumber ~n col ~codes ~dict in
      let size = Array.length page_dict in
      if hint = Prefer_dict || (n >= 8 && size * 2 <= n) then begin
        header tag_str_dict;
        add_u32 buf size;
        Array.iter (add_str buf) page_dict;
        Array.iter (add_u32 buf) page_codes
      end
      else plain ()

let encode_values buf ~n (col : Batch.column) values =
  add_u8 buf tag_generic;
  add_u32 buf n;
  add_nulls buf col;
  for i = 0 to n - 1 do
    add_str buf (Codec.encode values.(i))
  done

let encode_column buf ~n ~hint (col : Batch.column) =
  match col.Batch.data with
  | Batch.Ints ints -> encode_ints buf ~n col ints
  | Batch.Floats floats -> encode_floats buf ~n col floats
  | Batch.Strs { codes; dict } -> encode_strs buf ~n ~hint col ~codes ~dict
  | Batch.Values values -> encode_values buf ~n col values

(* ------------------------------------------------------------------ *)
(* Minipage decode                                                     *)

let read_nulls cur ~n =
  let has = read_u8 cur in
  if has = 0 then Batch.no_nulls
  else begin
    let len = (n + 7) / 8 in
    need cur len;
    let bits = Bytes.of_string (String.sub cur.data cur.pos len) in
    cur.pos <- cur.pos + len;
    bits
  end

let decode_minipage cur ~n =
  let tag = read_u8 cur in
  let count = read_u32 cur in
  if count <> n then corrupt "minipage row count %d, page says %d" count n;
  let nulls = read_nulls cur ~n in
  let data =
    if tag = tag_int_plain then Batch.Ints (read_ints cur n)
    else if tag = tag_int_rle then begin
      let runs = read_u32 cur in
      Scan_metrics.m.Scan_metrics.rle_runs <- Scan_metrics.m.Scan_metrics.rle_runs + runs;
      let out = Array.make (max 1 n) 0 in
      let filled = ref 0 in
      for _ = 1 to runs do
        let len = read_u32 cur in
        let v = read_int cur in
        if !filled + len > n then corrupt "RLE overflow";
        for i = !filled to !filled + len - 1 do
          out.(i) <- v
        done;
        filled := !filled + len
      done;
      if !filled <> n then corrupt "RLE underflow: %d of %d rows" !filled n;
      Batch.Ints out
    end
    else if tag = tag_float_plain then Batch.Floats (read_floats cur n)
    else if tag = tag_str_plain then begin
      let strs = Array.init (max 1 n) (fun i -> if i < n then read_str cur else "") in
      Batch.Strs { codes = Array.init n (fun i -> i); dict = strs }
    end
    else if tag = tag_str_dict then begin
      let dsize = read_u32 cur in
      if dsize = 0 || dsize > n + 1 then corrupt "dictionary size %d for %d rows" dsize n;
      let dict = Array.init dsize (fun _ -> read_str cur) in
      let codes =
        Array.init n (fun _ ->
            let c = read_u32 cur in
            if c >= dsize then corrupt "dictionary code %d out of range %d" c dsize;
            c)
      in
      Batch.Strs { codes; dict }
    end
    else if tag = tag_generic then
      Batch.Values
        (Array.init (max 1 n) (fun i ->
             if i >= n then Value.Null
             else
               let s = read_str cur in
               match Codec.decode s with
               | v -> v
               | exception Failure m -> corrupt "generic cell: %s" m))
    else corrupt "unknown minipage tag %d" tag
  in
  { Batch.data; nulls }

(* ------------------------------------------------------------------ *)
(* Page encode / decode                                                *)

(* The page is written once, into one buffer sized for eight bytes a
   cell, with its checksum field left zero; the checksum, which covers
   only the bytes after that field, is patched in place. *)
let encode_batch ~hints (b : Batch.t) =
  let n = b.Batch.n in
  let ncols = Array.length b.Batch.columns in
  let buf = Buffer.create (64 + (8 * n * (ncols + 1))) in
  Buffer.add_string buf magic;
  add_u32 buf 0;
  add_u32 buf n;
  add_u32 buf ncols;
  encode_ints buf ~n { Batch.data = Batch.Ints b.Batch.slots; nulls = Batch.no_nulls }
    b.Batch.slots;
  Array.iter
    (fun (attr, col) ->
      let hint = match List.assoc_opt attr hints with Some h -> h | None -> Auto in
      encode_column buf ~n ~hint col)
    b.Batch.columns;
  let page = Buffer.to_bytes buf in
  (* [page] is not shared, and the string view dies with the call. *)
  let sum = checksum (Bytes.unsafe_to_string page) ~pos:8 in
  Bytes.set_int32_be page 4 (Int32.of_int sum);
  Bytes.unsafe_to_string page

let encode_page ~schema ~hints ~slots ~rows =
  let n = Array.length rows in
  if Array.length slots <> n then invalid_arg "Pax.encode_page: slots/rows mismatch";
  encode_batch ~hints
    (page_columns ~schema ~slots ~base:None ~from_base:(Array.make n (-1)) ~rows)

(* The checksum first, then every structural rule as the body is
   read. *)
let decode_page ~schema s =
  let len = String.length s in
  if len < 8 then corrupt "short page (%d bytes)" len;
  if not (String.starts_with ~prefix:magic s) then corrupt "bad magic";
  if Int32.to_int (String.get_int32_be s 4) land 0xFFFFFFFF <> checksum s ~pos:8 then
    corrupt "checksum mismatch";
  let cur = { data = s; pos = 8 } in
  let n = read_u32 cur in
  let ncols = read_u32 cur in
  if ncols <> Array.length schema then
    corrupt "page has %d columns, schema has %d" ncols (Array.length schema);
  let slot_col = decode_minipage cur ~n in
  let slots =
    match slot_col.Batch.data with
    | Batch.Ints a -> if Array.length a = n then a else Array.sub a 0 n
    | _ -> corrupt "slot vector is not an int minipage"
  in
  let columns =
    Array.map (fun (attr, _kind) -> (attr, decode_minipage cur ~n)) schema
  in
  if cur.pos <> len then corrupt "trailing bytes";
  Scan_metrics.m.Scan_metrics.bytes_decoded <-
    Scan_metrics.m.Scan_metrics.bytes_decoded + len;
  { Batch.n; slots; columns }
