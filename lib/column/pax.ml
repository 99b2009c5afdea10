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

(* Negative control for the differential oracle: encode minipages with
   a zeroed null bitmap, so NULLs resurface as 0 / "" / stale bytes.
   The oracle must catch the divergence — proof it has teeth. *)
let sabotage_null_bitmap = ref false

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

(* FNV-1a, 32 bit, over [s] from [pos] to the end. *)
let checksum s ~pos =
  let h = ref 0x811c9dc5 in
  for i = pos to String.length s - 1 do
    h := (!h lxor Char.code s.[i]) * 0x01000193 land 0xFFFFFFFF
  done;
  !h

(* ------------------------------------------------------------------ *)
(* Minipage encode                                                     *)

let null_bits values =
  let n = Array.length values in
  let bits = Batch.fresh_nullbits n in
  let any = ref false in
  for i = 0 to n - 1 do
    match values.(i) with
    | Value.Null ->
        Batch.set_null bits i;
        any := true
    | _ -> ()
  done;
  (bits, !any)

let add_nulls buf ~n ~bits ~any =
  add_u8 buf (if any then 1 else 0);
  if any then
    if !sabotage_null_bitmap then Buffer.add_string buf (String.make ((n + 7) / 8) '\000')
    else Buffer.add_bytes buf bits

(* All non-null values conform to the claimed shape? Demote the whole
   minipage to the generic codec otherwise — pages must round-trip any
   value the heap can hold. *)
let all_match values p =
  Array.for_all (function Value.Null -> true | v -> p v) values

let rle_runs (ints : int array) =
  let n = Array.length ints in
  if n = 0 then 0
  else begin
    let runs = ref 1 in
    for i = 1 to n - 1 do
      if ints.(i) <> ints.(i - 1) then incr runs
    done;
    !runs
  end

let encode_int_minipage buf values =
  let n = Array.length values in
  let bits, any = null_bits values in
  let ints =
    Array.map (function Value.Int i -> i | _ -> 0 (* NULL *)) values
  in
  let runs = rle_runs ints in
  if n > 0 && (4 + (runs * 12)) < n * 8 then begin
    add_u8 buf tag_int_rle;
    add_u32 buf n;
    add_nulls buf ~n ~bits ~any;
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
    add_u8 buf tag_int_plain;
    add_u32 buf n;
    add_nulls buf ~n ~bits ~any;
    Array.iter (add_int buf) ints
  end

let encode_float_minipage buf values =
  let n = Array.length values in
  let bits, any = null_bits values in
  add_u8 buf tag_float_plain;
  add_u32 buf n;
  add_nulls buf ~n ~bits ~any;
  Array.iter
    (function
      | Value.Float f -> Buffer.add_int64_be buf (Int64.bits_of_float f)
      | _ -> Buffer.add_int64_be buf 0L)
    values

let encode_str_minipage buf ~hint values =
  let n = Array.length values in
  let bits, any = null_bits values in
  let str_of = function Value.Str s -> s | _ -> "" in
  let codes = Array.make n 0 in
  let table = Hashtbl.create 64 in
  let dict = ref [] in
  let dict_size = ref 0 in
  Array.iteri
    (fun i v ->
      match v with
      | Value.Null -> ()
      | v -> (
          let s = str_of v in
          match Hashtbl.find_opt table s with
          | Some c -> codes.(i) <- c
          | None ->
              Hashtbl.add table s !dict_size;
              dict := s :: !dict;
              codes.(i) <- !dict_size;
              incr dict_size))
    values;
  let use_dict =
    match hint with
    | Prefer_dict -> true
    | No_dict -> false
    | Auto -> n >= 8 && !dict_size * 2 <= n
  in
  if use_dict then begin
    (* Code 0 must resolve even for NULL rows (the sabotage control
       reads them), so an all-null page still carries one entry. *)
    if !dict_size = 0 then begin
      dict := [ "" ];
      dict_size := 1
    end;
    add_u8 buf tag_str_dict;
    add_u32 buf n;
    add_nulls buf ~n ~bits ~any;
    add_u32 buf !dict_size;
    List.iter (add_str buf) (List.rev !dict);
    Array.iter (fun c -> add_u32 buf c) codes
  end
  else begin
    add_u8 buf tag_str_plain;
    add_u32 buf n;
    add_nulls buf ~n ~bits ~any;
    Array.iter (fun v -> add_str buf (str_of v)) values
  end

let encode_generic_minipage buf values =
  let n = Array.length values in
  let bits, any = null_bits values in
  add_u8 buf tag_generic;
  add_u32 buf n;
  add_nulls buf ~n ~bits ~any;
  Array.iter (fun v -> add_str buf (Codec.encode v)) values

let encode_minipage buf ~kind ~hint values =
  match kind with
  | KInt when all_match values (function Value.Int _ -> true | _ -> false) ->
      encode_int_minipage buf values
  | KFloat when all_match values (function Value.Float _ -> true | _ -> false) ->
      encode_float_minipage buf values
  | KStr when all_match values (function Value.Str _ -> true | _ -> false) ->
      encode_str_minipage buf ~hint values
  | KInt | KFloat | KStr | KOther -> encode_generic_minipage buf values

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

let encode_page ~schema ~hints ~slots ~rows =
  let n = Array.length rows in
  if Array.length slots <> n then invalid_arg "Pax.encode_page: slots/rows mismatch";
  let body = Buffer.create 1024 in
  add_u32 body n;
  add_u32 body (Array.length schema);
  encode_int_minipage body (Array.map (fun s -> Value.Int s) slots);
  Array.iter
    (fun (attr, kind) ->
      let hint =
        match List.assoc_opt attr hints with Some h -> h | None -> Auto
      in
      let values =
        Array.map
          (fun row ->
            match Value.tuple_get row attr with Some v -> v | None -> Value.Null)
          rows
      in
      encode_minipage body ~kind ~hint values)
    schema;
  let body = Buffer.contents body in
  let out = Buffer.create (String.length body + 8) in
  Buffer.add_string out magic;
  add_u32 out (checksum body ~pos:0);
  Buffer.add_string out body;
  Buffer.contents out

let decode_page ~schema s =
  let len = String.length s in
  if len < 8 then corrupt "short page (%d bytes)" len;
  if not (String.starts_with ~prefix:magic s) then corrupt "bad magic";
  let cur = { data = s; pos = 4 } in
  let sum = read_u32 cur in
  if sum <> checksum s ~pos:8 then corrupt "checksum mismatch";
  let n = read_u32 cur in
  let ncols = read_u32 cur in
  if ncols <> Array.length schema then
    corrupt "page has %d columns, schema has %d" ncols (Array.length schema);
  let slot_col = decode_minipage cur ~n in
  let slots =
    match slot_col.Batch.data with
    | Batch.Ints a -> Array.sub a 0 n
    | _ -> corrupt "slot vector is not an int minipage"
  in
  let columns =
    Array.map (fun (attr, _kind) -> (attr, decode_minipage cur ~n)) schema
  in
  if cur.pos <> len then corrupt "trailing bytes";
  Scan_metrics.m.Scan_metrics.bytes_decoded <-
    Scan_metrics.m.Scan_metrics.bytes_decoded + len;
  { Batch.n; slots; columns }
