(* Memory-bounded value joins: canonical/Grace hash, external
   sort-merge and the Odra-style fusion join over collection
   attributes.

   All four share one correctness architecture. Candidate pairs are
   generated from a canonical string key derived from the join
   attribute under [Eval.compare_values]/[cmp_values] semantics
   (collection-valued keys flatten one level, exactly like the
   predicate's existential comparison); every candidate pair is
   deduplicated by (left index, right index) and then re-checked
   against the FULL compiled predicate before a row is emitted. False
   positives are therefore impossible by construction — the key only
   has to be complete (never miss a pair the nested loop would emit),
   which the differential join oracle pins across random schemas,
   duplicates, nulls and spills.

   Spills go through [Store.new_temp_file]: real heap files whose pages
   flow through the buffer pool and simulated disk, so partitioning
   passes are charged, observable ([join.*] metrics) and
   crash-injectable (the spill flush is a deterministic write stream). *)

module Value = Mood_model.Value
module Oid = Mood_model.Oid
module Codec = Mood_model.Codec
module Collection = Mood_algebra.Collection
module Store = Mood_storage.Store
module Heap_file = Mood_storage.Heap_file
module Buffer_pool = Mood_storage.Buffer_pool
module Join_cost = Mood_cost.Join_cost
module Heap = Mood_util.Heap

(* ------------------------------------------------------------------ *)
(* Metrics *)

let partitions_spilled = ref 0
let spill_bytes = ref 0
let merge_passes = ref 0
let fusion_hits = ref 0
let hash_builds = ref 0
let fallbacks = ref 0

let reset_metrics () =
  partitions_spilled := 0;
  spill_bytes := 0;
  merge_passes := 0;
  fusion_hits := 0;
  hash_builds := 0;
  fallbacks := 0

let metrics () =
  [ ("join.partitions_spilled", !partitions_spilled);
    ("join.spill_bytes", !spill_bytes);
    ("join.merge_passes", !merge_passes);
    ("join.fusion_hits", !fusion_hits);
    ("join.hash_builds", !hash_builds);
    ("join.fallbacks", !fallbacks)
  ]

let sabotage_skip_rewind = ref false

(* ------------------------------------------------------------------ *)
(* Canonical keys: binary strings, one kind tag byte first.

   [struct_key] is injective w.r.t. [Value.compare] equality (the order
   used INSIDE containers: Str and Char stay distinct, Null equals
   Null, numerics merge). [elem_key] is injective w.r.t.
   [Eval.compare_values] equality (the top-level predicate order: Null
   never equals anything, Str and Char merge). A numeric is the 8 bytes
   of its float, with every NaN folded to one NaN and -0.0 to 0.0,
   because [Float.compare] equates them; a Ref is its 16 OID bytes.
   Inside containers strings carry their length and containers their
   item count, so no concatenation of parts aliases another. *)

let canonical_bits f =
  if Float.is_nan f then 0x7FF8_0000_0000_0000L
  else if f = 0. then 0L
  else Int64.bits_of_float f

let num_key f =
  let b = Bytes.create 9 in
  Bytes.set b 0 'n';
  Bytes.set_int64_be b 1 (canonical_bits f);
  Bytes.unsafe_to_string b

let ref_key o =
  let b = Bytes.create 17 in
  Bytes.set b 0 'r';
  Bytes.set_int64_be b 1 (Int64.of_int (Oid.class_id o));
  Bytes.set_int64_be b 9 (Int64.of_int (Oid.slot o));
  Bytes.unsafe_to_string b

let rec add_struct buf (v : Value.t) =
  match v with
  | Value.Null -> Buffer.add_char buf 'z'
  | Value.Int _ | Value.Long _ | Value.Float _ ->
      Buffer.add_char buf 'n';
      Buffer.add_int64_be buf (canonical_bits (Option.get (Value.as_float v)))
  | Value.Str s ->
      Buffer.add_char buf 's';
      Codec.add_string buf s
  | Value.Char c ->
      Buffer.add_char buf 'c';
      Buffer.add_char buf c
  | Value.Bool b -> Buffer.add_string buf (if b then "b1" else "b0")
  | Value.Ref o ->
      Buffer.add_char buf 'r';
      Codec.add_int buf (Oid.class_id o);
      Codec.add_int buf (Oid.slot o)
  | Value.Tuple fields ->
      Buffer.add_char buf 't';
      Codec.add_int buf (List.length fields);
      List.iter
        (fun (n, x) ->
          Codec.add_string buf n;
          add_struct buf x)
        fields
  | Value.Set xs ->
      Buffer.add_char buf 'S';
      Codec.add_int buf (List.length xs);
      List.iter (add_struct buf) xs
  | Value.List xs ->
      Buffer.add_char buf 'L';
      Codec.add_int buf (List.length xs);
      List.iter (add_struct buf) xs

let struct_key v =
  let buf = Buffer.create 64 in
  add_struct buf v;
  Buffer.contents buf

(* A top-level string is the whole key after its tag, so it needs no
   length; containers start with 't', 'S' or 'L', apart from every
   scalar tag. *)
let elem_key (v : Value.t) =
  match v with
  | Value.Null -> None
  | Value.Int i -> Some (num_key (float_of_int i))
  | Value.Long l -> Some (num_key (Int64.to_float l))
  | Value.Float f -> Some (num_key f)
  | Value.Str s -> Some ("s" ^ s)
  | Value.Char c -> Some ("s" ^ String.make 1 c)
  | Value.Bool b -> Some (if b then "b1" else "b0")
  | Value.Ref o -> Some (ref_key o)
  | Value.Tuple _ | Value.Set _ | Value.List _ -> Some (struct_key v)

let keys_of_value (v : Value.t) =
  match v with
  | Value.Set xs | Value.List xs ->
      List.sort_uniq String.compare (List.filter_map elem_key xs)
  | v -> ( match elem_key v with None -> [] | Some k -> [ k ])

(* ------------------------------------------------------------------ *)
(* Spill records. An entry (side index, key, row) is framed as the
   index ([Codec.add_int]), the key ([Codec.add_string]), the number of
   bindings, then for each binding its variable ([Codec.add_string]),
   its OID ('\000' for none, or '\001' then class id and slot) and its
   value ([Codec.add_value], which is self-delimiting). The count makes
   a record cut at a binding boundary detectable. *)

type entry = int * Eval.row * string

let add_entry buf ((i, row, key) : entry) =
  Codec.add_int buf i;
  Codec.add_string buf key;
  Codec.add_int buf (List.length row);
  List.iter
    (fun (var, (it : Collection.item)) ->
      Codec.add_string buf var;
      (match it.Collection.oid with
      | None -> Buffer.add_char buf '\000'
      | Some o ->
          Buffer.add_char buf '\001';
          Codec.add_int buf (Oid.class_id o);
          Codec.add_int buf (Oid.slot o));
      Codec.add_value buf it.Collection.value)
    row

let entry_bytes ((_, row, key) : entry) =
  List.fold_left
    (fun acc (var, (it : Collection.item)) ->
      acc + 8 + String.length var
      + (match it.Collection.oid with None -> 1 | Some _ -> 17)
      + Codec.encoded_size it.Collection.value)
    (24 + String.length key) row

let encode_entry e =
  let buf = Buffer.create (entry_bytes e) in
  add_entry buf e;
  Buffer.contents buf

let decode_entry s : entry =
  let cur = Codec.cursor s in
  let i = Codec.read_int cur in
  let key = Codec.read_string cur in
  let read_oid () =
    match Codec.read_char cur with
    | '\000' -> None
    | '\001' ->
        let class_id = Codec.read_int cur in
        let slot = Codec.read_int cur in
        if class_id < 0 || slot < 0 then failwith "Value_join: negative OID in spill record";
        Some (Oid.make ~class_id ~slot)
    | _ -> failwith "Value_join: bad OID tag in spill record"
  in
  let[@tail_mod_cons] rec bindings n =
    if n = 0 then []
    else
      let var = Codec.read_string cur in
      let oid = read_oid () in
      let value = Codec.read_value cur in
      (var, { Collection.oid; value }) :: bindings (n - 1)
  in
  let n = Codec.read_int cur in
  if n < 0 then failwith "Value_join: negative binding count in spill record";
  let row = bindings n in
  if not (Codec.at_end cur) then failwith "Value_join: trailing bytes in spill record";
  (i, row, key)

(* ------------------------------------------------------------------ *)
(* Shared plumbing *)

type side = { s_rows : Eval.row list; s_key : Compile.expr_fn }
type probe = { p_iter : (Eval.row -> unit) -> unit; p_key : Compile.expr_fn }

(* (index, row, canonical keys) — keys computed once per row. *)
let expand env (s : side) =
  List.mapi (fun i row -> (i, row, keys_of_value (s.s_key env row))) s.s_rows

(* The same triples for the probe side, yielded as its rows arrive. *)
let expand_iter env (p : probe) f =
  let i = ref 0 in
  p.p_iter (fun row ->
      let li = !i in
      incr i;
      f (li, row, keys_of_value (p.p_key env row)))

let to_list iter =
  let acc = ref [] in
  iter (fun x -> acc := x :: !acc);
  List.rev !acc

(* Flatten (i, row, keys) into single-key entries. *)
let singles entries =
  List.concat_map (fun (i, row, keys) -> List.map (fun k -> (i, row, k)) keys) entries

let singles_iter iter f = iter (fun (i, row, keys) -> List.iter (fun k -> f (i, row, k)) keys)

(* Emit the pair at most once (nested-loop multiplicity), re-checking
   the full predicate so the key only over-approximates. *)
let try_emit env pred seen emit (li, lrow) (ri, rrow) =
  let k = (li, ri) in
  if not (Hashtbl.mem seen k) then begin
    Hashtbl.replace seen k ();
    let merged = lrow @ rrow in
    if pred env merged then emit merged
  end

(* The in-memory hash join over single-key entries: a table over the
   build side, probed by each left entry as [iter_lefts] yields it. *)
let hash_join_single env pred seen emit iter_lefts rights =
  incr hash_builds;
  let table = Hashtbl.create 64 in
  List.iter (fun (ri, rrow, k) -> Hashtbl.add table k (ri, rrow)) rights;
  iter_lefts (fun (li, lrow, k) ->
      List.iter
        (fun (ri, rrow) -> try_emit env pred seen emit (li, lrow) (ri, rrow))
        (Hashtbl.find_all table k))

(* ------------------------------------------------------------------ *)
(* Spill partitions *)

let sum_bytes entries = List.fold_left (fun acc e -> acc + entry_bytes e) 0 entries

(* Writes the entries to a fresh temp file and flushes it so the writes
   hit the simulated disk deterministically (where crash injection can
   sever them). Records too large for a page stay in the in-memory
   overflow list. Returns (file, overflow). *)
let spill store temps entries =
  let hf = Store.new_temp_file store in
  temps := hf :: !temps;
  incr partitions_spilled;
  let overflow = ref [] in
  let buf = Buffer.create 256 in
  List.iter
    (fun e ->
      Buffer.clear buf;
      add_entry buf e;
      let bytes = Buffer.contents buf in
      spill_bytes := !spill_bytes + String.length bytes;
      try ignore (Heap_file.insert hf bytes)
      with Invalid_argument _ -> overflow := e :: !overflow)
    entries;
  Buffer_pool.flush_file (Store.buffer store) ~file:(Heap_file.file_id hf);
  (hf, List.rev !overflow)

(* Yields a spilled partition's entries as they are decoded, then
   releases its file. *)
let stream_back store (hf, overflow) f =
  Heap_file.scan hf ~f:(fun _rid bytes -> f (decode_entry bytes));
  Store.release_temp_file store hf;
  List.iter f overflow

let read_back store spilled =
  let acc = ref [] in
  stream_back store spilled (fun e -> acc := e :: !acc);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Grace hash join *)

let max_grace_depth = 4

let grace_hash env store pred seen emit iter_lefts rights =
  let temps = ref [] in
  let budget () = max 1 !Join_cost.join_mem_bytes in
  (* Entries here are single-key; a row with a collection key appears
     once per distinct element key, possibly in different partitions —
     the global (li, ri) dedup keeps the multiset exact. The build side
     is a list, since its size decides between joining and
     partitioning again; the probe side is an iterator, so the left
     input streams into the in-memory join or the first split, and a
     spilled left partition is decoded one record at a time and never
     held whole. *)
  let rec go ~salt ~depth iter_lefts rights =
    let build_bytes = sum_bytes rights in
    if build_bytes <= budget () || depth >= max_grace_depth then begin
      if build_bytes > budget () then incr fallbacks;
      hash_join_single env pred seen emit iter_lefts rights
    end
    else begin
      let fanout = min 16 (max 2 ((build_bytes / budget ()) + 1)) in
      let split iter =
        let parts = Array.make fanout [] in
        iter (fun ((_, _, key) as e) ->
            let b = Hashtbl.hash (salt, key) mod fanout in
            parts.(b) <- e :: parts.(b));
        Array.map List.rev parts
      in
      let lparts = split iter_lefts and rparts = split (fun f -> List.iter f rights) in
      (* Spill every partition of both sides first (the partitioning
         pass), then join partition pairs one at a time. *)
      let spilled =
        Array.init fanout (fun b -> (spill store temps lparts.(b), spill store temps rparts.(b)))
      in
      Array.iter
        (fun (lspill, rspill) ->
          go ~salt:(salt + 1) ~depth:(depth + 1) (stream_back store lspill)
            (read_back store rspill))
        spilled
    end
  in
  Fun.protect
    ~finally:(fun () -> List.iter (fun hf -> Store.release_temp_file store hf) !temps)
    (fun () -> go ~salt:0 ~depth:0 (singles_iter iter_lefts) (singles rights))

(* ------------------------------------------------------------------ *)
(* Sort-merge join *)

let key_cmp (_, _, a) (_, _, b) = String.compare a b

(* Sorts single-key entries; when the side overflows the budget the
   initial runs spill to temp files and merge back (one extra
   read+write pass, charged through the disk). *)
let sort_side store temps entries =
  let budget = max 1 !Join_cost.join_mem_bytes in
  if sum_bytes entries <= budget then Heap.sort_with_runs ~cmp:key_cmp ~run_length:512 entries
  else begin
    incr merge_passes;
    let runs = ref [] and current = ref [] and current_bytes = ref 0 in
    let close_run () =
      if !current <> [] then begin
        runs := List.sort key_cmp !current :: !runs;
        current := [];
        current_bytes := 0
      end
    in
    List.iter
      (fun e ->
        let b = entry_bytes e in
        if !current_bytes + b > budget then close_run ();
        current := e :: !current;
        current_bytes := !current_bytes + b)
      entries;
    close_run ();
    let spilled = List.rev_map (fun run -> spill store temps run) !runs in
    let runs_back = List.map (fun s -> List.sort key_cmp (read_back store s)) spilled in
    Heap.merge_sorted ~cmp:key_cmp runs_back
  end

let sort_merge env store pred seen emit iter_lefts rights =
  let temps = ref [] in
  Fun.protect
    ~finally:(fun () -> List.iter (fun hf -> Store.release_temp_file store hf) !temps)
    (fun () ->
      let lefts = to_list iter_lefts in
      let la = Array.of_list (sort_side store temps (singles lefts)) in
      let ra = Array.of_list (sort_side store temps (singles rights)) in
      let nl = Array.length la and nr = Array.length ra in
      let key (_, _, k) = k in
      let li = ref 0 and ri = ref 0 in
      while !li < nl && !ri < nr do
        let c = String.compare (key la.(!li)) (key ra.(!ri)) in
        if c < 0 then incr li
        else if c > 0 then incr ri
        else begin
          (* Duplicate-key sub-block: [li, le) x [ri, re) is a
             cartesian product — every left entry rewinds over the
             whole right block. *)
          let k = key la.(!li) in
          let le = ref !li and re = ref !ri in
          while !le < nl && String.equal (key la.(!le)) k do incr le done;
          while !re < nr && String.equal (key ra.(!re)) k do incr re done;
          let l_last = if !sabotage_skip_rewind then !li else !le - 1 in
          for l = !li to l_last do
            let il, rowl, _ = la.(l) in
            for r = !ri to !re - 1 do
              let ir, rowr, _ = ra.(r) in
              try_emit env pred seen emit (il, rowl) (ir, rowr)
            done
          done;
          li := !le;
          ri := !re
        end
      done)

(* ------------------------------------------------------------------ *)
(* Fusion join (Odra): build a hash over the right side once, then
   stream the left side probing per collection element — the collection
   navigation and the probe fuse, so the flattened left side is never
   materialized. *)

let fusion env pred seen emit (left : probe) rights =
  incr hash_builds;
  let table = Hashtbl.create 64 in
  List.iter
    (fun (ri, rrow, rkeys) -> List.iter (fun k -> Hashtbl.add table k (ri, rrow)) rkeys)
    rights;
  let li = ref 0 in
  left.p_iter (fun lrow ->
      let i = !li in
      incr li;
      let v = left.p_key env lrow in
      let elems = match v with Value.Set xs | Value.List xs -> xs | v -> [ v ] in
      List.iter
        (fun e ->
          match elem_key e with
          | None -> ()
          | Some k -> (
              match Hashtbl.find_all table k with
              | [] -> ()
              | hits ->
                  incr fusion_hits;
                  List.iter (fun (ri, rrow) -> try_emit env pred seen emit (i, lrow) (ri, rrow)) hits))
        elems)

(* ------------------------------------------------------------------ *)

let run method_ env ~store ~pred ~left ~right ~emit =
  let seen = Hashtbl.create 256 in
  match method_ with
  | Join_cost.Hash_join ->
      let rights = singles (expand env right) in
      hash_join_single env pred seen emit (singles_iter (expand_iter env left)) rights
  | Join_cost.Grace_hash -> grace_hash env store pred seen emit (expand_iter env left) (expand env right)
  | Join_cost.Sort_merge -> sort_merge env store pred seen emit (expand_iter env left) (expand env right)
  | Join_cost.Fusion_join -> fusion env pred seen emit left (expand env right)
  | Join_cost.Nested_loop | Join_cost.Forward_traversal | Join_cost.Backward_traversal
  | Join_cost.Binary_join_index | Join_cost.Hash_partition ->
      invalid_arg "Value_join.run: not a value-join method"
