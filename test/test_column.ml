(* Tests for the columnar subsystem: the PAX page codec (round-trip
   fuzz over nulls, empty strings, wide strings, RLE and dictionary
   encodings), the derived segment's self-healing and deterministic
   rebuilds, the ANALYZE-driven dictionary chooser, and the
   vectorized-vs-row differential oracle. *)

module Db = Mood.Db
module Catalog = Mood_catalog.Catalog
module Value = Mood_model.Value
module Mtype = Mood_model.Mtype
module Pax = Mood_column.Pax
module Pax_store = Mood_column.Pax_store
module Batch = Mood_column.Batch
module Scan_metrics = Mood_column.Scan_metrics
module Heap_file = Mood_storage.Heap_file
module Scan_oracle = Mood_sim.Scan_oracle
module Group_table = Mood_executor.Group_table
module Plan = Mood_optimizer.Plan
module Optimizer = Mood_optimizer.Optimizer
module Prng = Mood_util.Prng

let ok db src =
  match Db.exec db src with
  | Ok r -> r
  | Error m -> Alcotest.failf "unexpected error on %S: %s" src m

(* ------------------------------------------------------------------ *)
(* Codec round-trip fuzz                                               *)

let fuzz_schema =
  [| ("a", Pax.KInt); ("b", Pax.KFloat); ("c", Pax.KStr); ("d", Pax.KOther) |]

let gen_string rng =
  match Prng.int rng ~bound:8 with
  | 0 -> ""  (* empty string: a value, not a NULL *)
  | 1 -> String.make (200 + Prng.int rng ~bound:100) 'w'  (* wide *)
  | 2 | 3 -> "dup"  (* duplicate-heavy: dictionary bait *)
  | _ -> Printf.sprintf "s%d" (Prng.int rng ~bound:1000)

let gen_cell rng kind =
  if Prng.int rng ~bound:5 = 0 then Value.Null
  else
    match kind with
    | Pax.KInt ->
        if Prng.bool rng then Value.Int (Prng.int rng ~bound:8)
        else Value.Int ((Prng.int rng ~bound:1000) * 10_000_000)
    | Pax.KFloat -> Value.Float (float_of_int (Prng.int rng ~bound:100) /. 8.)
    | Pax.KStr -> Value.Str (gen_string rng)
    | Pax.KOther ->
        Value.set (List.init (Prng.int rng ~bound:3) (fun i -> Value.Int i))

let gen_tuple rng =
  Value.Tuple
    (Array.to_list
       (Array.map (fun (name, kind) -> (name, gen_cell rng kind)) fuzz_schema))

let test_codec_roundtrip_fuzz () =
  let rng = Prng.create ~seed:7 in
  for _round = 1 to 50 do
    let n = 1 + Prng.int rng ~bound:200 in
    let rows = Array.init n (fun _ -> gen_tuple rng) in
    let slots = Array.init n (fun i -> i * 2) in
    let hints =
      match Prng.int rng ~bound:3 with
      | 0 -> [ ("c", Pax.Prefer_dict) ]
      | 1 -> [ ("c", Pax.No_dict) ]
      | _ -> []
    in
    let page = Pax.encode_page ~schema:fuzz_schema ~hints ~slots ~rows in
    let b = Pax.decode_page ~schema:fuzz_schema page in
    Alcotest.(check int) "row count" n b.Batch.n;
    Array.iteri
      (fun i (name, _) ->
        ignore i;
        let col =
          match Batch.column b name with
          | Some c -> c
          | None -> Alcotest.failf "column %s missing" name
        in
        for r = 0 to n - 1 do
          let want =
            match rows.(r) with
            | Value.Tuple fields -> List.assoc name fields
            | _ -> assert false
          in
          let got = Batch.cell col r in
          if Value.compare want got <> 0 then
            Alcotest.failf "round %d cell %s[%d]: wrote %s, read %s" n name r
              (Value.to_string want) (Value.to_string got)
        done)
      fuzz_schema;
    for r = 0 to n - 1 do
      Alcotest.(check int) "slot preserved" slots.(r) b.Batch.slots.(r)
    done
  done

let test_codec_rejects_corruption () =
  let rng = Prng.create ~seed:11 in
  let n = 64 in
  let rows = Array.init n (fun _ -> gen_tuple rng) in
  let slots = Array.init n (fun i -> i) in
  let page = Pax.encode_page ~schema:fuzz_schema ~hints:[] ~slots ~rows in
  (* Flipping any byte past the magic must raise Corrupt, never return
     wrong data silently or crash with an unexpected exception. *)
  let caught = ref 0 in
  for pos = 4 to String.length page - 1 do
    let b = Bytes.of_string page in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x5a));
    match Pax.decode_page ~schema:fuzz_schema (Bytes.to_string b) with
    | exception Pax.Corrupt _ -> incr caught
    | _got -> ()
  done;
  (* The checksum covers the whole body, so every flip is caught. *)
  Alcotest.(check int) "every byte flip caught" (String.length page - 4) !caught

(* The truncation rule: every proper prefix of a page raises [Corrupt],
   both as cut (the checksum catches it) and with the checksum resealed
   over the cut body (the length checks must catch it then). *)
let prop_prefix_corrupt =
  QCheck.Test.make ~name:"every proper prefix of a page raises Corrupt" ~count:40
    QCheck.small_nat (fun seed ->
      let rng = Prng.create ~seed in
      let n = 1 + Prng.int rng ~bound:8 in
      let rows = Array.init n (fun _ -> gen_tuple rng) in
      let page = Pax.encode_page ~schema:fuzz_schema ~hints:[] ~slots:(Array.init n Fun.id) ~rows in
      let corrupt s =
        match Pax.decode_page ~schema:fuzz_schema s with
        | exception Pax.Corrupt _ -> true
        | _ -> false
      in
      let resealed s =
        let b = Bytes.of_string s in
        if Bytes.length b >= 8 then Bytes.set_int32_be b 4 (Int32.of_int (Pax.checksum s ~pos:8));
        Bytes.to_string b
      in
      List.for_all
        (fun len ->
          let prefix = String.sub page 0 len in
          corrupt prefix && corrupt (resealed prefix))
        (List.init (String.length page) Fun.id))

let test_rle_pin () =
  (* A constant int column must RLE-encode: its minipage collapses to a
     single run, so the page is far smaller than the same schema over
     distinct values, and the decode counter ticks. *)
  let schema = [| ("k", Pax.KInt) |] in
  let n = 512 in
  let slots = Array.init n (fun i -> i) in
  let constant = Array.init n (fun _ -> Value.Tuple [ ("k", Value.Int 7) ]) in
  let distinct = Array.init n (fun i -> Value.Tuple [ ("k", Value.Int (i * 3)) ]) in
  let page_c = Pax.encode_page ~schema ~hints:[] ~slots ~rows:constant in
  let page_d = Pax.encode_page ~schema ~hints:[] ~slots ~rows:distinct in
  (* The data minipage collapses to one run (~16 bytes vs 8/row); the
     slot vector is identical on both pages, so the saving shows as a
     near-[n*8] size gap. *)
  Alcotest.(check bool) "rle page beats plain"
    true
    (String.length page_c + (n * 4) < String.length page_d);
  let runs0 = Scan_metrics.m.Scan_metrics.rle_runs in
  let b = Pax.decode_page ~schema page_c in
  Alcotest.(check int) "rows" n b.Batch.n;
  for i = 0 to n - 1 do
    if Batch.cell (snd b.Batch.columns.(0)) i <> Value.Int 7 then
      Alcotest.failf "rle cell %d decoded wrong" i
  done;
  Alcotest.(check bool) "rle runs counted" true
    (Scan_metrics.m.Scan_metrics.rle_runs > runs0)

(* FNV-1a-32 known answers: the page checksum is the published hash. *)
let test_checksum_known_answers () =
  List.iter
    (fun (s, want) -> Alcotest.(check int) (Printf.sprintf "%S" s) want (Pax.checksum s ~pos:0))
    [ ("", 0x811c9dc5); ("a", 0xe40c292c); ("foobar", 0xbf9cf968) ];
  Alcotest.(check int) "from a position" 0xe40c292c (Pax.checksum "xya" ~pos:2)

(* [got] holds [want]'s slots and, column for column, the same kind of
   array, null bits and cells. *)
let same_cells what (want : Batch.t) (got : Batch.t) =
  if want.Batch.n <> got.Batch.n || want.Batch.slots <> got.Batch.slots then
    Alcotest.failf "%s: slots differ" what;
  let kind (col : Batch.column) =
    match col.Batch.data with
    | Batch.Ints _ -> "ints"
    | Batch.Floats _ -> "floats"
    | Batch.Strs _ -> "strs"
    | Batch.Values _ -> "values"
  in
  Array.iteri
    (fun c (attr, wcol) ->
      let gattr, gcol = got.Batch.columns.(c) in
      if attr <> gattr || kind wcol <> kind gcol then
        Alcotest.failf "%s: column %d is %s %s, want %s %s" what c gattr (kind gcol) attr (kind wcol);
      for i = 0 to want.Batch.n - 1 do
        if Batch.is_null wcol i <> Batch.is_null gcol i
           || Value.compare (Batch.cell wcol i) (Batch.cell gcol i) <> 0
        then
          Alcotest.failf "%s: %s[%d] is %s, want %s" what attr i
            (Value.to_string (Batch.cell gcol i))
            (Value.to_string (Batch.cell wcol i))
      done)
    want.Batch.columns

(* Every string column of [b] carries a dictionary without repeats. *)
let no_repeated_entry what (b : Batch.t) =
  Array.iter
    (fun (attr, (col : Batch.column)) ->
      match col.Batch.data with
      | Batch.Strs { dict; _ } ->
          if List.length (List.sort_uniq String.compare (Array.to_list dict)) <> Array.length dict
          then Alcotest.failf "%s: column %s repeats a dictionary entry" what attr
      | Batch.Ints _ | Batch.Floats _ | Batch.Values _ -> ())
    b.Batch.columns

(* A batch the segment keeps is the batch its image decodes to. *)
let check_kept_batch what ~hints b =
  same_cells what (Pax.decode_page ~schema:fuzz_schema (Pax.encode_batch ~hints b)) b;
  no_repeated_entry what b

(* A page rebuilt from a kept base batch plus re-read rows encodes to
   the bytes a full re-encode of its rows gives: base pages under every
   string hint, off-kind cells on either side (which demote a column to
   the generic minipage, or promote it back once they are gone), NULLs,
   deleted and added slots. The base is the decoded image or the
   columns of a page built from the heap, and the merged batch, like
   a heap-built one, is the batch its image decodes to, with no
   repeated dictionary entry. *)
let test_merged_rebuild_bytes () =
  let rng = Prng.create ~seed:19 in
  let off_kind () =
    match Prng.int rng ~bound:3 with
    | 0 -> Value.Long 5L
    | 1 -> Value.Char 'q'
    | _ -> Value.Bool true
  in
  let cell kind = if Prng.int rng ~bound:12 = 0 then off_kind () else gen_cell rng kind in
  let tuple () =
    Value.Tuple (Array.to_list (Array.map (fun (name, kind) -> (name, cell kind)) fuzz_schema))
  in
  for round = 1 to 300 do
    let hints =
      match Prng.int rng ~bound:3 with
      | 0 -> [ ("c", Pax.Prefer_dict) ]
      | 1 -> [ ("c", Pax.No_dict) ]
      | _ -> []
    in
    let encode slots rows = Pax.encode_page ~schema:fuzz_schema ~hints ~slots ~rows in
    let heap_built slots rows =
      Pax.page_columns ~schema:fuzz_schema ~slots ~base:None
        ~from_base:(Array.make (Array.length slots) (-1)) ~rows
    in
    (* the base: every other slot of 0 .. 2m, some rows later rewritten *)
    let m = Prng.int rng ~bound:80 in
    let base_slots = Array.init m (fun i -> 2 * i) in
    let base_rows = Array.init m (fun _ -> tuple ()) in
    let built = heap_built base_slots base_rows in
    check_kept_batch (Printf.sprintf "round %d, heap-built base" round) ~hints built;
    let decoded = Pax.decode_page ~schema:fuzz_schema (encode base_slots base_rows) in
    (* the page now: base slots minus some, plus odd slots; rows kept,
       rewritten or new *)
    let now = ref [] in
    for slot = (2 * m) + 3 downto 0 do
      let in_base = slot mod 2 = 0 && slot < 2 * m in
      match Prng.int rng ~bound:4 with
      | 0 when in_base -> () (* deleted *)
      | 1 | 2 when in_base -> now := (slot, base_rows.(slot / 2), slot / 2) :: !now
      | _ when in_base || Prng.int rng ~bound:3 = 0 -> now := (slot, tuple (), -1) :: !now
      | _ -> ()
    done;
    let now = Array.of_list !now in
    let slots = Array.map (fun (slot, _, _) -> slot) now in
    let rows = Array.map (fun (_, row, _) -> row) now in
    let from_base = Array.map (fun (_, _, i) -> i) now in
    let full = encode slots rows in
    List.iter
      (fun (what, base) ->
        let what = Printf.sprintf "round %d, %s base" round what in
        let merged =
          Pax.page_columns ~schema:fuzz_schema ~slots ~base:(Some base) ~from_base
            ~rows:(Array.mapi (fun j row -> if from_base.(j) >= 0 then Value.Null else row) rows)
        in
        if not (String.equal (Pax.encode_batch ~hints merged) full) then
          Alcotest.failf "%s: a merged rebuild of %d rows differs from a full encode" what
            (Array.length slots);
        check_kept_batch what ~hints merged)
      [ ("decoded", decoded); ("heap-built", built) ];
    check_kept_batch (Printf.sprintf "round %d, heap-built page" round) ~hints
      (heap_built slots rows)
  done

(* ------------------------------------------------------------------ *)
(* Derived segment: determinism, torn pages, healing                   *)

let pax_db () =
  let db = Db.create () in
  ignore
    (ok db
       "CREATE CLASS PaxT TUPLE (k Integer, name String(16), w Float) LAYOUT PAX");
  for i = 1 to 400 do
    ignore
      (ok db
         (Printf.sprintf "new PaxT <%d, '%s', %d.5>" i
            (if i mod 4 = 0 then "steel" else "alloy")
            (i mod 9)))
  done;
  let ps =
    match Catalog.pax_store (Db.catalog db) "PaxT" with
    | Some ps -> ps
    | None -> Alcotest.fail "PAX class has no segment"
  in
  (db, ps)

let test_rebuild_determinism () =
  let db, ps = pax_db () in
  Pax_store.materialize ps;
  let images0 = Pax_store.page_images ps in
  Alcotest.(check bool) "several pages" true (List.length images0 > 1);
  Pax_store.invalidate_all ps;
  Pax_store.materialize ps;
  let images1 = Pax_store.page_images ps in
  Alcotest.(check bool) "byte-identical rebuild" true (images0 = images1);
  (* Incremental upkeep: after each write and the scan that follows,
     every image equals a full re-encode of its page's heap rows. Row
     [k] sits in slot [k - 1], so page 1 holds k in (rpp, 2 rpp]. *)
  let ext = Catalog.own_extent (Db.catalog db) "PaxT" in
  let rpp = Pax_store.rows_per_page ps in
  let scan_and_check what =
    ignore (ok db "SELECT COUNT(*) FROM PaxT p");
    match Scan_oracle.image_mismatches ps ext with
    | [] -> ()
    | m :: _ -> Alcotest.failf "after %s: %s" what m
  in
  ignore (ok db "SET SCAN_FORCE VECTOR");
  let reread0 = Scan_metrics.m.Scan_metrics.rows_reread in
  ignore (ok db "UPDATE PaxT p SET w = 0.5 WHERE p.k = 3");
  scan_and_check "an update";
  Alcotest.(check int) "the rebuild re-reads only the written row" 1
    (Scan_metrics.m.Scan_metrics.rows_reread - reread0);
  ignore (ok db "UPDATE PaxT p SET name = 'tin' WHERE p.k > 90 AND p.k < 300");
  scan_and_check "an update across pages";
  ignore
    (ok db
       (Printf.sprintf "DELETE FROM PaxT p WHERE p.k > %d AND p.k <= %d" rpp (2 * rpp)));
  scan_and_check "a delete that empties a page";
  ignore (ok db "new PaxT <401, 'tail', 1.5>");
  scan_and_check "an insert into the tail page";
  Mood_storage.Extent.insert_at ext ~slot:(rpp + 3)
    (Value.Tuple [ ("k", Value.Int 0); ("name", Value.Str "gap"); ("w", Value.Float 2.5) ]);
  scan_and_check "an insert into a gap";
  ignore (ok db "UPDATE PaxT p SET k = p.k + 1000 WHERE p.name = 'gap' OR p.k = 2");
  ignore (ok db "DELETE FROM PaxT p WHERE p.k = 5");
  scan_and_check "an update and a delete on one page";
  (* Negative control: a write the hook never sees leaves a stale
     image, and the comparison must report it. *)
  Mood_storage.Extent.set_mutation_hook ext None;
  ignore (ok db "UPDATE PaxT p SET w = 9.5 WHERE p.k = 7");
  ignore (ok db "SELECT COUNT(*) FROM PaxT p");
  Alcotest.(check bool) "an unhooked update is reported" true
    (Scan_oracle.image_mismatches ps ext <> [])

(* After set-up, a write and the scan after it store no PAX image: the
   page merged from its kept batch stays in memory. So 200 rounds of a
   one-value UPDATE (whose target search is a VSCAN) and a VSCAN leave
   the segment with the pages and records set-up left, and every batch
   it serves is the batch its image decodes to. *)
let test_segment_stops_growing () =
  let db, ps = pax_db () in
  ignore (ok db "SET SCAN_FORCE VECTOR");
  Pax_store.materialize ps;
  let seg = Pax_store.segment ps in
  let pages0 = Heap_file.page_count seg and records0 = Heap_file.record_count seg in
  let built0 = Scan_metrics.m.Scan_metrics.pages_built in
  for round = 1 to 200 do
    ignore
      (ok db
         (Printf.sprintf "UPDATE PaxT p SET w = %d.5 WHERE p.k = %d" round (1 + (round * 37 mod 400))));
    ignore (ok db "SELECT COUNT(*) FROM PaxT p WHERE p.w > 1.0")
  done;
  Alcotest.(check bool) "every round merged a page" true
    (Scan_metrics.m.Scan_metrics.pages_built - built0 >= 200);
  Alcotest.(check bool)
    (Printf.sprintf "segment pages %d, set-up left %d" (Heap_file.page_count seg) pages0)
    true
    (Heap_file.page_count seg <= pages0);
  Alcotest.(check bool)
    (Printf.sprintf "segment records %d, set-up left %d" (Heap_file.record_count seg) records0)
    true
    (Heap_file.record_count seg <= records0);
  let schema = Pax_store.schema ps and hints = Pax_store.hints ps in
  Pax_store.iter_batches ps ~f:(fun b ->
      same_cells "served batch" (Pax.decode_page ~schema (Pax.encode_batch ~hints b)) b;
      no_repeated_entry "served batch" b);
  match Scan_oracle.image_mismatches ps (Catalog.own_extent (Db.catalog db) "PaxT") with
  | [] -> ()
  | m :: _ -> Alcotest.failf "after 200 rounds: %s" m

let test_torn_page_heals () =
  let db, ps = pax_db () in
  Pax_store.materialize ps;
  let seg = Pax_store.segment ps in
  (* Tear the first chunk of every built page: same-length garbage so
     the in-place update sticks and reassembly fails the checksum. *)
  let torn = ref 0 in
  List.iter
    (fun (_page, rids) ->
      match rids with
      | rid :: _ -> begin
          match Heap_file.get seg rid with
          | Some payload ->
              let garbage = String.make (String.length payload) '\xde' in
              if Heap_file.update seg rid garbage then incr torn
          | None -> ()
        end
      | [] -> ())
    (Pax_store.chunk_rids ps);
  Alcotest.(check bool) "tore some chunks" true (!torn > 0);
  (* The tear corrupted the durable image while a decoded view was in
     memory; model the restart that loses the view, so the next scan
     re-reads (and checksums) the stored bytes. *)
  Pax_store.drop_cached_batches ps;
  let healed0 = Scan_metrics.m.Scan_metrics.pages_healed in
  ignore (ok db "SET SCAN_FORCE VECTOR");
  let r = Db.query db "SELECT COUNT(*), SUM(p.k) FROM PaxT p" in
  (match Mood_executor.Executor.result_values r with
  | [ Value.Tuple fields ] ->
      Alcotest.(check bool) "count survives torn pages" true
        (List.assoc "COUNT(*)" fields = Value.Int 400);
      Alcotest.(check bool) "sum survives torn pages" true
        (List.assoc "SUM(p.k)" fields = Value.Int (400 * 401 / 2))
  | _ -> Alcotest.fail "unexpected result shape");
  Alcotest.(check bool) "healing counted" true
    (Scan_metrics.m.Scan_metrics.pages_healed > healed0)

(* ------------------------------------------------------------------ *)
(* ANALYZE-driven dictionary chooser                                   *)

let test_dict_chooser () =
  let db = Db.create () in
  ignore
    (ok db
       "CREATE CLASS Dicty TUPLE (lowc String(8), highc String(16)) LAYOUT PAX");
  for i = 1 to 300 do
    ignore
      (ok db
         (Printf.sprintf "new Dicty <'%s', 'unique-%d'>"
            (if i mod 2 = 0 then "even" else "odd")
            i))
  done;
  Db.analyze db;
  let ps =
    match Catalog.pax_store (Db.catalog db) "Dicty" with
    | Some ps -> ps
    | None -> Alcotest.fail "no segment"
  in
  let hints = Pax_store.hints ps in
  Alcotest.(check bool) "low cardinality -> dictionary" true
    (List.assoc_opt "lowc" hints = Some Pax.Prefer_dict);
  (* The pin: a high-cardinality string must NOT be dictionary-encoded. *)
  Alcotest.(check bool) "high cardinality -> no dictionary" true
    (List.assoc_opt "highc" hints = Some Pax.No_dict)

(* ------------------------------------------------------------------ *)
(* End-to-end: DDL, plans, knob, metrics                               *)

let test_pax_end_to_end () =
  let db = Db.create () in
  (match ok db "CREATE CLASS Part TUPLE (pid Integer, cat String(8)) LAYOUT PAX" with
  | Db.Class_created "Part" -> ()
  | _ -> Alcotest.fail "create result");
  for i = 1 to 100 do
    ignore
      (ok db
         (Printf.sprintf "new Part <%d, '%s'>" i
            (if i mod 3 = 0 then "steel" else "alloy")))
  done;
  Db.analyze db;
  let plan = Db.explain db "SELECT COUNT(*) FROM Part p WHERE p.pid > 50" in
  Alcotest.(check bool) "optimizer picks the vectorized scan" true
    (Helpers.contains plan "VSCAN");
  let b0 = Scan_metrics.m.Scan_metrics.batches in
  let r = Db.query db "SELECT COUNT(*) FROM Part p WHERE p.pid > 50" in
  (match Mood_executor.Executor.result_values r with
  | [ Value.Tuple [ (_, Value.Int 50) ] ] -> ()
  | vs ->
      Alcotest.failf "wrong count: %s"
        (String.concat ";" (List.map Value.to_string vs)));
  Alcotest.(check bool) "batches ticked" true
    (Scan_metrics.m.Scan_metrics.batches > b0);
  (* scan.* flows through the metrics registry. *)
  let snap = Db.metrics_snapshot db in
  Alcotest.(check bool) "scan.batches surfaced" true
    (List.exists (fun (k, _) -> k = "scan.batches") snap);
  (* EXPLAIN ANALYZE carries the batch counts. *)
  let analyzed = Db.explain_analyze db "SELECT COUNT(*) FROM Part p" in
  Alcotest.(check bool) "explain analyze shows batches" true
    (Helpers.contains analyzed "vectorized:");
  (* The knob forces the row engine; the plan label changes back. *)
  ignore (ok db "SET SCAN_FORCE ROW");
  let plan_row = Db.explain db "SELECT COUNT(*) FROM Part p WHERE p.pid > 50" in
  Alcotest.(check bool) "forced row plan has no vscan" true
    (not (Helpers.contains plan_row "VSCAN"));
  ignore (ok db "SET SCAN_FORCE DEFAULT");
  (* ALTER back to row layout drops the segment. *)
  (match ok db "ALTER CLASS Part SET LAYOUT ROW" with
  | Db.Layout_altered ("Part", "ROW") -> ()
  | _ -> Alcotest.fail "alter result");
  Alcotest.(check bool) "segment dropped" true
    (Catalog.pax_store (Db.catalog db) "Part" = None);
  let r = Db.query db "SELECT COUNT(*) FROM Part p" in
  (match Mood_executor.Executor.result_values r with
  | [ Value.Tuple [ (_, Value.Int 100) ] ] -> ()
  | _ -> Alcotest.fail "count after layout switch");
  (* And forward again: ALTER ... PAX rebuilds lazily. *)
  (match ok db "ALTER CLASS Part SET LAYOUT PAX" with
  | Db.Layout_altered ("Part", "PAX") -> ()
  | _ -> Alcotest.fail "alter result");
  Alcotest.(check bool) "segment recreated" true
    (Catalog.pax_store (Db.catalog db) "Part" <> None);
  let r = Db.query db "SELECT COUNT(*) FROM Part p" in
  match Mood_executor.Executor.result_values r with
  | [ Value.Tuple [ (_, Value.Int 100) ] ] -> ()
  | _ -> Alcotest.fail "count after switch back"

(* ------------------------------------------------------------------ *)
(* Grouped aggregation in the vectorized scan                          *)

(* The group table's hash must agree with the row engine's group
   equality ([Value.equal] over the key list). *)
let test_group_hash_agrees_with_equal () =
  let tbl = Group_table.create ~labels:[] ~fresh:ignore in
  let same what a b =
    Alcotest.(check bool) (what ^ ": equal") true (List.equal Value.equal a b);
    Alcotest.(check int) (what ^ ": hash") (Group_table.hash_key a) (Group_table.hash_key b);
    Alcotest.(check bool) (what ^ ": one group") true
      (Group_table.find tbl a == Group_table.find tbl b)
  in
  same "Int/Long" [ Value.Int 3 ] [ Value.Long 3L ];
  same "Int/Float" [ Value.Int 3 ] [ Value.Float 3.0 ];
  same "-0.0/0.0" [ Value.Float (-0.0) ] [ Value.Float 0.0 ];
  same "NULL" [ Value.Null ] [ Value.Null ];
  same "two-part" [ Value.Float 2.0; Value.Str "x" ] [ Value.Long 2L; Value.Str "x" ];
  same "set"
    [ Value.set [ Value.Int 1; Value.Int 2 ] ]
    [ Value.set [ Value.Float 2.; Value.Long 1L ] ];
  Alcotest.(check bool) "Str/Char: two groups" true
    (Group_table.find tbl [ Value.Str "a" ] != Group_table.find tbl [ Value.Char 'a' ]);
  Alcotest.(check bool) "NULL/0: two groups" true
    (Group_table.find tbl [ Value.Null ] != Group_table.find tbl [ Value.Int 0 ]);
  (* Random numeric keys: equal under [Value.equal] implies equal hash. *)
  let rng = Prng.create ~seed:5 in
  let numeric () =
    let x = Prng.int rng ~bound:7 - 3 in
    match Prng.int rng ~bound:3 with
    | 0 -> Value.Int x
    | 1 -> Value.Long (Int64.of_int x)
    | _ -> Value.Float (float_of_int x)
  in
  for _ = 1 to 500 do
    let a = [ numeric (); numeric () ] and b = [ numeric (); numeric () ] in
    if List.equal Value.equal a b then
      Alcotest.(check int) "random equal keys hash alike" (Group_table.hash_key a)
        (Group_table.hash_key b)
  done;
  (* Through the table's rows, as both engines emit them: groups in
     order of first appearance, each with its first member and its
     fold. Member [i] is the [i]th row in. *)
  let tbl = Group_table.create ~labels:[ "COUNT(*)" ] ~fresh:(fun _ -> ref 0) in
  let member i =
    [ ("m", { Mood_algebra.Collection.oid = None; value = Value.Int i }) ]
  in
  List.iteri
    (fun i key ->
      let g = Group_table.find tbl [ key ] in
      Group_table.keep_first g member i;
      incr g.Group_table.accs.(0))
    [ Value.Str "b"; Value.Str "a"; Value.Int 2; Value.Str "b"; Value.Float 2.0;
      Value.Str "c"; Value.Str "a" ];
  let rows = ref [] in
  Group_table.iter_rows tbl
    ~final:(fun _ n -> Value.Int !n)
    (fun row ->
      rows :=
        String.concat ", "
          (List.map
             (fun (var, it) -> var ^ "=" ^ Value.to_string it.Mood_algebra.Collection.value)
             row)
        :: !rows);
  Alcotest.(check (list string)) "first appearance, first member"
    [ "m=0, #agg=<COUNT(*): 2>"; "m=1, #agg=<COUNT(*): 2>"; "m=2, #agg=<COUNT(*): 2>";
      "m=5, #agg=<COUNT(*): 1>" ]
    (List.rev !rows)

let rec plan_nodes (node : Plan.node) =
  node
  ::
  (match node with
  | Plan.Sort { source; _ } | Plan.Project { source; _ } | Plan.Group { source; _ }
  | Plan.Select { source; _ } | Plan.Ind_sel { source; _ } ->
      plan_nodes source
  | Plan.Join { left; right; _ } -> plan_nodes left @ plan_nodes right
  | Plan.Union nodes -> List.concat_map plan_nodes nodes
  | Plan.Bind _ | Plan.Named_obj _ | Plan.Path_ind_sel _ | Plan.Vscan _ -> [])

let count_nodes f node = List.length (List.filter f (plan_nodes node))

let is_group = function Plan.Group _ -> true | _ -> false

let is_grouped_vscan = function
  | Plan.Vscan { by; _ } -> by <> []
  | _ -> false

let plan_aggregates node =
  List.concat_map
    (function
      | Plan.Group { aggregates; _ } | Plan.Vscan { aggregates; _ } -> aggregates
      | _ -> [])
    (plan_nodes node)

let company_db () =
  let db = Db.create () in
  ignore
    (ok db "CREATE CLASS Firm TUPLE (name String(16), location String(12), staff Integer) LAYOUT PAX");
  ignore (ok db "CREATE CLASS Shop TUPLE (city String(12), size Integer)");
  ignore (ok db "DEFINE METHOD Firm::band () Integer { return staff / 10; }");
  let cities = [| "Ankara"; "Izmir"; "Bursa"; "Seoul"; "Tokyo" |] in
  for i = 1 to 400 do
    ignore
      (ok db
         (Printf.sprintf "new Firm <'f%d', '%s', %d>" i cities.((i * i) mod 5) (i mod 37)));
    if i mod 4 = 0 then
      ignore (ok db (Printf.sprintf "new Shop <'%s', %d>" cities.(i mod 5) i))
  done;
  Db.analyze db;
  db

let benchmark_group_by =
  "SELECT c.location, COUNT(*) FROM Firm c GROUP BY c.location HAVING COUNT(*) > 70 \
   ORDER BY c.location"

(* The benchmark's Company GROUP BY: one VSCAN carrying BY and HAVING,
   no GROUP node, the count computed once although SELECT and HAVING
   both name it, and the same ordered answer from both engines. *)
let test_grouped_fusion_plan () =
  let db = company_db () in
  ignore (ok db "SET SCAN_FORCE VECTOR");
  let plan = (Db.optimize db benchmark_group_by).Optimizer.plan in
  Alcotest.(check int) "one grouped VSCAN" 1 (count_nodes is_grouped_vscan plan);
  Alcotest.(check int) "no GROUP node" 0 (count_nodes is_group plan);
  Alcotest.(check (list string)) "COUNT once" [ "COUNT(*)" ]
    (List.map Mood_sql.Ast.expr_to_string (plan_aggregates plan));
  let explained = Db.explain db benchmark_group_by in
  Alcotest.(check bool) "EXPLAIN shows BY and HAVING" true
    (Helpers.contains explained "VSCAN(Firm, c, BY c.location, [COUNT(*)], HAVING COUNT(*) > 70)");
  let vector = Mood_executor.Executor.result_values (Db.query db benchmark_group_by) in
  ignore (ok db "SET SCAN_FORCE ROW");
  let row_plan = (Db.optimize db benchmark_group_by).Optimizer.plan in
  Alcotest.(check (list string)) "row plan: COUNT once" [ "COUNT(*)" ]
    (List.map Mood_sql.Ast.expr_to_string (plan_aggregates row_plan));
  let row = Mood_executor.Executor.result_values (Db.query db benchmark_group_by) in
  Alcotest.(check (list string)) "same ordered answer"
    (List.map Value.to_string row) (List.map Value.to_string vector);
  Alcotest.(check bool) "HAVING filtered some groups" true
    (List.length vector > 0 && List.length vector < 5)

(* Shapes the vectorized scan cannot group keep the row engine's
   GROUP: a row-layout class, a method-call key, a method-call
   aggregate argument. Predicates it cannot bind stay out of VSCAN even
   when vectors are forced, so the scan needs no row fallback. *)
let test_grouped_fusion_limits () =
  let db = company_db () in
  let keeps_group src =
    let plan = (Db.optimize db src).Optimizer.plan in
    Alcotest.(check int) (src ^ ": GROUP kept") 1 (count_nodes is_group plan);
    Alcotest.(check int) (src ^ ": no grouped VSCAN") 0 (count_nodes is_grouped_vscan plan)
  in
  keeps_group "SELECT s.city, COUNT(*) FROM Shop s GROUP BY s.city";
  keeps_group "SELECT c.band(), COUNT(*) FROM Firm c GROUP BY c.band()";
  keeps_group "SELECT c.location, SUM(c.band()) FROM Firm c GROUP BY c.location";
  (* Forced onto vectors, the row-layout class groups over transient
     batches, and both engines agree. *)
  let src = "SELECT s.city, COUNT(*), SUM(s.size) FROM Shop s GROUP BY s.city ORDER BY s.city" in
  let row = Mood_executor.Executor.result_values (Db.query db src) in
  ignore (ok db "SET SCAN_FORCE VECTOR");
  Alcotest.(check int) "forced: grouped VSCAN" 1
    (count_nodes is_grouped_vscan (Db.optimize db src).Optimizer.plan);
  let vector = Mood_executor.Executor.result_values (Db.query db src) in
  ignore (ok db "SET SCAN_FORCE DEFAULT");
  Alcotest.(check (list string)) "transient batches agree"
    (List.map Value.to_string row) (List.map Value.to_string vector);
  let answers force src =
    ignore (ok db ("SET SCAN_FORCE " ^ force));
    let values = Mood_executor.Executor.result_values (Db.query db src) in
    ignore (ok db "SET SCAN_FORCE DEFAULT");
    List.map Value.to_string values
  in
  List.iter
    (fun where ->
      let src = "SELECT c.name FROM Firm c WHERE " ^ where ^ " ORDER BY c.name" in
      ignore (ok db "SET SCAN_FORCE VECTOR");
      let plan = (Db.optimize db src).Optimizer.plan in
      ignore (ok db "SET SCAN_FORCE DEFAULT");
      List.iter
        (function
          | Plan.Vscan { pred = Some p; _ } ->
              Alcotest.(check bool) (src ^ ": no method call in a VSCAN") false
                (Helpers.contains (Mood_sql.Ast.predicate_to_string p) "band()")
          | _ -> ())
        (plan_nodes plan);
      let vector = answers "VECTOR" src in
      Alcotest.(check bool) (src ^ ": some rows") true (vector <> []);
      Alcotest.(check (list string)) (src ^ ": forced vector = forced row")
        (answers "ROW" src) vector)
    [ "c.band() > 1"; "c.staff > 3 AND c.band() > 1" ]

(* ------------------------------------------------------------------ *)
(* Differential oracle                                                 *)

let test_differential_oracle () =
  let r = Test_sim.clean_sweep Scan_oracle.phase ~quota:5 ~base_seed:2026 in
  Alcotest.(check int) "cycles" 5 r.cycles;
  (* Real rows compared, and grouped plans compared in order. *)
  Test_sim.exercised r [ "oracle rows"; "grouped checks" ]

let test_oracle_catches_sabotage () =
  let r = Test_sim.sabotaged_sweep Scan_oracle.phase ~quota:2 ~base_seed:2026 in
  Test_sim.exercised r [ "grouped violations" ]

let suites =
  [ ( "column",
      [ Alcotest.test_case "codec round-trip fuzz" `Quick test_codec_roundtrip_fuzz;
        Alcotest.test_case "codec rejects corruption" `Quick test_codec_rejects_corruption;
        QCheck_alcotest.to_alcotest prop_prefix_corrupt;
        Alcotest.test_case "rle pin" `Quick test_rle_pin;
        Alcotest.test_case "checksum known answers" `Quick test_checksum_known_answers;
        Alcotest.test_case "merged rebuild bytes" `Quick test_merged_rebuild_bytes;
        Alcotest.test_case "rebuild determinism" `Quick test_rebuild_determinism;
        Alcotest.test_case "segment stops growing" `Quick test_segment_stops_growing;
        Alcotest.test_case "torn page heals" `Quick test_torn_page_heals;
        Alcotest.test_case "analyze dict chooser" `Quick test_dict_chooser;
        Alcotest.test_case "pax end to end" `Quick test_pax_end_to_end;
        Alcotest.test_case "group hash agrees with equal" `Quick
          test_group_hash_agrees_with_equal;
        Alcotest.test_case "grouped fusion plan" `Quick test_grouped_fusion_plan;
        Alcotest.test_case "grouped fusion limits" `Quick test_grouped_fusion_limits;
        Alcotest.test_case "differential oracle" `Quick test_differential_oracle;
        Alcotest.test_case "oracle catches sabotage" `Quick test_oracle_catches_sabotage
      ] )
  ]
