(* Tests for Mood_storage: disk cost accounting, pages, buffer pool,
   heap files, extents, B+-tree, hash index, join/path indexes, R-tree,
   lock manager, WAL. *)

module Disk = Mood_storage.Disk
module Page = Mood_storage.Page
module Buffer_pool = Mood_storage.Buffer_pool
module Heap_file = Mood_storage.Heap_file
module Extent = Mood_storage.Extent
module Btree = Mood_storage.Btree
module Hash_index = Mood_storage.Hash_index
module Join_index = Mood_storage.Join_index
module Rtree = Mood_storage.Rtree
module Lock = Mood_storage.Lock_manager
module Wal = Mood_storage.Wal
module Store = Mood_storage.Store
module Value = Mood_model.Value
module Oid = Mood_model.Oid

let close ?(eps = 1e-9) expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "expected %g, got %g" expected actual)
    true
    (Float.abs (expected -. actual) <= eps *. Float.max 1. (Float.abs expected))

let params = Disk.default_params

let u = params.Disk.seek +. params.Disk.rot +. params.Disk.btt

(* ---------------- Disk ---------------- *)

let test_disk_random_cost () =
  let disk = Disk.create () in
  for _ = 1 to 5 do
    Disk.read_random disk
  done;
  close (5. *. u) (Disk.elapsed disk);
  let c = Disk.counters disk in
  Alcotest.(check int) "random reads" 5 c.Disk.random_reads;
  Alcotest.(check int) "seeks" 5 c.Disk.seeks

let test_disk_sequential_cost () =
  (* SEQCOST(b) = s + r + b*ebt *)
  let disk = Disk.create () in
  Disk.read_sequential disk ~first:true;
  for _ = 2 to 10 do
    Disk.read_sequential disk ~first:false
  done;
  close (params.Disk.seek +. params.Disk.rot +. (10. *. params.Disk.ebt)) (Disk.elapsed disk)

let test_disk_measure () =
  let disk = Disk.create () in
  Disk.read_random disk;
  let (), during = Disk.with_measure disk (fun () -> Disk.read_random disk) in
  Alcotest.(check int) "one read measured" 1 during.Disk.random_reads;
  Alcotest.(check int) "outer preserved" 2 (Disk.counters disk).Disk.random_reads

(* ---------------- Page ---------------- *)

let test_page_insert_get_delete () =
  let p = Page.create ~capacity:128 in
  let s1 = Option.get (Page.insert p "hello") in
  let s2 = Option.get (Page.insert p "world") in
  Alcotest.(check (option string)) "get 1" (Some "hello") (Page.get p s1);
  Alcotest.(check (option string)) "get 2" (Some "world") (Page.get p s2);
  Alcotest.(check int) "count" 2 (Page.record_count p);
  Alcotest.(check bool) "delete" true (Page.delete p s1);
  Alcotest.(check (option string)) "tombstone" None (Page.get p s1);
  Alcotest.(check bool) "double delete" false (Page.delete p s1);
  (* slot reuse *)
  let s3 = Option.get (Page.insert p "again") in
  Alcotest.(check int) "reused slot" s1 s3

let test_page_space_accounting () =
  let p = Page.create ~capacity:64 in
  let payload = String.make (64 - Page.slot_overhead) 'x' in
  Alcotest.(check bool) "fits exactly" true (Page.fits p (String.length payload));
  ignore (Option.get (Page.insert p payload));
  Alcotest.(check int) "full" 0 (Page.free_space p);
  Alcotest.(check (option int)) "no room"
    None
    (Page.insert p "y");
  Alcotest.check_raises "bad capacity" (Invalid_argument "Page.create: capacity <= 0")
    (fun () -> ignore (Page.create ~capacity:0))

let test_page_update () =
  let p = Page.create ~capacity:64 in
  let s = Option.get (Page.insert p "abc") in
  Alcotest.(check bool) "in place" true (Page.update p s "abcdef");
  Alcotest.(check (option string)) "updated" (Some "abcdef") (Page.get p s);
  Alcotest.(check bool) "too big" false (Page.update p s (String.make 100 'z'))

(* ---------------- Buffer pool ---------------- *)

let test_buffer_hits_and_lru () =
  let disk = Disk.create () in
  let pool = Buffer_pool.create ~disk ~capacity:2 in
  Buffer_pool.access pool ~file:0 ~page:0 ~intent:Buffer_pool.Random;
  Buffer_pool.access pool ~file:0 ~page:0 ~intent:Buffer_pool.Random;
  let s = Buffer_pool.stats pool in
  Alcotest.(check int) "one miss" 1 s.Buffer_pool.misses;
  Alcotest.(check int) "one hit" 1 s.Buffer_pool.hits;
  (* fill beyond capacity -> eviction of LRU page 0 *)
  Buffer_pool.access pool ~file:0 ~page:1 ~intent:Buffer_pool.Random;
  Buffer_pool.access pool ~file:0 ~page:2 ~intent:Buffer_pool.Random;
  Alcotest.(check bool) "page 0 evicted" false (Buffer_pool.resident pool ~file:0 ~page:0);
  Alcotest.(check bool) "page 2 resident" true (Buffer_pool.resident pool ~file:0 ~page:2)

let test_buffer_dirty_eviction_writes () =
  let disk = Disk.create () in
  let pool = Buffer_pool.create ~disk ~capacity:1 in
  Buffer_pool.modify pool ~file:0 ~page:0;
  Buffer_pool.access pool ~file:0 ~page:1 ~intent:Buffer_pool.Random;
  Alcotest.(check int) "write-back on eviction" 1 (Disk.counters disk).Disk.writes

let test_buffer_sequential_run () =
  let disk = Disk.create () in
  let pool = Buffer_pool.create ~disk ~capacity:16 in
  for page = 0 to 9 do
    Buffer_pool.access pool ~file:3 ~page ~intent:Buffer_pool.Sequential
  done;
  (* one seek, ten ebt transfers *)
  close (params.Disk.seek +. params.Disk.rot +. (10. *. params.Disk.ebt)) (Disk.elapsed disk);
  Alcotest.(check int) "one seek" 1 (Disk.counters disk).Disk.seeks

let test_buffer_touch_reorders_lru () =
  (* A re-access must move the frame to the recency front, changing the
     eviction victim. *)
  let disk = Disk.create () in
  let pool = Buffer_pool.create ~disk ~capacity:2 in
  Buffer_pool.access pool ~file:0 ~page:0 ~intent:Buffer_pool.Random;
  Buffer_pool.access pool ~file:0 ~page:1 ~intent:Buffer_pool.Random;
  Buffer_pool.access pool ~file:0 ~page:0 ~intent:Buffer_pool.Random;
  Buffer_pool.access pool ~file:0 ~page:2 ~intent:Buffer_pool.Random;
  Alcotest.(check bool) "page 1 evicted" false (Buffer_pool.resident pool ~file:0 ~page:1);
  Alcotest.(check bool) "page 0 resident" true (Buffer_pool.resident pool ~file:0 ~page:0);
  Alcotest.(check bool) "page 2 resident" true (Buffer_pool.resident pool ~file:0 ~page:2)

let test_buffer_invalidate_resets_sequential () =
  let disk = Disk.create () in
  let pool = Buffer_pool.create ~disk ~capacity:16 in
  Buffer_pool.access pool ~file:3 ~page:0 ~intent:Buffer_pool.Sequential;
  Buffer_pool.access pool ~file:3 ~page:1 ~intent:Buffer_pool.Sequential;
  Alcotest.(check int) "run pays one seek" 1 (Disk.counters disk).Disk.seeks;
  Buffer_pool.invalidate pool ~file:3;
  Alcotest.(check bool) "frames dropped" false (Buffer_pool.resident pool ~file:3 ~page:0);
  (* the run marker died with the file: the next page in sequence is a
     fresh run start, not a mid-run transfer *)
  Buffer_pool.access pool ~file:3 ~page:2 ~intent:Buffer_pool.Sequential;
  Alcotest.(check int) "restart pays a new seek" 2 (Disk.counters disk).Disk.seeks;
  (* an unrelated file's run survives invalidation of another file *)
  Buffer_pool.access pool ~file:5 ~page:0 ~intent:Buffer_pool.Sequential;
  Buffer_pool.invalidate pool ~file:3;
  Buffer_pool.access pool ~file:5 ~page:1 ~intent:Buffer_pool.Sequential;
  Alcotest.(check int) "file 5 run uninterrupted" 3 (Disk.counters disk).Disk.seeks

let test_buffer_clear_resets_state () =
  let disk = Disk.create () in
  let pool = Buffer_pool.create ~disk ~capacity:4 in
  Buffer_pool.access pool ~file:1 ~page:0 ~intent:Buffer_pool.Sequential;
  Buffer_pool.modify pool ~file:1 ~page:0;
  Buffer_pool.clear pool;
  let s = Buffer_pool.stats pool in
  Alcotest.(check int) "hits reset" 0 s.Buffer_pool.hits;
  Alcotest.(check int) "misses reset" 0 s.Buffer_pool.misses;
  Alcotest.(check bool) "nothing resident" false (Buffer_pool.resident pool ~file:1 ~page:0);
  let seeks_before = (Disk.counters disk).Disk.seeks in
  (* dirty pages were dropped without write-back, and the sequential
     marker was forgotten: the continuation page starts a new run *)
  Buffer_pool.access pool ~file:1 ~page:1 ~intent:Buffer_pool.Sequential;
  Alcotest.(check int) "fresh seek after clear" (seeks_before + 1) (Disk.counters disk).Disk.seeks

(* ---------------- Heap file / Extent ---------------- *)

let fresh_store () = Store.create ~buffer_capacity:64 ()

let test_heap_file_scan_cost () =
  let store = fresh_store () in
  let file = Store.new_heap_file store () in
  let payload = String.make 1000 'a' in
  for _ = 1 to 40 do
    ignore (Heap_file.insert file payload)
  done;
  let pages = Heap_file.page_count file in
  Alcotest.(check bool) "multiple pages" true (pages > 1);
  Store.drop_cache store;
  let count = ref 0 in
  Heap_file.scan file ~f:(fun _ _ -> incr count);
  Alcotest.(check int) "all records" 40 !count;
  (* cold scan of b pages ~ SEQCOST(b) *)
  close
    (params.Disk.seek +. params.Disk.rot +. (float_of_int pages *. params.Disk.ebt))
    (Store.io_elapsed store)

let test_heap_file_btree_layout_scan_is_random () =
  let store = fresh_store () in
  let file = Store.new_heap_file store ~layout:Heap_file.Btree_file () in
  let payload = String.make 1000 'a' in
  for _ = 1 to 40 do
    ignore (Heap_file.insert file payload)
  done;
  let pages = Heap_file.page_count file in
  Store.drop_cache store;
  Heap_file.scan file ~f:(fun _ _ -> ());
  (* ESM: file stored as a B+-tree -> sequential = random *)
  close (float_of_int pages *. u) (Store.io_elapsed store)

let test_extent_roundtrip () =
  let store = fresh_store () in
  let ext = Extent.create ~store () in
  let v1 = Value.Tuple [ ("a", Value.Int 1) ] in
  let v2 = Value.Tuple [ ("a", Value.Int 2) ] in
  let s1 = Extent.insert ext v1 in
  let s2 = Extent.insert ext v2 in
  Alcotest.(check bool) "get 1" true (Extent.get ext s1 = Some v1);
  Alcotest.(check bool) "get 2" true (Extent.get ext s2 = Some v2);
  Alcotest.(check int) "count" 2 (Extent.count ext);
  Alcotest.(check bool) "update" true
    (Extent.update ext ~slot:s1 (Value.Tuple [ ("a", Value.Int 9) ]));
  Alcotest.(check bool) "updated" true
    (Extent.get ext s1 = Some (Value.Tuple [ ("a", Value.Int 9) ]));
  Alcotest.(check bool) "delete" true (Extent.delete ext s1);
  Alcotest.(check bool) "gone" true (Extent.get ext s1 = None);
  Alcotest.(check (list int)) "slots" [ s2 ] (Extent.slots ext)

let test_extent_update_grows_record () =
  let store = fresh_store () in
  let ext = Extent.create ~store () in
  let slot = Extent.insert ext (Value.Str "small") in
  (* force page-full so in-place update fails and the record moves *)
  let page_cap = Store.page_capacity store in
  ignore (Extent.insert ext (Value.Str (String.make (page_cap - 200) 'x')));
  let big = Value.Str (String.make 500 'y') in
  Alcotest.(check bool) "update moves record" true (Extent.update ext ~slot big);
  Alcotest.(check bool) "readable" true (Extent.get ext slot = Some big)

let test_extent_insert_at () =
  let store = fresh_store () in
  let ext = Extent.create ~store () in
  Extent.insert_at ext ~slot:7 (Value.Int 42);
  Alcotest.(check bool) "get" true (Extent.get ext 7 = Some (Value.Int 42));
  (* next fresh slot skips past *)
  let s = Extent.insert ext (Value.Int 1) in
  Alcotest.(check bool) "fresh slot" true (s > 7);
  Alcotest.check_raises "live slot" (Invalid_argument "Extent.insert_at: slot 7 is live")
    (fun () -> Extent.insert_at ext ~slot:7 Value.Null)

(* ---------------- B+-tree ---------------- *)

let int_key i = Value.Int i

let test_btree_insert_search () =
  let store = fresh_store () in
  let bt : int Btree.t = Store.new_btree store ~order:4 ~key_size:4 () in
  for i = 99 downto 0 do
    Btree.insert bt ~key:(int_key i) i
  done;
  Alcotest.(check (list int)) "point" [ 42 ] (Btree.search bt ~key:(int_key 42));
  Alcotest.(check (list int)) "missing" [] (Btree.search bt ~key:(int_key 1000));
  Alcotest.(check bool) "mem" true (Btree.mem bt ~key:(int_key 0));
  let stats = Btree.stats bt in
  Alcotest.(check int) "entries" 100 stats.Btree.entries;
  Alcotest.(check bool) "multi-level" true (stats.Btree.levels > 1);
  Alcotest.(check bool) "leaves" true (stats.Btree.leaves > 1)

let test_btree_duplicates_and_unique () =
  let store = fresh_store () in
  let bt : string Btree.t = Store.new_btree store ~key_size:4 () in
  Btree.insert bt ~key:(int_key 1) "a";
  Btree.insert bt ~key:(int_key 1) "b";
  Alcotest.(check (list string)) "postings" [ "b"; "a" ] (Btree.search bt ~key:(int_key 1));
  let ub : string Btree.t = Store.new_btree store ~unique:true ~key_size:4 () in
  Btree.insert ub ~key:(int_key 1) "a";
  (match Btree.insert ub ~key:(int_key 1) "b" with
  | exception Btree.Duplicate_key _ -> ()
  | () -> Alcotest.fail "expected Duplicate_key")

let test_btree_range () =
  let store = fresh_store () in
  let bt : int Btree.t = Store.new_btree store ~order:3 ~key_size:4 () in
  List.iter (fun i -> Btree.insert bt ~key:(int_key i) i) [ 1; 3; 5; 7; 9; 11 ];
  let keys lo hi =
    Btree.range bt ~lo ~hi |> List.map (fun (k, _) -> match k with Value.Int i -> i | _ -> -1)
  in
  Alcotest.(check (list int)) "inclusive range" [ 3; 5; 7 ]
    (keys (Btree.Inclusive (int_key 3)) (Btree.Inclusive (int_key 7)));
  Alcotest.(check (list int)) "exclusive" [ 5 ]
    (keys (Btree.Exclusive (int_key 3)) (Btree.Exclusive (int_key 7)));
  Alcotest.(check (list int)) "unbounded low" [ 1; 3; 5 ]
    (keys Btree.Unbounded (Btree.Inclusive (int_key 5)));
  Alcotest.(check (list int)) "unbounded high" [ 9; 11 ]
    (keys (Btree.Inclusive (int_key 9)) Btree.Unbounded);
  Alcotest.(check (list int)) "empty range" []
    (keys (Btree.Inclusive (int_key 100)) Btree.Unbounded)

let test_btree_delete () =
  let store = fresh_store () in
  let bt : int Btree.t = Store.new_btree store ~order:3 ~key_size:4 () in
  List.iter (fun i -> Btree.insert bt ~key:(int_key (i mod 5)) i) [ 0; 1; 2; 3; 4; 5; 6 ];
  Alcotest.(check int) "removed" 1 (Btree.delete bt ~key:(int_key 0) (fun v -> v = 5));
  Alcotest.(check (list int)) "remaining" [ 0 ] (Btree.search bt ~key:(int_key 0));
  Alcotest.(check int) "remove all" 1 (Btree.delete bt ~key:(int_key 0) (fun _ -> true));
  Alcotest.(check (list int)) "empty" [] (Btree.search bt ~key:(int_key 0));
  Alcotest.(check int) "missing" 0 (Btree.delete bt ~key:(int_key 0) (fun _ -> true))

let prop_btree_matches_model =
  QCheck.Test.make ~name:"btree = sorted association model" ~count:100
    QCheck.(list (pair (int_range 0 50) (int_range 0 1000)))
    (fun pairs ->
      let store = fresh_store () in
      let bt : int Btree.t = Store.new_btree store ~order:2 ~key_size:4 () in
      List.iter (fun (k, v) -> Btree.insert bt ~key:(int_key k) v) pairs;
      List.for_all
        (fun k ->
          let expected =
            List.filter_map (fun (k', v) -> if k = k' then Some v else None) pairs
            |> List.sort Int.compare
          in
          let actual = List.sort Int.compare (Btree.search bt ~key:(int_key k)) in
          expected = actual)
        (List.sort_uniq Int.compare (List.map fst pairs))
      &&
      (* iteration yields ascending keys *)
      let keys = ref [] in
      Btree.iter bt (fun k _ -> keys := k :: !keys);
      let ks = List.rev !keys in
      List.sort Value.compare ks = ks)

let test_btree_charges_levels () =
  let store = fresh_store () in
  let bt : int Btree.t = Store.new_btree store ~order:2 ~key_size:4 () in
  for i = 0 to 199 do
    Btree.insert bt ~key:(int_key i) i
  done;
  let levels = (Btree.stats bt).Btree.levels in
  Store.drop_cache store;
  ignore (Btree.search bt ~key:(int_key 57));
  close (float_of_int levels *. u) (Store.io_elapsed store)

(* ---------------- Hash index ---------------- *)

let test_hash_index_basic () =
  let store = fresh_store () in
  let h : int Hash_index.t = Store.new_hash_index store () in
  for i = 0 to 499 do
    Hash_index.insert h ~key:(int_key (i mod 50)) i
  done;
  Alcotest.(check int) "entries" 500 (Hash_index.entries h);
  let hits = Hash_index.search h ~key:(int_key 7) in
  Alcotest.(check int) "bucket size" 10 (List.length hits);
  Alcotest.(check bool) "all congruent" true (List.for_all (fun v -> v mod 50 = 7) hits);
  Alcotest.(check bool) "grew" true (Hash_index.bucket_count h > 4);
  Alcotest.(check int) "delete" 1 (Hash_index.delete h ~key:(int_key 7) (fun v -> v = 7));
  Alcotest.(check int) "after delete" 9 (List.length (Hash_index.search h ~key:(int_key 7)))

let test_hash_overflow_chain_charged () =
  let store = fresh_store () in
  let h : int Hash_index.t = Store.new_hash_index store ~bucket_capacity:8 () in
  (* 100 postings under one key pile onto one bucket's chain *)
  for i = 0 to 99 do
    Hash_index.insert h ~key:(int_key 7) i
  done;
  Store.drop_cache store;
  Alcotest.(check int) "all found" 100 (List.length (Hash_index.search h ~key:(int_key 7)));
  let reads = (Disk.counters (Store.disk store)).Disk.random_reads in
  Alcotest.(check bool)
    (Printf.sprintf "chain pages charged (%d reads)" reads)
    true
    (reads >= 1 + (100 / 8))

let prop_hash_index_matches_model =
  QCheck.Test.make ~name:"hash index = association model" ~count:100
    QCheck.(list (pair (int_range 0 30) (int_range 0 1000)))
    (fun pairs ->
      let store = fresh_store () in
      let h : int Hash_index.t = Store.new_hash_index store ~bucket_capacity:4 () in
      List.iter (fun (k, v) -> Hash_index.insert h ~key:(int_key k) v) pairs;
      List.for_all
        (fun k ->
          let expected =
            List.filter_map (fun (k', v) -> if k = k' then Some v else None) pairs
            |> List.sort Int.compare
          in
          List.sort Int.compare (Hash_index.search h ~key:(int_key k)) = expected)
        (List.sort_uniq Int.compare (List.map fst pairs)))

(* ---------------- Join / path indexes ---------------- *)

let test_binary_join_index () =
  let store = fresh_store () in
  let jx = Store.new_binary_join_index store in
  let c i = Oid.make ~class_id:1 ~slot:i and d i = Oid.make ~class_id:2 ~slot:i in
  Join_index.Binary.add jx ~c:(c 0) ~d:(d 0);
  Join_index.Binary.add jx ~c:(c 1) ~d:(d 0);
  Join_index.Binary.add jx ~c:(c 1) ~d:(d 1);
  Alcotest.(check int) "pairs" 3 (Join_index.Binary.pairs jx);
  Alcotest.(check int) "forward" 2 (List.length (Join_index.Binary.forward jx ~c:(c 1)));
  Alcotest.(check int) "backward" 2 (List.length (Join_index.Binary.backward jx ~d:(d 0)));
  Alcotest.(check bool) "remove" true (Join_index.Binary.remove jx ~c:(c 1) ~d:(d 0));
  Alcotest.(check int) "backward after" 1 (List.length (Join_index.Binary.backward jx ~d:(d 0)));
  Alcotest.(check bool) "remove missing" false (Join_index.Binary.remove jx ~c:(c 9) ~d:(d 9))

let test_path_index () =
  let store = fresh_store () in
  let px = Store.new_path_index store ~path:[ "a"; "b" ] in
  Alcotest.(check (list string)) "path" [ "a"; "b" ] (Join_index.Path.path px);
  let h i = Oid.make ~class_id:3 ~slot:i in
  Join_index.Path.add px ~terminal:(Value.Int 5) ~head:(h 0);
  Join_index.Path.add px ~terminal:(Value.Int 5) ~head:(h 1);
  Join_index.Path.add px ~terminal:(Value.Int 9) ~head:(h 2);
  Alcotest.(check int) "probe" 2 (List.length (Join_index.Path.probe px ~terminal:(Value.Int 5)));
  Alcotest.(check int) "range" 3
    (List.length (Join_index.Path.probe_range px ~lo:Btree.Unbounded ~hi:Btree.Unbounded));
  Alcotest.(check bool) "remove" true (Join_index.Path.remove px ~terminal:(Value.Int 9) ~head:(h 2));
  Alcotest.(check int) "after remove" 0
    (List.length (Join_index.Path.probe px ~terminal:(Value.Int 9)))

(* ---------------- R-tree ---------------- *)

let rect x0 y0 x1 y1 = Rtree.rect ~x0 ~y0 ~x1 ~y1

let test_rect_predicates () =
  let a = rect 0. 0. 2. 2. and b = rect 1. 1. 3. 3. and c = rect 5. 5. 6. 6. in
  Alcotest.(check bool) "overlap" true (Rtree.rect_overlaps a b);
  Alcotest.(check bool) "disjoint" false (Rtree.rect_overlaps a c);
  Alcotest.(check bool) "contains" true (Rtree.rect_contains (rect 0. 0. 4. 4.) b);
  Alcotest.(check bool) "not contains" false (Rtree.rect_contains b a);
  close 4. (Rtree.rect_area a);
  Alcotest.check_raises "malformed" (Invalid_argument "Rtree.rect: malformed rectangle")
    (fun () -> ignore (rect 1. 0. 0. 1.))

let test_rtree_search () =
  let store = fresh_store () in
  let t : int Rtree.t = Store.new_rtree store ~max_entries:4 () in
  for i = 0 to 99 do
    let x = float_of_int (i mod 10) *. 10. and y = float_of_int (i / 10) *. 10. in
    Rtree.insert t (rect x y (x +. 5.) (y +. 5.)) i
  done;
  Alcotest.(check int) "size" 100 (Rtree.size t);
  Alcotest.(check bool) "split happened" true (Rtree.depth t > 1);
  let hits = Rtree.search t (rect 0. 0. 16. 16.) in
  (* cells (0,0),(1,0),(0,1),(1,1) overlap [0,16]^2 *)
  Alcotest.(check int) "window hits" 4 (List.length hits);
  let contained = Rtree.search_contained t (rect 0. 0. 16. 16.) in
  Alcotest.(check int) "contained" 4 (List.length contained);
  Alcotest.(check int) "empty window" 0 (List.length (Rtree.search t (rect 200. 200. 300. 300.)))

let prop_rtree_matches_naive =
  let entry =
    QCheck.Gen.(
      map2
        (fun (x, y) (w, h) -> (x, y, x +. w, y +. h))
        (pair (float_bound_inclusive 100.) (float_bound_inclusive 100.))
        (pair (float_bound_inclusive 20.) (float_bound_inclusive 20.)))
  in
  QCheck.Test.make ~name:"rtree window query = naive filter" ~count:60
    (QCheck.make QCheck.Gen.(pair (list_size (int_bound 60) entry) entry))
    (fun (entries, (wx0, wy0, wx1, wy1)) ->
      let store = fresh_store () in
      let t : int Rtree.t = Store.new_rtree store ~max_entries:4 () in
      List.iteri (fun i (x0, y0, x1, y1) -> Rtree.insert t (rect x0 y0 x1 y1) i) entries;
      let window = rect wx0 wy0 wx1 wy1 in
      let expected =
        List.filteri (fun _ (x0, y0, x1, y1) -> Rtree.rect_overlaps (rect x0 y0 x1 y1) window)
          entries
        |> List.length
      in
      List.length (Rtree.search t window) = expected)

(* ---------------- Lock manager ---------------- *)

let test_lock_compatibility () =
  let lm = Lock.create () in
  let t1 = Lock.begin_txn lm and t2 = Lock.begin_txn lm in
  Alcotest.(check bool) "shared" true (Lock.acquire lm t1 "r" Lock.Shared = Lock.Granted);
  Alcotest.(check bool) "shared twice" true (Lock.acquire lm t2 "r" Lock.Shared = Lock.Granted);
  Alcotest.(check bool) "exclusive blocked" true
    (Lock.acquire lm t2 "r" Lock.Exclusive = Lock.Would_block);
  Lock.release_all lm t1;
  Alcotest.(check bool) "upgrade after release" true
    (Lock.acquire lm t2 "r" Lock.Exclusive = Lock.Granted);
  Alcotest.(check int) "holders" 1 (List.length (Lock.holders lm "r"))

let test_lock_reentrancy_and_upgrade () =
  let lm = Lock.create () in
  let t = Lock.begin_txn lm in
  Alcotest.(check bool) "x" true (Lock.acquire lm t "r" Lock.Exclusive = Lock.Granted);
  Alcotest.(check bool) "x again" true (Lock.acquire lm t "r" Lock.Exclusive = Lock.Granted);
  Alcotest.(check bool) "s under x" true (Lock.acquire lm t "r" Lock.Shared = Lock.Granted)

let test_lock_deadlock_detection () =
  let lm = Lock.create () in
  let t1 = Lock.begin_txn lm and t2 = Lock.begin_txn lm in
  Alcotest.(check bool) "t1 locks a" true (Lock.acquire lm t1 "a" Lock.Exclusive = Lock.Granted);
  Alcotest.(check bool) "t2 locks b" true (Lock.acquire lm t2 "b" Lock.Exclusive = Lock.Granted);
  Alcotest.(check bool) "t1 waits for b" true (Lock.acquire lm t1 "b" Lock.Exclusive = Lock.Would_block);
  (* t2 -> a would close the cycle: t2 is the victim *)
  Alcotest.(check bool) "deadlock detected" true
    (Lock.acquire lm t2 "a" Lock.Exclusive = Lock.Deadlock);
  Lock.release_all lm t2;
  Alcotest.(check bool) "t1 proceeds" true (Lock.acquire lm t1 "b" Lock.Exclusive = Lock.Granted)

(* ---------------- WAL ---------------- *)

let rid page slot = { Heap_file.page; slot }

let test_wal_replay_committed_only () =
  let wal = Wal.create () in
  ignore (Wal.append wal (Wal.Begin 1));
  ignore (Wal.append wal (Wal.Insert { txn = 1; file = 0; rid = rid 0 0; payload = "a" }));
  ignore (Wal.append wal (Wal.Commit 1));
  ignore (Wal.append wal (Wal.Begin 2));
  ignore (Wal.append wal (Wal.Insert { txn = 2; file = 0; rid = rid 0 1; payload = "b" }));
  Wal.flush wal;
  let applied = ref [] in
  ignore
    (Wal.recover wal ~redo:(fun r ->
         match r with
         | Wal.Insert { payload; _ } -> applied := payload :: !applied
         | _ -> ()));
  Alcotest.(check (list string)) "only committed effects" [ "a" ] !applied

let test_wal_crash_loses_unpersisted () =
  let wal = Wal.create () in
  ignore (Wal.append wal (Wal.Begin 1));
  ignore (Wal.append wal (Wal.Commit 1));
  Wal.flush wal;
  ignore (Wal.append wal (Wal.Begin 2));
  ignore (Wal.append wal (Wal.Commit 2));
  (* no flush: txn 2's commit is lost by the crash *)
  Alcotest.(check int) "lost records" 2 (Wal.lose_unpersisted wal);
  Alcotest.(check int) "persisted remain" 2 (Wal.length wal);
  let commits = ref 0 in
  List.iter
    (function Wal.Commit _ -> incr commits | _ -> ())
    (Wal.records wal);
  Alcotest.(check int) "one commit" 1 !commits

(* The group-commit ticket API: [ticket] names the current tail,
   [covered] asks whether a ticket is already durable, [force_group]
   forces only when it is not — so one shared force acknowledges every
   committer whose ticket it covers and later committers skip the
   device entirely. *)
let test_wal_group_force_tickets () =
  let wal = Wal.create () in
  ignore (Wal.append wal (Wal.Begin 1));
  ignore (Wal.append wal (Wal.Commit 1));
  let t1 = Wal.ticket wal in
  Alcotest.(check bool) "fresh ticket uncovered" false (Wal.covered wal t1);
  Alcotest.(check bool) "first force hits the device" true (Wal.force_group wal t1);
  Alcotest.(check bool) "now covered" true (Wal.covered wal t1);
  Alcotest.(check int) "watermark reaches ticket" t1 (Wal.persisted_last_lsn wal);
  (* A committer whose ticket the previous force already covered must
     not pay a second device force. *)
  let forces = Wal.forces wal in
  Alcotest.(check bool) "covered force is free" false (Wal.force_group wal t1);
  Alcotest.(check int) "no extra device force" forces (Wal.forces wal);
  ignore (Wal.append wal (Wal.Begin 2));
  ignore (Wal.append wal (Wal.Commit 2));
  let t2 = Wal.ticket wal in
  Alcotest.(check bool) "new tail not covered" false (Wal.covered wal t2);
  Alcotest.(check bool) "next batch forces" true (Wal.force_group wal t2);
  Alcotest.(check int) "exactly one more force" (forces + 1) (Wal.forces wal);
  (* A ticket that dies with the unpersisted tail stays uncovered: the
     log-writer's durability watermark can never claim it. *)
  ignore (Wal.append wal (Wal.Begin 3));
  ignore (Wal.append wal (Wal.Commit 3));
  let t3 = Wal.ticket wal in
  ignore (Wal.lose_unpersisted wal);
  Alcotest.(check bool) "lost ticket uncovered" false (Wal.covered wal t3);
  Alcotest.(check bool) "watermark behind lost ticket" true
    (Wal.persisted_last_lsn wal < t3)

let test_wal_undo_records () =
  let wal = Wal.create () in
  ignore (Wal.append wal (Wal.Begin 1));
  ignore (Wal.append wal (Wal.Insert { txn = 1; file = 0; rid = rid 0 0; payload = "a" }));
  ignore (Wal.append wal (Wal.Update { txn = 1; file = 0; rid = rid 0 0; before = "a"; after = "b" }));
  ignore (Wal.append wal (Wal.Insert { txn = 2; file = 0; rid = rid 0 1; payload = "x" }));
  let undo = Wal.undo_records wal 1 in
  Alcotest.(check int) "two records" 2 (List.length undo);
  (match undo with
  | Wal.Update _ :: Wal.Insert _ :: [] -> ()
  | _ -> Alcotest.fail "undo must be newest-first")

(* The walk back to the transaction's [Begin] returns what filtering
   the whole log did: other transactions' records before and after the
   [Begin], and their own [Begin]s, change nothing; a transaction whose
   [Begin] is not in the log still gets every record it wrote. *)
let test_wal_undo_stops_at_begin () =
  let wal = Wal.create () in
  let data txn slot = Wal.Insert { txn; file = 0; rid = rid 0 slot; payload = "p" } in
  List.iter
    (fun r -> ignore (Wal.append wal r))
    [ Wal.Begin 2; data 2 0; data 5 1; Wal.Commit 2; Wal.Begin 3; data 3 2; Wal.Begin 1;
      data 3 3; data 1 4; Wal.Update { txn = 1; file = 0; rid = rid 0 4; before = "p"; after = "q" };
      Wal.Begin 4; data 4 5; data 1 6; data 3 7; data 5 8 ];
  let filtered txn =
    List.rev
      (List.filter
         (fun r -> Wal.txn_of r = Some txn && (match r with Wal.Begin _ | Wal.Commit _ | Wal.Abort _ -> false | _ -> true))
         (Wal.records wal))
  in
  List.iter
    (fun txn ->
      Alcotest.(check int) (Printf.sprintf "txn %d: as many records" txn)
        (List.length (filtered txn)) (List.length (Wal.undo_records wal txn));
      Alcotest.(check bool) (Printf.sprintf "txn %d: the same records, newest first" txn) true
        (filtered txn = Wal.undo_records wal txn))
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "txn 1 wrote three records" 3 (List.length (Wal.undo_records wal 1))

let test_extent_wal_recovery () =
  (* Insert through an extent with txn logging, "crash", replay into a
     fresh extent: committed objects reappear. *)
  let store = fresh_store () in
  let ext = Extent.create ~store () in
  let wal = Store.wal store in
  ignore (Wal.append wal (Wal.Begin 1));
  let s1 = Extent.insert ext ~txn:1 (Value.Int 10) in
  ignore (Wal.append wal (Wal.Commit 1));
  ignore (Wal.append wal (Wal.Begin 2));
  let _s2 = Extent.insert ext ~txn:2 (Value.Int 20) in
  Wal.flush wal;
  (* txn 2 never commits; rebuild from log *)
  let store2 = fresh_store () in
  let ext2 = Extent.create ~store:store2 () in
  ignore
    (Wal.recover wal ~redo:(fun record ->
         match record with
         | Wal.Insert { payload; _ } -> begin
             match Mood_model.Codec.decode payload with
             | Value.Tuple [ ("#slot", Value.Int slot); ("#value", v) ] ->
                 Extent.insert_at ext2 ~slot v
             | _ -> Alcotest.fail "unexpected payload shape"
           end
         | _ -> ()));
  Alcotest.(check int) "one object recovered" 1 (Extent.count ext2);
  Alcotest.(check bool) "the committed one" true (Extent.get ext2 s1 = Some (Value.Int 10))

(* ---------------- ARIES-lite recovery / fault injection ---------------- *)

let test_wal_lsn_monotonic () =
  let wal = Wal.create () in
  let l1 = Wal.append wal (Wal.Begin 1) in
  let l2 = Wal.append wal (Wal.Insert { txn = 1; file = 0; rid = rid 0 0; payload = "a" }) in
  let l3 = Wal.append wal (Wal.Commit 1) in
  Alcotest.(check (list int)) "dense from 1" [ 1; 2; 3 ] [ l1; l2; l3 ];
  Alcotest.(check int) "last_lsn" 3 (Wal.last_lsn wal);
  Alcotest.(check bool) "with_lsn agrees" true
    (List.map fst (Wal.records_with_lsn wal) = [ 1; 2; 3 ])

let test_wal_recover_checkpoint_bounded () =
  (* T1 commits before the checkpoint (in the image: no redo). T2 is
     active at the checkpoint and never commits: its pre-checkpoint
     record is baked into the image and must be undone; its
     post-checkpoint record is neither undone nor redone. T3 commits
     after the checkpoint: redo. *)
  let wal = Wal.create () in
  ignore (Wal.append wal (Wal.Begin 1));
  ignore (Wal.append wal (Wal.Insert { txn = 1; file = 0; rid = rid 0 0; payload = "t1-a" }));
  ignore (Wal.append wal (Wal.Commit 1));
  ignore (Wal.append wal (Wal.Begin 2));
  ignore (Wal.append wal (Wal.Insert { txn = 2; file = 0; rid = rid 0 1; payload = "t2-b" }));
  let cp = Wal.append wal (Wal.Checkpoint [ 2 ]) in
  ignore (Wal.append wal (Wal.Insert { txn = 2; file = 0; rid = rid 0 2; payload = "t2-c" }));
  ignore (Wal.append wal (Wal.Begin 3));
  ignore (Wal.append wal (Wal.Insert { txn = 3; file = 0; rid = rid 0 3; payload = "t3-d" }));
  ignore (Wal.append wal (Wal.Commit 3));
  Wal.flush wal;
  let undone = ref [] and redone = ref [] in
  let payload = function
    | Wal.Insert { payload; _ } -> payload
    | _ -> Alcotest.fail "data record expected"
  in
  let analysis =
    Wal.recover wal
      ~undo:(fun r -> undone := payload r :: !undone)
      ~redo:(fun r -> redone := payload r :: !redone)
  in
  Alcotest.(check int) "checkpoint found" cp analysis.Wal.a_checkpoint_lsn;
  Alcotest.(check (list int)) "active table" [ 2 ] analysis.Wal.a_checkpoint_active;
  Alcotest.(check bool) "t1 committed" true (Hashtbl.mem analysis.Wal.a_committed 1);
  Alcotest.(check bool) "t2 is a loser" true (Hashtbl.mem analysis.Wal.a_losers 2);
  Alcotest.(check (list string)) "undo scrubs the image only" [ "t2-b" ] !undone;
  Alcotest.(check (list string)) "redo replays the suffix only" [ "t3-d" ]
    (List.rev !redone)

let test_wal_abort_before_checkpoint_not_loser () =
  (* A transaction that finished aborting before the image was taken
     has its compensations baked in: undoing it again would corrupt. *)
  let wal = Wal.create () in
  ignore (Wal.append wal (Wal.Begin 1));
  ignore (Wal.append wal (Wal.Insert { txn = 1; file = 0; rid = rid 0 0; payload = "a" }));
  ignore (Wal.append wal (Wal.Abort 1));
  ignore (Wal.append wal (Wal.Checkpoint []));
  Wal.flush wal;
  let analysis = Wal.analyze wal in
  Alcotest.(check bool) "aborted-before-cp is no loser" false
    (Hashtbl.mem analysis.Wal.a_losers 1);
  (* Aborting only after the checkpoint leaves the image dirty. *)
  let wal2 = Wal.create () in
  ignore (Wal.append wal2 (Wal.Begin 1));
  ignore (Wal.append wal2 (Wal.Insert { txn = 1; file = 0; rid = rid 0 0; payload = "a" }));
  ignore (Wal.append wal2 (Wal.Checkpoint [ 1 ]));
  ignore (Wal.append wal2 (Wal.Abort 1));
  Wal.flush wal2;
  let analysis2 = Wal.analyze wal2 in
  Alcotest.(check bool) "aborted-after-cp is a loser" true
    (Hashtbl.mem analysis2.Wal.a_losers 1)

(* 2PC records: codec roundtrips, in-doubt analysis (durable Prepare
   without a durable verdict is neither loser nor committed — its data
   records redo, its fate waits), and the coordinator's decision view. *)
let test_wal_2pc_codec () =
  List.iter
    (fun r ->
      Alcotest.(check bool) "roundtrip" true
        (Wal.decode_record (Wal.encode_record r) = r))
    [ Wal.Prepare { txn = 3; gid = 41 };
      Wal.Decision { gid = 41; commit = true };
      Wal.Decision { gid = 42; commit = false }
    ];
  (* Truncations must fail as codec errors, not index crashes. *)
  List.iter
    (fun r ->
      let enc = Wal.encode_record r in
      for cut = 0 to String.length enc - 1 do
        match Wal.decode_record (String.sub enc 0 cut) with
        | exception Wal.Codec_error _ -> ()
        | _ -> Alcotest.failf "decoded a %d-byte prefix" cut
      done)
    [ Wal.Prepare { txn = 3; gid = 41 }; Wal.Decision { gid = 41; commit = true } ];
  Alcotest.(check (option int)) "Prepare belongs to its txn" (Some 3)
    (Wal.txn_of (Wal.Prepare { txn = 3; gid = 41 }));
  Alcotest.(check (option int)) "Decision is log-global" None
    (Wal.txn_of (Wal.Decision { gid = 41; commit = true }))

let test_wal_indoubt_analysis () =
  let wal = Wal.create () in
  (* t1: prepared, never decided — in-doubt. t2: prepared then
     committed. t3: open, never prepared — a plain loser. *)
  ignore (Wal.append wal (Wal.Begin 1));
  ignore (Wal.append wal (Wal.Insert { txn = 1; file = 0; rid = rid 0 0; payload = "p1" }));
  ignore (Wal.append wal (Wal.Prepare { txn = 1; gid = 71 }));
  ignore (Wal.append wal (Wal.Begin 2));
  ignore (Wal.append wal (Wal.Insert { txn = 2; file = 0; rid = rid 0 1; payload = "p2" }));
  ignore (Wal.append wal (Wal.Prepare { txn = 2; gid = 72 }));
  ignore (Wal.append wal (Wal.Commit 2));
  ignore (Wal.append wal (Wal.Begin 3));
  ignore (Wal.append wal (Wal.Insert { txn = 3; file = 0; rid = rid 0 2; payload = "p3" }));
  Wal.flush wal;
  let redone = ref [] in
  let analysis = Wal.recover wal ~redo:(fun r ->
      match r with
      | Wal.Insert { payload; _ } -> redone := payload :: !redone
      | _ -> ())
  in
  Alcotest.(check (option int)) "t1 in-doubt under its gid" (Some 71)
    (Hashtbl.find_opt analysis.Wal.a_indoubt 1);
  Alcotest.(check bool) "t1 is not a loser" false
    (Hashtbl.mem analysis.Wal.a_losers 1);
  Alcotest.(check bool) "t1 is not committed" false
    (Hashtbl.mem analysis.Wal.a_committed 1);
  Alcotest.(check bool) "decided t2 is not in-doubt" false
    (Hashtbl.mem analysis.Wal.a_indoubt 2);
  Alcotest.(check bool) "unprepared t3 is not in-doubt" false
    (Hashtbl.mem analysis.Wal.a_indoubt 3);
  Alcotest.(check bool) "unprepared t3 is not committed" false
    (Hashtbl.mem analysis.Wal.a_committed 3);
  Alcotest.(check (list string)) "in-doubt effects redo alongside committed"
    [ "p1"; "p2" ]
    (List.sort compare !redone)

let test_wal_decisions_durable_only () =
  let wal = Wal.create () in
  ignore (Wal.append wal (Wal.Decision { gid = 1; commit = true }));
  ignore (Wal.append wal (Wal.Decision { gid = 2; commit = false }));
  Wal.flush wal;
  ignore (Wal.append wal (Wal.Decision { gid = 3; commit = true }));
  (* gid 3 never reached the durable prefix: a crash takes it back and
     presumed abort must win. *)
  ignore (Wal.lose_unpersisted wal);
  Alcotest.(check (list (pair int bool))) "durable decisions only"
    [ (1, true); (2, false) ]
    (Wal.decisions wal)

let test_wal_torn_flush_limbo () =
  (* The persist hook fails on the second record: the watermark stops
     just before it, the commit was never acknowledged, and after the
     crash the durable prefix decides the limbo — here: not committed. *)
  let wal = Wal.create () in
  ignore (Wal.append wal (Wal.Begin 7));
  ignore (Wal.append wal (Wal.Commit 7));
  let calls = ref 0 in
  Wal.set_persist_hook wal (fun _ ->
      incr calls;
      if !calls >= 2 then raise Disk.Crash);
  (match Wal.flush wal with
  | () -> Alcotest.fail "flush must propagate the crash"
  | exception Disk.Crash -> ());
  ignore (Wal.lose_unpersisted wal);
  Alcotest.(check int) "only Begin survived" 1 (Wal.length wal);
  Alcotest.(check bool) "commit in limbo resolves to false" false
    (Wal.commit_persisted wal 7);
  (* A flush that survives persists everything and acknowledges. *)
  Wal.clear_persist_hook wal;
  ignore (Wal.append wal (Wal.Commit 7));
  Wal.flush wal;
  Alcotest.(check bool) "commit persisted after clean flush" true
    (Wal.commit_persisted wal 7)

let test_disk_fault_injection () =
  let disk = Disk.create () in
  let prng = Mood_util.Prng.create ~seed:11 in
  Disk.inject_fault disk ~crash_after_writes:3 ~torn_page_prob:1.0 ~prng ();
  Alcotest.(check bool) "armed" true (Disk.fault_armed disk);
  Disk.write_page ~page:(0, 0) disk;
  Disk.write_page ~page:(0, 1) disk;
  (match Disk.write_page ~page:(0, 2) disk with
  | () -> Alcotest.fail "third write must crash"
  | exception Disk.Crash -> ());
  (* The failed write tore its in-flight page and was not charged. *)
  Alcotest.(check (list (pair int int))) "torn page recorded" [ (0, 2) ]
    (Disk.torn_pages disk);
  Alcotest.(check int) "failed write not charged" 2 (Disk.counters disk).Disk.writes;
  (* The fault latches: every subsequent write crashes too (and tears
     its own in-flight page). *)
  (match Disk.write_page ~page:(0, 3) disk with
  | () -> Alcotest.fail "still down"
  | exception Disk.Crash -> ());
  Alcotest.(check (list (pair int int))) "second tear recorded" [ (0, 2); (0, 3) ]
    (List.sort compare (Disk.torn_pages disk));
  Disk.clear_fault disk;
  Alcotest.(check bool) "disarmed" false (Disk.fault_armed disk);
  (* A completed write repairs its torn page. *)
  Disk.write_page ~page:(0, 2) disk;
  Alcotest.(check (list (pair int int))) "tear repaired" [ (0, 3) ]
    (Disk.torn_pages disk)

let test_buffer_crash_loses_dirty () =
  let disk = Disk.create () in
  let pool = Buffer_pool.create ~disk ~capacity:8 in
  Buffer_pool.access pool ~file:0 ~page:0 ~intent:Buffer_pool.Random;
  Buffer_pool.access pool ~file:0 ~page:1 ~intent:Buffer_pool.Random;
  Buffer_pool.modify pool ~file:0 ~page:1;
  Buffer_pool.access pool ~file:1 ~page:4 ~intent:Buffer_pool.Random;
  Buffer_pool.modify pool ~file:1 ~page:4;
  Alcotest.(check (list (pair int int))) "dirty set" [ (0, 1); (1, 4) ]
    (List.sort compare (Buffer_pool.dirty_keys pool));
  let lost = Buffer_pool.crash pool in
  Alcotest.(check (list (pair int int))) "unflushed frames lost" [ (0, 1); (1, 4) ]
    (List.sort compare lost);
  Alcotest.(check bool) "nothing resident" false
    (Buffer_pool.resident pool ~file:0 ~page:0);
  (* The pool keeps working after the restart. *)
  Buffer_pool.access pool ~file:0 ~page:0 ~intent:Buffer_pool.Random;
  Alcotest.(check bool) "usable again" true
    (Buffer_pool.resident pool ~file:0 ~page:0)

let test_lock_release_all_drains_table () =
  (* Regression: release_all used to leave empty holder lists behind,
     growing the resource table forever. *)
  let lm = Lock.create () in
  let t1 = Lock.begin_txn lm in
  for i = 0 to 99 do
    match Lock.acquire lm t1 (Printf.sprintf "r%d" i) Lock.Exclusive with
    | Lock.Granted -> ()
    | _ -> Alcotest.fail "uncontended acquire"
  done;
  Alcotest.(check int) "100 resources held" 100 (Lock.resource_count lm);
  Lock.release_all lm t1;
  Alcotest.(check int) "table drained" 0 (Lock.resource_count lm);
  (* Shared holders on the same resource: releasing one must not drop
     the entry while the other still holds it. *)
  let t2 = Lock.begin_txn lm and t3 = Lock.begin_txn lm in
  ignore (Lock.acquire lm t2 "s" Lock.Shared);
  ignore (Lock.acquire lm t3 "s" Lock.Shared);
  Lock.release_all lm t2;
  Alcotest.(check int) "still held by t3" 1 (Lock.resource_count lm);
  Lock.release_all lm t3;
  Alcotest.(check int) "drained after both" 0 (Lock.resource_count lm)

(* Randomized lock schedules, checked against an independently
   maintained mirror of grants and waits:
   - every [Deadlock] verdict corresponds to a real waits-for cycle
     that granting the request would close;
   - no schedule wedges with every transaction waiting and no victim. *)
let test_lock_random_schedules () =
  let resources = [| "a"; "b"; "c"; "d" |] in
  for seed = 1 to 40 do
    let prng = Mood_util.Prng.create ~seed in
    let lm = Lock.create () in
    let n = 3 + Mood_util.Prng.int prng ~bound:3 in
    (* Each transaction: a script of exclusive requests, then release. *)
    let scripts =
      Array.init n (fun _ ->
          List.init
            (1 + Mood_util.Prng.int prng ~bound:4)
            (fun _ -> Mood_util.Prng.pick prng resources))
    in
    let txns = Array.init n (fun _ -> Lock.begin_txn lm) in
    let remaining = Array.map (fun s -> ref s) scripts in
    let done_ = Array.make n false in
    (* Mirror state, built only from outcomes we observed. *)
    let holds = Hashtbl.create 16 (* resource -> holder txn index *) in
    let waiting = Array.make n None (* txn index -> resource *) in
    let holder_of r = Hashtbl.find_opt holds r in
    (* Does granting [idx]'s request for [r] close a cycle back to
       [idx] through the mirror waits-for graph? *)
    let closes_cycle idx r =
      let rec reaches seen j =
        if List.mem j seen then false
        else
          j = idx
          ||
          match waiting.(j) with
          | None -> false
          | Some r' -> (
              match holder_of r' with
              | Some h -> reaches (j :: seen) h
              | None -> false)
      in
      match holder_of r with Some h -> reaches [] h | None -> false
    in
    let finished () = Array.for_all (fun d -> d) done_ in
    let guard = ref 0 in
    while (not (finished ())) && !guard < 10_000 do
      incr guard;
      let progressed = ref false in
      for idx = 0 to n - 1 do
        if not done_.(idx) then
          match !(remaining.(idx)) with
          | [] ->
              Lock.release_all lm txns.(idx);
              Hashtbl.iter
                (fun r h -> if h = idx then Hashtbl.remove holds r)
                (Hashtbl.copy holds);
              waiting.(idx) <- None;
              done_.(idx) <- true;
              progressed := true
          | r :: rest -> (
              match Lock.acquire lm txns.(idx) r Lock.Exclusive with
              | Lock.Granted ->
                  (match holder_of r with
                  | Some h when h <> idx ->
                      Alcotest.failf "seed %d: %s granted while held" seed r
                  | _ -> ());
                  Hashtbl.replace holds r idx;
                  waiting.(idx) <- None;
                  remaining.(idx) := rest;
                  progressed := true
              | Lock.Would_block ->
                  if not (closes_cycle idx r || holder_of r <> None) then
                    Alcotest.failf "seed %d: blocked on free resource %s" seed r;
                  waiting.(idx) <- Some r
              | Lock.Deadlock ->
                  if not (closes_cycle idx r) then
                    Alcotest.failf
                      "seed %d: Deadlock verdict without a waits-for cycle"
                      seed;
                  Lock.release_all lm txns.(idx);
                  Hashtbl.iter
                    (fun r' h -> if h = idx then Hashtbl.remove holds r')
                    (Hashtbl.copy holds);
                  waiting.(idx) <- None;
                  done_.(idx) <- true;
                  progressed := true)
      done;
      if not !progressed then begin
        (* Nobody moved: legal only if someone is merely queued behind a
           live holder — never with every live transaction waiting in a
           cycle the manager failed to break. *)
        let live_waiting =
          List.filter
            (fun i -> (not done_.(i)) && waiting.(i) <> None)
            (List.init n Fun.id)
        in
        let all_live_waiting =
          List.for_all
            (fun i -> done_.(i) || waiting.(i) <> None)
            (List.init n Fun.id)
        in
        if all_live_waiting && live_waiting <> [] then
          Alcotest.failf "seed %d: wedged — all transactions blocked, no victim"
            seed
      end
    done;
    if !guard >= 10_000 then Alcotest.failf "seed %d: schedule did not quiesce" seed
  done

let prop_btree_validate_under_churn =
  (* Seeded random insert/delete churn: the structural validator stays
     clean at every step, for both duplicate and unique trees. *)
  QCheck.Test.make ~name:"btree: validate clean under churn" ~count:80
    QCheck.(pair bool (list (pair bool (int_bound 60))))
    (fun (unique, ops) ->
      let store = fresh_store () in
      let bt : int Btree.t = Store.new_btree store ~order:2 ~unique ~key_size:4 () in
      List.for_all
        (fun (ins, k) ->
          (if ins then (
             if not (unique && Btree.mem bt ~key:(int_key k)) then
               Btree.insert bt ~key:(int_key k) k)
           else ignore (Btree.delete bt ~key:(int_key k) (fun _ -> true)));
          Btree.validate bt = [])
        ops)

let prop_hash_validate_under_churn =
  QCheck.Test.make ~name:"hash: validate clean under churn" ~count:80
    QCheck.(list (pair bool (int_bound 60)))
    (fun ops ->
      let store = fresh_store () in
      let h : int Hash_index.t = Store.new_hash_index store ~bucket_capacity:2 () in
      List.for_all
        (fun (ins, k) ->
          (if ins then Hash_index.insert h ~key:(int_key k) k
           else ignore (Hash_index.delete h ~key:(int_key k) (fun _ -> true)));
          Hash_index.validate h = [])
        ops)

(* ---------------- Additional properties ---------------- *)

let prop_lock_exclusivity =
  (* Random acquire/release traffic: whenever a resource has an
     exclusive holder, it is the only holder. *)
  let op_gen =
    QCheck.Gen.(
      list_size (int_bound 60)
        (triple (int_bound 3) (int_bound 2) bool))
  in
  QCheck.Test.make ~name:"2PL: exclusive holders are alone" ~count:150
    (QCheck.make op_gen)
    (fun ops ->
      let lm = Lock.create () in
      let txns = Array.init 4 (fun _ -> Lock.begin_txn lm) in
      let resources = [| "r0"; "r1"; "r2" |] in
      List.for_all
        (fun (who, what, exclusive) ->
          let txn = txns.(who) and resource = resources.(what) in
          let mode = if exclusive then Lock.Exclusive else Lock.Shared in
          (match Lock.acquire lm txn resource mode with
          | Lock.Granted | Lock.Would_block -> ()
          | Lock.Deadlock -> Lock.release_all lm txn);
          Array.for_all
            (fun r ->
              let holders = Lock.holders lm r in
              (not (List.exists (fun (_, m) -> m = Lock.Exclusive) holders))
              || List.length holders = 1)
            resources)
        ops)

let prop_buffer_pool_bounded =
  (* Under arbitrary access patterns, residency never exceeds capacity
     and every access is either a hit or a miss. *)
  QCheck.Test.make ~name:"buffer pool never exceeds capacity" ~count:150
    QCheck.(pair (int_range 1 8) (list (pair (int_bound 3) (int_bound 30))))
    (fun (capacity, accesses) ->
      let disk = Disk.create () in
      let pool = Buffer_pool.create ~disk ~capacity in
      List.iter
        (fun (file, page) -> Buffer_pool.access pool ~file ~page ~intent:Buffer_pool.Random)
        accesses;
      let stats = Buffer_pool.stats pool in
      let resident = ref 0 in
      for file = 0 to 3 do
        for page = 0 to 30 do
          if Buffer_pool.resident pool ~file ~page then incr resident
        done
      done;
      !resident <= capacity
      && stats.Buffer_pool.hits + stats.Buffer_pool.misses = List.length accesses)

let prop_lru_matches_reference =
  (* The intrusive recency list must agree with a naive reference LRU
     (most-recent-first key list) on which pages stay resident. *)
  QCheck.Test.make ~name:"LRU residency = reference model" ~count:150
    QCheck.(pair (int_range 1 6) (list (pair (int_bound 2) (int_bound 12))))
    (fun (capacity, accesses) ->
      let disk = Disk.create () in
      let pool = Buffer_pool.create ~disk ~capacity in
      let model = ref [] in
      List.iter
        (fun (file, page) ->
          Buffer_pool.access pool ~file ~page ~intent:Buffer_pool.Random;
          let key = (file, page) in
          let rest = List.filter (fun k -> k <> key) !model in
          model := key :: (if List.length rest >= capacity then
                             List.filteri (fun i _ -> i < capacity - 1) rest
                           else rest))
        accesses;
      List.for_all
        (fun file ->
          List.for_all
            (fun page ->
              Buffer_pool.resident pool ~file ~page = List.mem (file, page) !model)
            (List.init 13 Fun.id))
        [ 0; 1; 2 ])

let prop_btree_range_matches_model =
  QCheck.Test.make ~name:"btree range = model filter" ~count:100
    QCheck.(triple (list (int_range 0 100)) (int_range 0 100) (int_range 0 100))
    (fun (keys, a, b) ->
      let lo = min a b and hi = max a b in
      let store = fresh_store () in
      let bt : int Btree.t = Store.new_btree store ~order:2 ~key_size:4 () in
      List.iter (fun k -> Btree.insert bt ~key:(int_key k) k) keys;
      let got =
        Btree.range bt ~lo:(Btree.Inclusive (int_key lo)) ~hi:(Btree.Inclusive (int_key hi))
        |> List.concat_map snd
        |> List.sort Int.compare
      in
      let expected = List.sort Int.compare (List.filter (fun k -> k >= lo && k <= hi) keys) in
      got = expected)

let prop_rtree_contained_subset_of_overlap =
  let entry =
    QCheck.Gen.(
      map2
        (fun (x, y) (w, h) -> (x, y, x +. w, y +. h))
        (pair (float_bound_inclusive 50.) (float_bound_inclusive 50.))
        (pair (float_bound_inclusive 10.) (float_bound_inclusive 10.)))
  in
  QCheck.Test.make ~name:"rtree: contained subset of overlapping" ~count:60
    (QCheck.make QCheck.Gen.(pair (list_size (int_bound 40) entry) entry))
    (fun (entries, (wx0, wy0, wx1, wy1)) ->
      let store = fresh_store () in
      let t : int Rtree.t = Store.new_rtree store ~max_entries:4 () in
      List.iteri (fun i (x0, y0, x1, y1) -> Rtree.insert t (rect x0 y0 x1 y1) i) entries;
      let window = rect wx0 wy0 wx1 wy1 in
      let overlap = List.map snd (Rtree.search t window) in
      List.for_all
        (fun (_, v) -> List.mem v overlap)
        (Rtree.search_contained t window))

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [ ( "storage.disk",
      [ Alcotest.test_case "random cost" `Quick test_disk_random_cost;
        Alcotest.test_case "sequential cost" `Quick test_disk_sequential_cost;
        Alcotest.test_case "with_measure" `Quick test_disk_measure
      ] );
    ( "storage.page",
      [ Alcotest.test_case "insert/get/delete" `Quick test_page_insert_get_delete;
        Alcotest.test_case "space accounting" `Quick test_page_space_accounting;
        Alcotest.test_case "update" `Quick test_page_update
      ] );
    ( "storage.buffer",
      [ Alcotest.test_case "hits and LRU" `Quick test_buffer_hits_and_lru;
        Alcotest.test_case "dirty eviction" `Quick test_buffer_dirty_eviction_writes;
        Alcotest.test_case "sequential run" `Quick test_buffer_sequential_run;
        Alcotest.test_case "touch reorders" `Quick test_buffer_touch_reorders_lru;
        Alcotest.test_case "invalidate resets run" `Quick
          test_buffer_invalidate_resets_sequential;
        Alcotest.test_case "clear resets state" `Quick test_buffer_clear_resets_state;
        qtest prop_lru_matches_reference
      ] );
    ( "storage.heap_file",
      [ Alcotest.test_case "scan cost" `Quick test_heap_file_scan_cost;
        Alcotest.test_case "ESM layout scan" `Quick test_heap_file_btree_layout_scan_is_random;
        Alcotest.test_case "extent roundtrip" `Quick test_extent_roundtrip;
        Alcotest.test_case "record growth" `Quick test_extent_update_grows_record;
        Alcotest.test_case "insert_at" `Quick test_extent_insert_at
      ] );
    ( "storage.btree",
      [ Alcotest.test_case "insert/search" `Quick test_btree_insert_search;
        Alcotest.test_case "duplicates/unique" `Quick test_btree_duplicates_and_unique;
        Alcotest.test_case "range" `Quick test_btree_range;
        Alcotest.test_case "delete" `Quick test_btree_delete;
        Alcotest.test_case "charges levels" `Quick test_btree_charges_levels;
        qtest prop_btree_matches_model
      ] );
    ( "storage.hash",
      [ Alcotest.test_case "basic" `Quick test_hash_index_basic;
        Alcotest.test_case "overflow chains" `Quick test_hash_overflow_chain_charged;
        qtest prop_hash_index_matches_model
      ] );
    ( "storage.join_index",
      [ Alcotest.test_case "binary" `Quick test_binary_join_index;
        Alcotest.test_case "path" `Quick test_path_index
      ] );
    ( "storage.rtree",
      [ Alcotest.test_case "rect predicates" `Quick test_rect_predicates;
        Alcotest.test_case "search" `Quick test_rtree_search;
        qtest prop_rtree_matches_naive
      ] );
    ( "storage.locks",
      [ Alcotest.test_case "compatibility" `Quick test_lock_compatibility;
        Alcotest.test_case "reentrancy" `Quick test_lock_reentrancy_and_upgrade;
        Alcotest.test_case "deadlock" `Quick test_lock_deadlock_detection;
        Alcotest.test_case "release_all drains table" `Quick
          test_lock_release_all_drains_table;
        Alcotest.test_case "random schedules vs mirror graph" `Quick
          test_lock_random_schedules;
        qtest prop_lock_exclusivity
      ] );
    ( "storage.properties",
      [ qtest prop_buffer_pool_bounded;
        qtest prop_btree_range_matches_model;
        qtest prop_rtree_contained_subset_of_overlap
      ] );
    ( "storage.wal",
      [ Alcotest.test_case "replay committed" `Quick test_wal_replay_committed_only;
        Alcotest.test_case "crash" `Quick test_wal_crash_loses_unpersisted;
        Alcotest.test_case "group-commit tickets" `Quick
          test_wal_group_force_tickets;
        Alcotest.test_case "undo records" `Quick test_wal_undo_records;
        Alcotest.test_case "undo stops at Begin" `Quick test_wal_undo_stops_at_begin;
        Alcotest.test_case "extent recovery" `Quick test_extent_wal_recovery;
        Alcotest.test_case "LSNs monotonic" `Quick test_wal_lsn_monotonic;
        Alcotest.test_case "recover bounded by checkpoint" `Quick
          test_wal_recover_checkpoint_bounded;
        Alcotest.test_case "abort vs checkpoint losers" `Quick
          test_wal_abort_before_checkpoint_not_loser;
        Alcotest.test_case "torn flush leaves commit in limbo" `Quick
          test_wal_torn_flush_limbo;
        Alcotest.test_case "2PC record codec" `Quick test_wal_2pc_codec;
        Alcotest.test_case "in-doubt analysis" `Quick test_wal_indoubt_analysis;
        Alcotest.test_case "decisions are durable-only" `Quick
          test_wal_decisions_durable_only
      ] );
    ( "storage.faults",
      [ Alcotest.test_case "disk fault injection" `Quick test_disk_fault_injection;
        Alcotest.test_case "buffer crash loses dirty frames" `Quick
          test_buffer_crash_loses_dirty
      ] );
    ( "storage.index_invariants",
      [ qtest prop_btree_validate_under_churn;
        qtest prop_hash_validate_under_churn
      ] )
  ]
