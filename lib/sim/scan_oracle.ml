(* Randomized differential scan oracle.

   Each seeded cycle builds a fresh in-memory database with a PAX
   class and a row-layout subclass, loads skewed null-bearing data,
   and runs every query in the battery twice — row engine forced, then
   vectorized engine forced — diffing result multisets. Interleaved
   UPDATE/DELETE/NEW statements and ANALYZE calls keep the PAX segment
   invalidating, rebuilding and re-encoding under changed dictionary
   hints mid-cycle, so the derived-cache machinery is on the hook for
   every comparison, not just the first scan.

   Grouped queries select only their keys and aggregates: any other
   item takes its group's first member, and the first member in scan
   order differs between a heap scan and a PAX scan. Each grouped
   query is also checked row for row, order included, against a
   hand-built [Group] over the ungrouped [Vscan] of the same plan, so
   the fused aggregation must reproduce the row engine's group order
   and representatives, not just its multiset.

   After every vectorized query the segment's page images are also
   checked byte for byte against a full re-encode of the heap
   ([image_mismatches]): incremental page rebuilds must write what a
   rebuild from scratch would.

   [sabotage] injects a fault from outside the scan code: right before
   each vectorized query it zeroes the null bitmaps of the segment's
   decoded batches, which the next scan reuses from the batch cache.
   NULLs come back as 0 / "" from the columnar side only, which the
   oracle must catch; pages rebuilt from such a batch also fail the
   image check. *)

module Db = Mood.Db
module Catalog = Mood_catalog.Catalog
module Value = Mood_model.Value
module Oid = Mood_model.Oid
module Executor = Mood_executor.Executor
module Plan = Mood_optimizer.Plan
module Optimizer = Mood_optimizer.Optimizer
module Collection = Mood_algebra.Collection
module Pax = Mood_column.Pax
module Batch = Mood_column.Batch
module Pax_store = Mood_column.Pax_store
module Extent = Mood_storage.Extent
module Prng = Mood_util.Prng

(* Skewed small domain: duplicates dominate, so dictionary and RLE
   minipages are the norm and selection vectors stay dense. *)
let zipf rng ~bound = min (Prng.int rng ~bound) (Prng.int rng ~bound)

let maybe_null rng v = if Prng.int rng ~bound:100 < 15 then Value.Null else v

let gen_int rng = Value.Int (zipf rng ~bound:10)

let gen_long rng =
  (* Occasionally out of int32 range so comparisons and sums cross into
     the widened/generic branches. *)
  if Prng.int rng ~bound:4 = 0 then
    Value.Long (Int64.of_int ((5_000_000_000 + zipf rng ~bound:8) * if Prng.bool rng then 1 else -1))
  else Value.Long (Int64.of_int (zipf rng ~bound:10))

let gen_str rng =
  match Prng.int rng ~bound:10 with
  | 0 -> Value.Str ""  (* empty string, distinct from NULL *)
  | 1 -> Value.Str (String.make 1 (Char.chr (Char.code 'a' + Prng.int rng ~bound:26)) ^ "xyzzy")
  | _ -> Value.Str ("s" ^ String.make 1 (Char.chr (Char.code 'a' + zipf rng ~bound:5)))

let gen_set rng =
  Value.set (List.init (Prng.int rng ~bound:3) (fun _ -> Value.Int (zipf rng ~bound:5)))

let gen_row rng =
  Value.Tuple
    [ ("aint", maybe_null rng (gen_int rng));
      ("bflt", maybe_null rng (Value.Float (float_of_int (zipf rng ~bound:8) +. 0.25)));
      ("cstr", maybe_null rng (gen_str rng));
      ("dlow", Value.Int (zipf rng ~bound:3));
      ("eset", maybe_null rng (gen_set rng));
      ("lng", maybe_null rng (gen_long rng))
    ]

let gen_sub_row rng =
  match gen_row rng with
  | Value.Tuple fields -> Value.Tuple (fields @ [ ("extra", Value.Int (zipf rng ~bound:5)) ])
  | _ -> assert false

type kind =
  | Plain
  | Grouped  (** also checked in order against the unfused plan *)
  | Grouped_clean of { analyze : bool }
      (** as [Grouped], over unpatched PAX pages (versions collected
          first), after a forced ANALYZE when [analyze] *)

(* The string-key GROUP BY opens the battery, before the cycle's forced
   ANALYZE, and closes it after: the dictionary hints move from the
   per-page [Auto] choice to the ANALYZE verdict. Both runs collect
   versions first, so no batch arrives MVCC-patched (boxed) and the
   key is read from string minipages. Over seeds 1..200, 52 cycles
   group it from plain and from dictionary minipages. *)
let string_group = "SELECT s.cstr, COUNT(*), SUM(s.aint), MIN(s.lng) FROM ScanC s GROUP BY s.cstr"

(* The battery: plain scans, every comparison family the batch
   compiler specializes (int/float/string/generic, both operand
   orders, arithmetic, IS NULL, AND/OR), fused aggregates, scope
   shapes (EVERY, minus, mixed PAX + row subclass), and GROUP BY over
   every key shape the grouped scan binds differently: dictionary
   string, int with HAVING, Float + Int, out-of-int32 LongInteger, a
   boxed Set, arithmetic, NULL-bearing keys, EVERY / minus scopes and
   the row-layout subclass's transient batches. *)
let variants rng =
  let k = zipf rng ~bound:10 and m = zipf rng ~bound:3 in
  let plain =
    [ "SELECT s FROM ScanC s";
      Printf.sprintf "SELECT s FROM ScanC s WHERE s.aint > %d" k;
      Printf.sprintf "SELECT s FROM ScanC s WHERE %d >= s.aint" k;
      Printf.sprintf "SELECT s.cstr, s.aint FROM ScanC s WHERE s.dlow = %d" m;
      "SELECT s FROM ScanC s WHERE s.cstr = 'sa'";
      "SELECT s FROM ScanC s WHERE s.cstr = ''";
      Printf.sprintf "SELECT s FROM ScanC s WHERE s.cstr >= 'sb' AND s.aint <= %d" k;
      Printf.sprintf "SELECT s FROM ScanC s WHERE s.bflt < %d.5 OR s.aint IS NULL" k;
      Printf.sprintf "SELECT s FROM ScanC s WHERE s.aint + 1 > %d" k;
      Printf.sprintf "SELECT s FROM ScanC s WHERE NOT (s.aint = %d)" k;
      "SELECT s FROM ScanC s WHERE s.cstr IS NOT NULL";
      "SELECT s FROM ScanC s WHERE s.eset = s.eset";
      Printf.sprintf "SELECT s FROM ScanC s WHERE s.lng > 4999999999 OR s.dlow <> %d" m;
      "SELECT MIN(s.lng), MAX(s.lng), SUM(s.lng) FROM ScanC s";
      Printf.sprintf "SELECT COUNT(*) FROM ScanC s WHERE s.aint > %d" k;
      "SELECT COUNT(s.aint), SUM(s.aint), AVG(s.bflt), MIN(s.cstr), MAX(s.aint) FROM ScanC s";
      "SELECT SUM(s.aint) FROM ScanC s WHERE s.cstr = 'sa'";
      "SELECT AVG(s.dlow) FROM ScanC s WHERE s.bflt IS NOT NULL";
      "SELECT e FROM EVERY ScanC e";
      Printf.sprintf "SELECT x FROM ScanC - ScanSub x WHERE x.aint >= %d" k;
      "SELECT u.extra FROM ScanSub u WHERE u.extra > 1"
    ]
  in
  let grouped =
    [ Printf.sprintf
        "SELECT s.aint, COUNT(*), AVG(s.bflt) FROM ScanC s WHERE s.dlow <> %d GROUP BY \
         s.aint HAVING COUNT(*) > 1"
        m;
      "SELECT s.bflt, s.dlow, COUNT(*), MAX(s.cstr) FROM ScanC s GROUP BY s.bflt, s.dlow";
      "SELECT s.lng, COUNT(*), SUM(s.aint) FROM ScanC s GROUP BY s.lng";
      "SELECT s.eset, COUNT(*), MIN(s.aint) FROM ScanC s GROUP BY s.eset";
      Printf.sprintf
        "SELECT s.aint * 2 - s.dlow, COUNT(*), SUM(s.lng) FROM ScanC s WHERE s.aint <> %d \
         GROUP BY s.aint * 2 - s.dlow"
        k;
      "SELECT s.cstr, s.aint FROM ScanC s GROUP BY s.cstr, s.aint";
      "SELECT s.cstr, s.bflt, COUNT(*), SUM(s.dlow) FROM ScanC s WHERE s.aint IS NULL \
       GROUP BY s.cstr, s.bflt";
      "SELECT e.dlow, COUNT(*), SUM(e.aint) FROM EVERY ScanC e GROUP BY e.dlow";
      "SELECT x.cstr, COUNT(*), AVG(x.aint) FROM ScanC - ScanSub x GROUP BY x.cstr";
      "SELECT u.extra, COUNT(*), MAX(u.lng) FROM ScanSub u GROUP BY u.extra"
    ]
  in
  ((Grouped_clean { analyze = false }, string_group) :: List.map (fun q -> (Plain, q)) plain)
  @ List.map (fun q -> (Grouped, q)) grouped
  @ [ (Grouped_clean { analyze = true }, string_group) ]

let row_repr (row : (string * Collection.item) list) =
  String.concat "|"
    (List.map
       (fun (var, (it : Collection.item)) ->
         var ^ "="
         ^ (match it.Collection.oid with Some o -> "#" ^ Oid.to_string o ^ ":" | None -> "")
         ^ Value.to_string it.Collection.value)
       row)

let multiset (result : Executor.result) =
  match result.Executor.projected with
  | Some vs -> List.sort String.compare (List.map Value.to_string vs)
  | None -> List.sort String.compare (List.map row_repr result.Executor.rows)

let first_diff got want =
  let rec go a b =
    match a, b with
    | [], [] -> "equal?"
    | x :: _, [] -> "extra " ^ x
    | [], y :: _ -> "missing " ^ y
    | x :: xs, y :: ys ->
        let c = String.compare x y in
        if c = 0 then go xs ys else if c < 0 then "extra " ^ x else "missing " ^ y
  in
  go got want

(* The same plan with every fused GROUP BY lifted back out of its
   VSCAN: the row engine's [Group] over the ungrouped scan. *)
let rec unfuse (node : Plan.node) =
  match node with
  | Plan.Vscan ({ by; having; aggregates; _ } as v) when by <> [] || aggregates <> [] ->
      Plan.Group
        { source = Plan.Vscan { v with by = []; having = None; aggregates = [] };
          by;
          having;
          aggregates
        }
  | Plan.Sort s -> Plan.Sort { s with source = unfuse s.source }
  | Plan.Project p -> Plan.Project { p with source = unfuse p.source }
  | Plan.Union nodes -> Plan.Union (List.map unfuse nodes)
  | other -> other

let rec has_grouped_vscan (node : Plan.node) =
  match node with
  | Plan.Vscan { by; aggregates; _ } -> by <> [] || aggregates <> []
  | Plan.Sort { source; _ } | Plan.Project { source; _ } -> has_grouped_vscan source
  | Plan.Union nodes -> List.exists has_grouped_vscan nodes
  | _ -> false

(* Ordered comparison of the fused plan against its unfused twin, run
   through the executor directly. The binding rows are compared, so a
   group's representative (its first member's OID and value) must
   match too, not only the projected keys. [None] when they agree. *)
let ordered_diff db src =
  let fused = (Db.optimize db src).Optimizer.plan in
  if not (has_grouped_vscan fused) then Some "no grouped VSCAN under SCAN_FORCE VECTOR"
  else begin
    let env = Db.executor_env db in
    let ordered plan = List.map row_repr (Executor.run env plan).Executor.rows in
    let got = ordered fused and want = ordered (unfuse fused) in
    if got = want then None else Some (first_diff got want)
  end

(* Every page image of [ps] against [Pax.encode_page] over the heap
   rows of its page's live slots, the pages taken from the extent
   directory: one message per page that differs, is missing, or has
   no live slot. The segment must be fully built (scan it first). *)
let image_mismatches ps ext =
  let rows_per_page = Pax_store.rows_per_page ps in
  let want =
    List.fold_left
      (fun acc slot ->
        let idx = slot / rows_per_page in
        match acc with
        | (i, slots) :: rest when i = idx -> (i, slot :: slots) :: rest
        | _ -> (idx, [ slot ]) :: acc)
      [] (Extent.slots ext)
    |> List.rev_map (fun (idx, slots) ->
           let slots = Array.of_list (List.rev slots) in
           let rows =
             Array.map
               (fun slot -> Option.value ~default:Value.Null (Extent.raw_get ext slot))
               slots
           in
           ( idx,
             Pax.encode_page ~schema:(Pax_store.schema ps) ~hints:(Pax_store.hints ps)
               ~slots ~rows ))
  in
  let got = Pax_store.page_images ps in
  List.filter_map
    (fun idx ->
      match List.assoc_opt idx got, List.assoc_opt idx want with
      | Some g, Some w when String.equal g w -> None
      | Some _, Some _ -> Some (Printf.sprintf "page %d: image differs from a full re-encode" idx)
      | Some _, None -> Some (Printf.sprintf "page %d: image without live slots" idx)
      | None, _ -> Some (Printf.sprintf "page %d: no image" idx))
    (List.sort_uniq compare (List.map fst got @ List.map fst want))

(* The negative control: every cached decoded batch of [ps] forgets its
   NULLs. *)
let zero_null_bitmaps ps =
  Pax_store.iter_batches ps ~f:(fun batch ->
      Array.iter
        (fun (_, (col : Batch.column)) ->
          Bytes.fill col.Batch.nulls 0 (Bytes.length col.Batch.nulls) '\000')
        batch.Batch.columns)

let exec db src =
  match Db.exec db src with
  | Ok r -> r
  | Error m -> failwith (Printf.sprintf "scan oracle: %S failed: %s" src m)

let run_cycle ~sabotage ~seed =
  let rng = Prng.create ~seed in
  let db = Db.create () in
  ignore
    (exec db
       "CREATE CLASS ScanC TUPLE (aint Integer, bflt Float, cstr String(8), dlow \
        Integer, eset Set(Integer), lng LongInteger) LAYOUT PAX");
  ignore (exec db "CREATE CLASS ScanSub INHERITS FROM ScanC TUPLE (extra Integer)");
  let cat = Db.catalog db in
  let n = 20 + Prng.int rng ~bound:180 in
  for _ = 1 to n do
    if Prng.int rng ~bound:5 = 0 then
      ignore (Catalog.insert_object cat ~class_name:"ScanSub" (gen_sub_row rng))
    else ignore (Catalog.insert_object cat ~class_name:"ScanC" (gen_row rng))
  done;
  let queries = ref 0 and checks = ref 0 and rows = ref 0 in
  let grouped_checks = ref 0 and grouped_violations = ref 0 and image_checks = ref 0 in
  let violations = ref [] in
  let violation ~grouped message =
    if grouped then incr grouped_violations;
    violations := message :: !violations
  in
  List.iter
    (fun (kind, src) ->
      incr queries;
      (* DML between queries: dirty pages so rebuilds interleave
         with scans; occasional ANALYZE flips dictionary hints. *)
      (match Prng.int rng ~bound:4 with
      | 0 ->
          ignore
            (exec db
               (Printf.sprintf
                  "UPDATE ScanC s SET aint = s.aint + 1 WHERE s.dlow = %d"
                  (zipf rng ~bound:3)))
      | 1 ->
          ignore
            (exec db
               (Printf.sprintf "DELETE FROM ScanC s WHERE s.aint = %d"
                  (zipf rng ~bound:10)))
      | 2 -> ignore (Catalog.insert_object cat ~class_name:"ScanC" (gen_row rng))
      | _ -> ());
      let forced_analyze =
        match kind with
        | Grouped_clean { analyze } ->
            Db.gc_versions db;
            analyze
        | Plain | Grouped -> false
      in
      if Prng.int rng ~bound:5 = 0 || forced_analyze then Db.analyze db;
      let grouped = kind <> Plain in
      ignore (exec db "SET SCAN_FORCE ROW");
      let oracle = multiset (Db.query db src) in
      rows := !rows + List.length oracle;
      ignore (exec db "SET SCAN_FORCE VECTOR");
      if sabotage then Option.iter zero_null_bitmaps (Catalog.pax_store cat "ScanC");
      incr checks;
      let got = multiset (Db.query db src) in
      if got <> oracle then
        violation ~grouped
          (Printf.sprintf "%s: %d rows, oracle %d (%s)" src (List.length got)
             (List.length oracle) (first_diff got oracle));
      (match Catalog.pax_store cat "ScanC" with
      | Some ps ->
          incr image_checks;
          Pax_store.materialize ps;
          List.iter
            (fun m -> violation ~grouped:false (Printf.sprintf "after %s: %s" src m))
            (image_mismatches ps (Catalog.own_extent cat "ScanC"))
      | None -> violation ~grouped:false "ScanC has no PAX segment");
      if grouped then begin
        incr grouped_checks;
        match ordered_diff db src with
        | None -> ()
        | Some d -> violation ~grouped (Printf.sprintf "%s: ordered vs unfused, %s" src d)
      end)
    (variants rng);
  { Phase.seed;
    site = Printf.sprintf "%d rows loaded" n;
    counts =
      [ ("queries", !queries);
        ("checks", !checks);
        ("oracle rows", !rows);
        ("grouped checks", !grouped_checks);
        ("grouped violations", !grouped_violations);
        ("image checks", !image_checks)
      ];
    violations = List.rev !violations
  }

(* The negative control must be caught on a GROUP BY query: proof
   that the fused grouped aggregation reads the null bitmaps too. *)
let phase =
  { Phase.name = "scan";
    cycle = run_cycle;
    caught = (fun o -> Phase.count o.Phase.counts "grouped violations" > 0)
  }
