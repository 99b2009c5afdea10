(* Scan-method choice: classic tuple-at-a-time row scan vs the
   vectorized batch scan over a class's PAX segment. The row scan pays
   SEQCOST over the heap pages plus one CPUCOST per row for the
   interpreted predicate/aggregate touch; the vectorized scan pays
   SEQCOST over the (compressed) segment pages, DECCOST for decoding,
   and an amortized per-row CPU touch — batch loops over unboxed column
   arrays retire rows far cheaper than the interpreter. *)

type choice = Row_scan | Vectorized

(* Per-row CPU discount of the vectorized loop relative to the
   interpreter: tight array loops with compiled predicates. *)
let vector_cpu_discount = 16.

(* Dictionary + RLE typically shrink the scanned attribute bytes; the
   estimator assumes a modest ratio until ANALYZE-fed hints say more. *)
let compression_ratio = 0.6

let row_scan params stats ~cls =
  let rows = float_of_int (Stats.cardinality stats cls) in
  Io_cost.seqcost params (Stats.nbpages stats cls) +. (rows *. params.Io_cost.cpu_cost)

let vectorized_scan params stats ~cls =
  let rows = float_of_int (Stats.cardinality stats cls) in
  let heap_pages = Stats.nbpages stats cls in
  let seg_pages =
    int_of_float (ceil (compression_ratio *. float_of_int heap_pages))
  in
  let block = max 1 params.Io_cost.disk.Mood_storage.Disk.block_size in
  let bytes = seg_pages * block in
  Io_cost.seqcost params seg_pages
  +. Io_cost.deccost params ~bytes
  +. (rows /. vector_cpu_discount *. params.Io_cost.cpu_cost)

(* [pax] says whether the class scans from a PAX segment. A row-layout
   class can still be vectorized (transient batching) but gains no I/O,
   so only a forced hint selects it there. *)
let choose params stats ~forced ~cls ~pax =
  match forced with
  | Some Row_scan -> (Row_scan, row_scan params stats ~cls)
  | Some Vectorized -> (Vectorized, vectorized_scan params stats ~cls)
  | None ->
      if not pax then (Row_scan, row_scan params stats ~cls)
      else begin
        let rc = row_scan params stats ~cls in
        let vc = vectorized_scan params stats ~cls in
        if vc <= rc then (Vectorized, vc) else (Row_scan, rc)
      end

let pp_choice ppf c =
  Format.pp_print_string ppf
    (match c with Row_scan -> "ROW" | Vectorized -> "VECTOR")

let choice_of_string s =
  match String.uppercase_ascii (String.trim s) with
  | "ROW" | "ROW_SCAN" -> Some Row_scan
  | "VECTOR" | "VECTORIZED" -> Some Vectorized
  | _ -> None
