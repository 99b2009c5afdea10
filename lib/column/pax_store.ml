module Value = Mood_model.Value
module Mtype = Mood_model.Mtype
module Store = Mood_storage.Store
module Extent = Mood_storage.Extent
module Heap_file = Mood_storage.Heap_file
module Version_store = Mood_storage.Version_store
module M = Scan_metrics

(* The PAX segment of one class: a derived columnar mirror of the
   class's row extent, held in memory only. The row heap stays
   authoritative — OLTP writes, WAL logging, MVCC chains and indexes
   are untouched — while each PAX page covers a fixed run of heap slots
   ([page = slot / rows_per_page]) and lives only as its column batch,
   built lazily from the heap by the first scan that needs it. The
   batches are volatile: no page image is stored or read back, and an
   extent clear (recovery, a replica's snapshot install) drops every
   page, so the next scan rebuilds it from the heap.

   Upkeep is proportional to the write: the extent's mutation hook
   keeps each page's live-slot array current, and a page whose batch
   was in memory when a write landed keeps that batch, so its rebuild
   re-reads from the heap only the slots written since. *)

type state =
  | Absent  (* no batch: the next scan builds it from the heap *)
  | Cached of Batch.t  (* built from the heap or merged; valid until a write *)
  | Written of kept  (* written since its batch was cached *)

(* What a write leaves of a cached page: [base] still holds every slot
   not marked in [written] (one byte per slot of the page, set when the
   slot is written) as the heap does, so the rebuild re-reads only
   those. *)
and kept = { base : Batch.t; written : Bytes.t }

type page = {
  mutable live : int array;  (* live heap slots of the page, ascending *)
  mutable state : state;
}

type t = {
  store : Store.t;
  extent : Extent.t;
  mutable schema : (string * Pax.akind) array;
  mutable rows_per_page : int;
  mutable pages : page array;
}

(* Size a PAX page as the PAX layout sizes a disk page: the attribute
   columns of [rows_per_page] slots at their estimated widths fill one
   page frame, within 64 to 1,024 slots. *)
let plan_rows_per_page store attrs =
  let est_width =
    List.fold_left (fun acc (_, ty) -> acc + Mtype.byte_size ty + 2) 9 attrs
  in
  max 64 (min 1024 (Store.page_capacity store / max 1 est_width))

let schema_of attrs =
  Array.of_list (List.map (fun (attr, ty) -> (attr, Pax.kind_of_type ty)) attrs)

(* First index of the ascending [slots] holding a value >= [slot]. *)
let lower_bound slots slot =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if slots.(mid) < slot then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length slots)

(* The page map: one entry per page index up to the last live slot,
   each with its live slots — built from the extent directory only
   where the geometry is set, kept current by the hook afterwards. *)
let map_pages t =
  let slots = Array.of_list (Extent.slots t.extent) in
  let n = Array.length slots in
  let npages = if n = 0 then 0 else (slots.(n - 1) / t.rows_per_page) + 1 in
  t.pages <- Array.init npages (fun _ -> { live = [||]; state = Absent });
  let rec group start =
    if start < n then begin
      let idx = slots.(start) / t.rows_per_page in
      let stop = lower_bound slots ((idx + 1) * t.rows_per_page) in
      t.pages.(idx).live <- Array.sub slots start (stop - start);
      group stop
    end
  in
  group 0

let ensure_page t idx =
  let len = Array.length t.pages in
  if idx >= len then
    t.pages <-
      Array.init
        (max 8 (2 * max idx len) + 1)
        (fun i -> if i < len then t.pages.(i) else { live = [||]; state = Absent })

let invalidate_all t = Array.iter (fun page -> page.state <- Absent) t.pages

(* ------------------------------------------------------------------ *)
(* Mutation hook                                                       *)

(* The extent calls back once a write to [slot] is in place: the page's
   live slots follow the directory, and a cached batch stays behind as
   the rebuild's base, with the slot marked written; a page left
   without live slots keeps nothing. *)
let on_write t slot =
  let idx = slot / t.rows_per_page in
  ensure_page t idx;
  let page = t.pages.(idx) in
  let live = page.live in
  let n = Array.length live in
  let pos = lower_bound live slot in
  (match pos < n && live.(pos) = slot, Extent.mem t.extent slot with
  | false, true ->
      let grown = Array.make (n + 1) slot in
      Array.blit live 0 grown 0 pos;
      Array.blit live pos grown (pos + 1) (n - pos);
      page.live <- grown
  | true, false ->
      let shrunk = Array.make (n - 1) 0 in
      Array.blit live 0 shrunk 0 pos;
      Array.blit live (pos + 1) shrunk pos (n - pos - 1);
      page.live <- shrunk
  | true, true | false, false -> ());
  let mark written = Bytes.set written (slot mod t.rows_per_page) '\001' in
  (match page.state with
  | Absent -> ()
  | Written { written; _ } -> mark written
  | Cached base ->
      let written = Bytes.make t.rows_per_page '\000' in
      mark written;
      page.state <- Written { base; written });
  if Array.length page.live = 0 then page.state <- Absent

let on_mutate t = function
  | None ->
      invalidate_all t;
      t.pages <- [||]
  | Some slot -> on_write t slot

let create ~store ~extent ~attrs =
  let t =
    { store;
      extent;
      schema = schema_of attrs;
      rows_per_page = plan_rows_per_page store attrs;
      pages = [||]
    }
  in
  map_pages t;
  Extent.set_mutation_hook extent (Some (fun slot -> on_mutate t slot));
  t

let detach t =
  Extent.set_mutation_hook t.extent None;
  on_mutate t None

let rows_per_page t = t.rows_per_page

let schema t = t.schema

let attr_names t = Array.to_list (Array.map fst t.schema)

let refresh_schema t ~attrs =
  t.schema <- schema_of attrs;
  t.rows_per_page <- plan_rows_per_page t.store attrs;
  invalidate_all t;
  map_pages t

(* ------------------------------------------------------------------ *)
(* Build                                                               *)

(* The columns of the [live] slots. With a kept base, one merge over
   the sorted [live] and base slots takes each slot's cells from the
   base's column arrays where it was not written since, and re-reads
   only the rest from the heap; without one, every row is re-read.
   Either way the columns, string dictionaries included, are the ones
   a full rebuild would make. *)
let page_batch t live kept =
  let n = Array.length live in
  let from_base = Array.make n (-1) and rows = Array.make n Value.Null in
  let reread j =
    M.m.M.rows_reread <- M.m.M.rows_reread + 1;
    match Extent.raw_get t.extent live.(j) with
    | Some v -> rows.(j) <- v
    | None -> () (* raced directory change; cannot happen single-threaded *)
  in
  let base =
    match kept with
    | None ->
        for j = 0 to n - 1 do
          reread j
        done;
        None
    | Some { base; written } ->
        let bslots = base.Batch.slots and bn = base.Batch.n in
        let was_written slot = Bytes.get written (slot mod t.rows_per_page) <> '\000' in
        let i = ref 0 in
        for j = 0 to n - 1 do
          let slot = live.(j) in
          while !i < bn && bslots.(!i) < slot do incr i done;
          if !i < bn && bslots.(!i) = slot && not (was_written slot) then from_base.(j) <- !i
          else reread j
        done;
        Some base
  in
  Pax.page_columns ~schema:t.schema ~slots:live ~base ~from_base ~rows

(* The page's batch: a cached batch is served as it is, a written page
   is merged from its kept batch, and a page without one is built from
   the heap. Either build caches its batch. *)
let batch_of_page t page =
  let build kept =
    let batch = page_batch t page.live kept in
    page.state <- Cached batch;
    M.m.M.pages_built <- M.m.M.pages_built + 1;
    batch
  in
  match page.state with
  | Cached batch ->
      M.m.M.batch_cache_hits <- M.m.M.batch_cache_hits + 1;
      batch
  | Written kept -> build (Some kept)
  | Absent -> build None

(* ------------------------------------------------------------------ *)
(* Scanning                                                            *)

(* Pages holding live slots, in page order — so batch rows come out in
   slot order. Re-reads [t.pages] at each step: [f] may write. *)
let iter_pages t f =
  let rec go idx =
    if idx < Array.length t.pages then begin
      let page = t.pages.(idx) in
      if Array.length page.live > 0 then f idx page;
      go (idx + 1)
    end
  in
  go 0

(* Per-batch MVCC: a page's batch mirrors the heap; when a snapshot
   view is open and some slot of this extent's file holds a current
   version the view cannot see, every row is resolved against the store
   and the batch is re-columnarized from the visible values. The fast
   path — no view, or nothing the view cannot see — touches nothing. *)
let patch_batch t vs view ~file batch =
  let kept = ref [] in
  for i = Array.length batch.Batch.slots - 1 downto 0 do
    let slot = batch.Batch.slots.(i) in
    match
      Version_store.read vs view ~file ~slot ~heap:(fun () -> Some (Batch.row_value batch i))
    with
    | Some v -> kept := (slot, v) :: !kept
    | None -> ()
  done;
  M.m.M.mvcc_patched <- M.m.M.mvcc_patched + batch.Batch.n;
  Batch.of_rows ~attrs:(attr_names t) !kept

let iter_batches t ~f =
  let file = Heap_file.file_id (Extent.heap t.extent) in
  let vs = Store.versions t.store in
  let view =
    match Version_store.active_view vs with
    | Some view when Version_store.diverges vs view ~file -> Some view
    | Some _ | None -> None
  in
  iter_pages t (fun _idx page ->
      let batch = batch_of_page t page in
      let batch =
        match view with
        | None -> batch
        | Some view -> patch_batch t vs view ~file batch
      in
      M.m.M.batches <- M.m.M.batches + 1;
      f batch);
  match view with
  | None -> ()
  | Some view -> (
      match
        Version_store.hidden_slots vs view ~file ~present:(Extent.mem t.extent)
      with
      | [] -> ()
      | hidden ->
          M.m.M.batches <- M.m.M.batches + 1;
          M.m.M.mvcc_patched <- M.m.M.mvcc_patched + List.length hidden;
          f (Batch.of_rows ~attrs:(attr_names t) hidden))

let materialize t = iter_batches t ~f:(fun _ -> ())

(* The batch each page with live slots holds, for the scan oracle. *)
let page_batches t =
  let batches = ref [] in
  iter_pages t (fun idx page ->
      let batch = match page.state with Cached batch -> Some batch | Absent | Written _ -> None in
      batches := (idx, batch) :: !batches);
  List.rev !batches
