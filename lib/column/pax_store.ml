module Value = Mood_model.Value
module Mtype = Mood_model.Mtype
module Store = Mood_storage.Store
module Extent = Mood_storage.Extent
module Heap_file = Mood_storage.Heap_file
module Page = Mood_storage.Page
module Version_store = Mood_storage.Version_store
module Disk = Mood_storage.Disk
module M = Scan_metrics

(* The PAX segment of one class: a derived, checksummed columnar mirror
   of the class's row extent. The row heap stays authoritative — OLTP
   writes, WAL logging, MVCC chains and indexes are untouched — while
   each PAX page covers a fixed run of heap slots
   ([page = slot / rows_per_page]) and is rebuilt lazily whenever the
   extent's mutation hook reports a write in its range. A page built
   from the heap stores its image as records of a dedicated heap file,
   chunked to the page frame, so segment I/O is charged through the
   same buffer pool and simulated disk as everything else. A stored
   image is read back only once its batch is forgotten; one that fails
   its checksum — or whose frame the simulated disk reports torn — is
   rebuilt from the row heap on the spot: the layout self-heals.

   Upkeep is proportional to the write: the hook keeps each page's
   live-slot array current, and a page whose batch was in memory when a
   write landed keeps that batch, so its rebuild re-reads from the heap
   only the slots written since. Like a dirty page in a buffer pool, a
   page so merged stays in memory as its batch: it writes no image,
   which nothing would read back before a restart drops it. *)

type state =
  | Absent
  | Built of {
      chunks : Heap_file.rid array;
      mutable batch : Batch.t option;
          (* the columns the image was encoded from, or its decoded view
             once re-read, valid until the extent mutation hook or a
             reported tear drops it — the in-memory columnar cache that
             makes repeated scans decode-free. Volatile: a restart (or
             [drop_cached_batches]) forgets it, after which the image is
             re-read and re-verified. *)
    }
  | Written of kept
      (* image deleted by a write while its batch was in memory *)
  | Merged of Batch.t
      (* rebuilt from a kept batch: in memory only, no image, no frames,
         as volatile as [Built]'s batch *)

(* What a write leaves of a cached page: [base] still holds every slot
   not marked in [written] (one byte per slot of the page, set when the
   slot is written) as the heap does, so the rebuild re-reads only
   those. As volatile as the batch it keeps. *)
and kept = { base : Batch.t; written : Bytes.t }

type page = {
  mutable live : int array;  (* live heap slots of the page, ascending *)
  mutable state : state;
}

type t = {
  store : Store.t;
  extent : Extent.t;
  seg : Heap_file.t;
  mutable schema : (string * Pax.akind) array;
  mutable hints : (string * Pax.enc_hint) list;
  mutable rows_per_page : int;
  mutable pages : page array;
  healed : (int * int, unit) Hashtbl.t;
      (* torn frames already consumed by a rebuild: the tear marker
         lives until the buffer pool rewrites the frame, and a rebuilt
         chunk can land on the same frame — without the memo every
         scan would re-heal the page. *)
}

(* Size a PAX page so its typical encoded image fits one page frame:
   the attribute minipages of [rows_per_page] slots share a single
   4 KB page, per the PAX layout. Wide rows that overflow the estimate
   simply spill into additional chunks of the same logical page. *)
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

let delete_chunks t chunks = Array.iter (fun rid -> ignore (Heap_file.delete t.seg rid)) chunks

let invalidate_all t =
  Array.iter (fun page -> page.state <- Absent) t.pages;
  Heap_file.clear t.seg;
  Hashtbl.reset t.healed

(* ------------------------------------------------------------------ *)
(* Page image storage: one logical PAX page = 1..k heap records        *)

let chunk_capacity t = Store.page_capacity t.store - Page.slot_overhead

(* Encode [batch], the columns of a page built from the heap, and store
   the image; the batch stays cached. *)
let store_image t page batch =
  let image = Pax.encode_batch ~hints:t.hints batch in
  let cap = max 256 (chunk_capacity t) in
  let len = String.length image in
  let nchunks = max 1 ((len + cap - 1) / cap) in
  let chunks =
    if nchunks = 1 then [| Heap_file.insert t.seg image |]
    else
      Array.init nchunks (fun i ->
          let pos = i * cap in
          Heap_file.insert t.seg (String.sub image pos (min cap (len - pos))))
  in
  page.state <- Built { chunks; batch = Some batch }

(* An un-consumed tear on any of the page's chunk frames. *)
let frame_torn t chunks =
  let seg_file = Heap_file.file_id t.seg in
  match Disk.torn_pages (Store.disk t.store) with
  | [] -> false
  | torn ->
      Array.exists
        (fun (rid : Heap_file.rid) ->
          List.mem (seg_file, rid.Heap_file.page) torn
          && not (Hashtbl.mem t.healed (seg_file, rid.Heap_file.page)))
        chunks

let drop_cached_batches t =
  Array.iter
    (fun page ->
      match page.state with
      | Built b -> b.batch <- None
      | Written _ | Merged _ -> page.state <- Absent
      | Absent -> ())
    t.pages

type image = Missing | Torn | Image of string

let load_image t page =
  match page.state with
  | Absent | Written _ | Merged _ -> Missing
  | Built { chunks; _ } ->
      let seg_file = Heap_file.file_id t.seg in
      let torn = Disk.torn_pages (Store.disk t.store) in
      let tear = frame_torn t chunks in
      if tear then begin
        (* The durable image of this frame is garbage; remember we
           consumed the tear so the rebuild is not re-healed forever. *)
        Array.iter
          (fun (rid : Heap_file.rid) ->
            if List.mem (seg_file, rid.Heap_file.page) torn then
              Hashtbl.replace t.healed (seg_file, rid.Heap_file.page) ())
          chunks;
        Torn
      end
      else begin
        let buf = Buffer.create 1024 in
        let ok =
          Array.for_all
            (fun rid ->
              match Heap_file.get t.seg rid with
              | Some payload ->
                  Buffer.add_string buf payload;
                  true
              | None -> false)
            chunks
        in
        if ok then Image (Buffer.contents buf) else Missing
      end

(* ------------------------------------------------------------------ *)
(* Mutation hook                                                       *)

(* The extent calls back once a write to [slot] is in place: the page's
   live slots follow the directory, and its image goes. A batch the
   cache could still serve stays behind as the rebuild's base, with the
   slot marked written; a page left without live slots keeps nothing. *)
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
  let keep base =
    let written = Bytes.make t.rows_per_page '\000' in
    mark written;
    page.state <- Written { base; written }
  in
  (match page.state with
  | Absent -> ()
  | Written { written; _ } -> mark written
  | Merged base -> keep base
  | Built { chunks; batch } -> (
      let base = if frame_torn t chunks then None else batch in
      delete_chunks t chunks;
      match base with Some base -> keep base | None -> page.state <- Absent));
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
      seg = Store.new_heap_file store ();
      schema = schema_of attrs;
      hints = [];
      rows_per_page = plan_rows_per_page store attrs;
      pages = [||];
      healed = Hashtbl.create 8
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

let hints t = t.hints

let set_hints t hints =
  if hints <> t.hints then begin
    t.hints <- hints;
    invalidate_all t
  end

let refresh_schema t ~attrs =
  t.schema <- schema_of attrs;
  t.rows_per_page <- plan_rows_per_page t.store attrs;
  invalidate_all t;
  map_pages t

(* ------------------------------------------------------------------ *)
(* Build / decode                                                      *)

(* The columns of the [live] slots. With a kept base, one merge over
   the sorted [live] and base slots takes each slot's cells from the
   base's column arrays where it was not written since, and re-reads
   only the rest from the heap; without one, every row is re-read.
   Either way the columns, string dictionaries included, are the ones
   a full rebuild would make, so they encode to the same image. *)
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

(* Build the page wholly from the heap and store its image. *)
let build_from_heap t page =
  (match page.state with
  | Built { chunks; _ } -> delete_chunks t chunks
  | Absent | Written _ | Merged _ -> ());
  page.state <- Absent;
  let batch = page_batch t page.live None in
  store_image t page batch;
  M.m.M.pages_built <- M.m.M.pages_built + 1;
  batch

(* The page's batch. A batch in memory is served as it is: like a
   buffer pool, an in-memory view is not re-verified against the
   durable bytes. A written page is merged from its kept batch and
   stays in memory; a page without a batch reads its stored image back,
   checksum verified, and one without a clean image is built from the
   heap. *)
let batch_of_page t page =
  let hit batch =
    M.m.M.batch_cache_hits <- M.m.M.batch_cache_hits + 1;
    batch
  in
  let heal () =
    M.m.M.pages_healed <- M.m.M.pages_healed + 1;
    build_from_heap t page
  in
  match page.state with
  | Merged batch -> hit batch
  | Built { chunks; batch = Some batch }
    when (not (frame_torn t chunks))
         && Array.length batch.Batch.slots = Array.length page.live ->
      hit batch
  | Written kept ->
      let batch = page_batch t page.live (Some kept) in
      page.state <- Merged batch;
      M.m.M.pages_built <- M.m.M.pages_built + 1;
      batch
  | Absent | Built _ -> (
      match load_image t page with
      | Missing -> build_from_heap t page
      | Torn -> heal ()
      | Image image -> (
          match Pax.decode_page ~schema:t.schema image with
          | batch when Array.length batch.Batch.slots = Array.length page.live ->
              M.m.M.pages_reused <- M.m.M.pages_reused + 1;
              (match page.state with
              | Built built -> built.batch <- Some batch
              | Absent | Written _ | Merged _ -> ());
              batch
          | _ -> heal ()
          | exception Pax.Corrupt _ -> heal ()))

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

(* Per-batch MVCC: batches decode from the heap-mirroring page images;
   when a snapshot view is open and some slot of this extent's file
   holds a current version the view cannot see, every row is resolved
   against the store and the batch is re-columnarized from the visible
   values. The fast path — no view, or nothing the view cannot see —
   touches nothing. *)
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

(* Clean page images and their chunk placement, for the scan oracle
   (byte-identical rebuild) and the torn-page tests. A merged page's
   image is encoded here, not stored. *)
let page_images t =
  let images = ref [] in
  iter_pages t (fun idx page ->
      let add image = images := (idx, image) :: !images in
      match page.state with
      | Merged batch -> add (Pax.encode_batch ~hints:t.hints batch)
      | Absent | Built _ | Written _ -> (
          match load_image t page with Image image -> add image | Missing | Torn -> ()));
  List.rev !images

let chunk_rids t =
  List.concat
    (List.mapi
       (fun idx page ->
         match page.state with
         | Built { chunks; _ } -> [ (idx, Array.to_list chunks) ]
         | Absent | Written _ | Merged _ -> [])
       (Array.to_list t.pages))

let segment t = t.seg
