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
   extent's mutation hook reports a write in its range. Page images are
   stored as records of a dedicated heap file, chunked to the page
   frame, so segment I/O is charged through the same buffer pool and
   simulated disk as everything else. A page whose image fails its
   checksum — or whose frame the simulated disk reports torn — is
   rebuilt from the row heap on the spot: the layout self-heals.

   Upkeep is proportional to the write: the hook keeps each page's
   live-slot array current, and a page whose decoded batch was cached
   when a write landed keeps that batch, so its rebuild re-reads from
   the heap only the slots written since. *)

type state =
  | Absent
  | Built of {
      chunks : Heap_file.rid array;
      mutable batch : Batch.t option;
          (* decoded view of the image, valid until the extent mutation
             hook or a reported tear drops it — the in-memory columnar
             cache that makes repeated scans decode-free. Volatile: a
             restart (or [drop_cached_batches]) forgets it, after which
             the image is re-read and re-verified. *)
    }
  | Written of kept
      (* image deleted by a write while its decoded view was cached *)

(* What a write leaves of a cached page: [base] still holds every slot
   not in [written] as the heap does, so the rebuild re-reads only
   [written]. As volatile as the batch it keeps. *)
and kept = { base : Batch.t; written : (int, unit) Hashtbl.t }

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

let store_image t page image =
  let cap = max 256 (chunk_capacity t) in
  let len = String.length image in
  let nchunks = max 1 ((len + cap - 1) / cap) in
  let chunks =
    Array.init nchunks (fun i ->
        let pos = i * cap in
        Heap_file.insert t.seg (String.sub image pos (min cap (len - pos))))
  in
  page.state <- Built { chunks; batch = None }

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
      | Written _ -> page.state <- Absent
      | Absent -> ())
    t.pages

type image = Missing | Torn | Image of string

let load_image t page =
  match page.state with
  | Absent | Written _ -> Missing
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
   live slots follow the directory, and its image goes. A decoded
   batch the cache could still serve stays behind as the rebuild's
   base, with the slot marked written; a page left without live slots
   keeps nothing. *)
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
  (match page.state with
  | Absent -> ()
  | Written { written; _ } -> Hashtbl.replace written slot ()
  | Built { chunks; batch } ->
      let base = if frame_torn t chunks then None else batch in
      delete_chunks t chunks;
      page.state <-
        (match base with
        | Some base ->
            let written = Hashtbl.create 8 in
            Hashtbl.replace written slot ();
            Written { base; written }
        | None -> Absent));
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

(* The rows of the [live] slots: from the kept base where the slot was
   not written since, from the heap otherwise. Encoding is
   deterministic over (slots, rows), so either way the image is the
   one a full rebuild would write. *)
let build_page t live kept =
  let reread slot =
    M.m.M.rows_reread <- M.m.M.rows_reread + 1;
    match Extent.raw_get t.extent slot with
    | Some v -> v
    | None -> Value.Null (* raced directory change; cannot happen single-threaded *)
  in
  let row =
    match kept with
    | None -> reread
    | Some { base; written } ->
        fun slot ->
          let i = lower_bound base.Batch.slots slot in
          if Hashtbl.mem written slot
             || i >= Array.length base.Batch.slots
             || base.Batch.slots.(i) <> slot
          then reread slot
          else Batch.row_value base i
  in
  Pax.encode_page ~schema:t.schema ~hints:t.hints ~slots:live ~rows:(Array.map row live)

(* The batch always comes from decoding the stored image — a single
   code path, so metrics, corruption detection and the sabotage
   control all act on what the page actually holds. *)
let batch_of_page t page =
  let decode image = Pax.decode_page ~schema:t.schema image in
  let rebuild () =
    let kept =
      match page.state with
      | Built { chunks; _ } ->
          delete_chunks t chunks;
          None
      | Written kept -> Some kept
      | Absent -> None
    in
    page.state <- Absent;
    let image = build_page t page.live kept in
    store_image t page image;
    M.m.M.pages_built <- M.m.M.pages_built + 1;
    decode image
  in
  (* Decoded-batch cache: a clean page whose decoded view is still in
     memory skips the image read and decode entirely. Like a buffer
     pool, an in-memory view is not re-verified against the durable
     bytes — checksums run whenever the image is actually (re)read,
     i.e. after a mutation, a tear, or a cache drop. *)
  match page.state with
  | Built { chunks; batch = Some batch }
    when (not (frame_torn t chunks))
         && Array.length batch.Batch.slots = Array.length page.live ->
      M.m.M.batch_cache_hits <- M.m.M.batch_cache_hits + 1;
      batch
  | _ ->
      let batch =
        match load_image t page with
        | Missing -> rebuild ()
        | Torn ->
            M.m.M.pages_healed <- M.m.M.pages_healed + 1;
            rebuild ()
        | Image image -> (
            match decode image with
            | batch when Array.length batch.Batch.slots = Array.length page.live ->
                M.m.M.pages_reused <- M.m.M.pages_reused + 1;
                batch
            | _ ->
                M.m.M.pages_healed <- M.m.M.pages_healed + 1;
                rebuild ()
            | exception Pax.Corrupt _ ->
                M.m.M.pages_healed <- M.m.M.pages_healed + 1;
                rebuild ())
      in
      (match page.state with
      | Built built -> built.batch <- Some batch
      | Absent | Written _ -> ());
      batch

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
   (byte-identical rebuild) and the torn-page tests. *)
let page_images t =
  let images = ref [] in
  iter_pages t (fun idx page ->
      match load_image t page with
      | Image image -> images := (idx, image) :: !images
      | Missing | Torn -> ());
  List.rev !images

let chunk_rids t =
  List.concat
    (List.mapi
       (fun idx page ->
         match page.state with
         | Built { chunks; _ } -> [ (idx, Array.to_list chunks) ]
         | Absent | Written _ -> [])
       (Array.to_list t.pages))

let segment t = t.seg
