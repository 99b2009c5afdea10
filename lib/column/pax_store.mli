(** Per-class PAX segment: a derived columnar mirror of a row extent.

    The row heap stays authoritative; this store keeps one PAX page
    per fixed run of heap slots. A page built from the heap is encoded
    and persisted (chunked to the page frame) in its own heap file, so
    segment I/O flows through the buffer pool and simulated disk, and
    its columns stay cached. The extent's mutation hook keeps each
    page's live slots current and drops the written page's image; the
    next scan merges the page from its cached batch, re-reading from
    the heap only the rows written since, and keeps the merged batch in
    memory without writing an image. A stored image is read back only
    after {!drop_cached_batches}; corrupt or torn images self-heal from
    the row heap. [iter_batches] applies MVCC snapshot visibility per
    batch when the reader's view diverges from the heap. *)

type t

val create :
  store:Mood_storage.Store.t ->
  extent:Mood_storage.Extent.t ->
  attrs:(string * Mood_model.Mtype.t) list ->
  t
(** Installs itself as the extent's mutation hook. *)

val detach : t -> unit
(** Uninstalls the hook and drops the segment contents (layout switched
    back to row). *)

val set_hints : t -> (string * Pax.enc_hint) list -> unit
(** Encoding verdicts from ANALYZE; a change invalidates all pages so
    the next scan re-encodes under the new hints. *)

val hints : t -> (string * Pax.enc_hint) list

val refresh_schema : t -> attrs:(string * Mood_model.Mtype.t) list -> unit
(** Schema evolution: re-derive attribute kinds and page geometry, drop
    every cached page. *)

val schema : t -> (string * Pax.akind) array

val rows_per_page : t -> int
(** Slots per PAX page, sized so a typical encoded page fits one page
    frame. *)

val iter_batches : t -> f:(Batch.t -> unit) -> unit
(** Scan the class batch-at-a-time: take each PAX page with live slots
    from memory (merging, decoding, building or healing as needed), resolve MVCC visibility if
    the reader's view diverges from the heap, and hand the batch to
    [f]. Batch rows are in slot order; a trailing batch carries
    snapshot-visible rows the heap no longer holds. *)

val materialize : t -> unit
(** Build every page now (bench setup, recovery sim). *)

val invalidate_all : t -> unit
(** Drop every page image and kept batch (the page map stays): the
    next scan rebuilds each page wholly from the heap. *)

val drop_cached_batches : t -> unit
(** Forget the in-memory batches (they are volatile — a restart loses
    them) so the next scan re-reads and re-verifies the stored images,
    and rebuilds written and merged pages wholly from the heap.
    Fault-injection tests use this to model tears that happen while
    the image is out of memory. *)

val page_images : t -> (int * string) list
(** Clean encoded page images of the pages with live slots, by page
    index: a built page's stored image, a merged page's batch encoded
    on demand (not stored) — the scan oracle compares these
    byte-for-byte with a full re-encode of the heap. *)

val chunk_rids : t -> (int * Mood_storage.Heap_file.rid list) list
(** Chunk placement per built page, for torn-page fault tests. *)

val segment : t -> Mood_storage.Heap_file.t
