(** Per-class PAX segment: a derived columnar mirror of a row extent.

    The row heap stays authoritative; this store keeps one PAX page per
    fixed run of heap slots, held in memory only as its column batch.
    The first scan that needs a page builds its batch from the heap.
    The extent's mutation hook keeps each page's live slots current and
    keeps a written page's batch; the next scan merges the page from
    that batch, re-reading from the heap only the rows written since.
    No page image is stored: clearing the extent (recovery, a replica's
    snapshot install) drops every page. [iter_batches] applies MVCC
    snapshot visibility per batch when the reader's view diverges from
    the heap. *)

type t

val create :
  store:Mood_storage.Store.t ->
  extent:Mood_storage.Extent.t ->
  attrs:(string * Mood_model.Mtype.t) list ->
  t
(** Installs itself as the extent's mutation hook. *)

val detach : t -> unit
(** Uninstalls the hook and drops every page (layout switched back to
    row). *)

val refresh_schema : t -> attrs:(string * Mood_model.Mtype.t) list -> unit
(** Schema evolution: re-derive attribute kinds and page geometry, drop
    every cached page. *)

val schema : t -> (string * Pax.akind) array

val rows_per_page : t -> int
(** Slots per PAX page, sized as if the page's columns were to fill one
    page frame. *)

val iter_batches : t -> f:(Batch.t -> unit) -> unit
(** Scan the class batch-at-a-time: take each PAX page with live slots
    from memory (building or merging it as needed), resolve MVCC
    visibility if the reader's view diverges from the heap, and hand the
    batch to [f]. Batch rows are in slot order; a trailing batch carries
    snapshot-visible rows the heap no longer holds. *)

val materialize : t -> unit
(** Build every page now (bench setup, tests). *)

val invalidate_all : t -> unit
(** Drop every page's batch (the page map stays): the next scan
    rebuilds each page wholly from the heap. *)

val page_batches : t -> (int * Batch.t option) list
(** The batch each page with live slots holds, by page index; [None]
    for a page not built since its last write. The scan oracle compares
    these with a fresh build from the heap. *)
