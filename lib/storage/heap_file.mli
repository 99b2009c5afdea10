(** Heap files of variable-length records.

    One file backs one class extent (and internal structures like the
    catalog). Records are addressed by stable RIDs. The [layout]
    distinguishes the consecutive-page files of Section 5's [SEQCOST]
    from ESM's files-as-B+-trees, for which "the sequential access cost
    of a file is equal to its random access cost" (Section 5) — a
    full scan of a [Btree_file] is charged page-by-page at random-access
    cost. *)

type layout = Consecutive | Btree_file

type rid = { page : int; slot : Page.slot }

type t

val create :
  file_id:int -> buffer:Buffer_pool.t -> ?layout:layout -> page_capacity:int -> unit -> t
(** [page_capacity] is the usable bytes per page (block size minus
    header). *)

val file_id : t -> int

val layout : t -> layout

val insert : t -> string -> rid

val get : t -> rid -> string option
(** Random access: charges one random page read on a buffer miss. *)

val update : t -> rid -> string -> bool
(** In-place when it fits, otherwise delete + reinsert is the caller's
    job; returns [false] in that case or when the RID is dead. *)

val delete : t -> rid -> bool

val scan : t -> f:(rid -> string -> unit) -> unit
(** Full scan in page order, charged according to [layout]. *)

val fold : t -> init:'a -> f:('a -> rid -> string -> 'a) -> 'a

val page_count : t -> int

val record_count : t -> int

val clear : t -> unit
(** Empties the file and drops its buffered pages. *)
