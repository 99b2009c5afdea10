(** Object-level storage for one class extent.

    Wraps a heap file with a slot directory so objects are addressed by
    the slot component of their OID. Values are serialized with the
    model codec; records carry their slot so a scan recovers it. When a
    transaction id is supplied, operations are logged to the store's WAL
    (redo recovery rebuilds extents from the log). *)

type t

val create : store:Store.t -> ?layout:Heap_file.layout -> unit -> t

val heap : t -> Heap_file.t

val insert : t -> ?txn:int -> Mood_model.Value.t -> int
(** Stores an object and returns its fresh slot. *)

val insert_at : t -> ?txn:int -> slot:int -> Mood_model.Value.t -> unit
(** Stores an object under a caller-chosen slot (recovery, restore).
    Raises [Invalid_argument] when the slot is live. *)

val decode : string -> int * Mood_model.Value.t
(** The slot and value a logged [Insert]/[Update]/[Delete] payload (or
    before/after image) carries. Raises [Failure] on a corrupt one. *)

val get : t -> int -> Mood_model.Value.t option
(** Random page access, resolved through the ambient snapshot view when
    one is installed. *)

val raw_get : t -> int -> Mood_model.Value.t option
(** The heap value as stored, bypassing version resolution — for
    derived structures (the PAX segment) that mirror the heap itself
    and apply visibility separately. *)

val mem : t -> int -> bool
(** Slot liveness in the heap directory, without touching the disk. *)

val set_mutation_hook : t -> (int option -> unit) option -> unit
(** Invalidation callback for derived structures: fired with
    [Some slot] after every successful insert/update/delete (including
    recovery redo/undo, which write through the same entry points) and
    with [None] after [clear]. At most one hook; [None] uninstalls. *)

val update : t -> ?txn:int -> slot:int -> Mood_model.Value.t -> bool

val delete : t -> ?txn:int -> int -> bool

val scan : t -> f:(int -> Mood_model.Value.t -> unit) -> unit
(** Sequential scan in storage order. *)

val fold : t -> init:'a -> f:('a -> int -> Mood_model.Value.t -> 'a) -> 'a

val slots : t -> int list
(** Live slots in ascending order, without touching the disk (directory
    is memory-resident, as extent directories are in ESM). *)

val count : t -> int

val page_count : t -> int

val mean_object_size : t -> float
(** Average encoded record size, for [size(C)] statistics. *)

val clear : t -> unit
