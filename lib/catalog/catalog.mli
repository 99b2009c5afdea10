(** The MOOD catalog.

    "The catalog contains the definition of classes, types, and member
    functions in a structure similar to a compiler symbol table"
    (Section 2). Definitions are *also* persisted as instances of the
    system classes [MoodsType], [MoodsAttribute] and [MoodsFunction]
    stored in extents on the storage manager (Figure 2.2) — the text
    MoodView reads them back from there. The catalog also owns class
    extents, maintains secondary/join/path indexes, and answers the
    class-hierarchy queries the language needs ([EVERY C - D]). *)

type t

type kind = Class | Type_only
(** A class has a default extent and identity; a type has copy semantics
    and no extent (Section 2's distinction). *)

type method_signature = {
  method_name : string;
  parameters : (string * Mood_model.Mtype.t) list;
  return_type : Mood_model.Mtype.t;
}

type class_info = {
  class_id : int;
  class_name : string;
  kind : kind;
  own_attributes : (string * Mood_model.Mtype.t) list;
  superclasses : string list;
}

exception Schema_error of string

val create : store:Mood_storage.Store.t -> t
(** Bootstraps the three system classes, whose own definitions appear in
    their own extents. *)

val store : t -> Mood_storage.Store.t

val epoch : t -> int
(** The schema/index epoch: a counter bumped by every schema change
    (class/attribute/method definition or removal) and every index
    create/drop/rebuild. Consumers that derive state from the schema —
    the [Db] plan cache, the internal effective-attribute memo — key on
    it: a cached artifact stamped with an older epoch is stale. Data
    (object) changes do {e not} advance the epoch. *)

(** {1 Schema definition} *)

type layout = Row | Pax
(** Physical page layout of a class's extent. [Row] is the classic
    slotted-record heap; [Pax] additionally keeps a derived, in-memory
    columnar mirror (per-attribute column batches, string attributes
    dictionary-coded per page) that the vectorized scan operators read.
    The row heap stays authoritative either way. *)

val define_class :
  t ->
  name:string ->
  ?kind:kind ->
  ?superclasses:string list ->
  ?attributes:(string * Mood_model.Mtype.t) list ->
  ?methods:method_signature list ->
  ?layout:layout ->
  unit ->
  class_info
(** Raises [Schema_error] on duplicate names, unknown superclasses,
    unknown referenced classes, or attribute conflicts that multiple
    inheritance cannot resolve (same name inherited with different types
    from unrelated superclasses). *)

val drop_class : t -> string -> unit
(** Removes an empty leaf class: raises [Schema_error] for system
    classes, classes with subclasses, classes referenced by another
    class's attributes, or classes whose deep extent still holds
    objects. Catalog rows and indexes on the class are removed too. *)

val layout : t -> string -> layout

val set_layout : t -> string -> layout -> unit
(** [ALTER CLASS c SET LAYOUT l]. Switching to [Pax] attaches a fresh
    (lazily built) columnar mirror; switching to [Row] drops it.
    Advances the epoch. *)

val pax_store : t -> string -> Mood_column.Pax_store.t option
(** The columnar mirror, present iff the class's layout is [Pax]. *)

val add_method : t -> class_name:string -> method_signature -> unit
val drop_method : t -> class_name:string -> method_name:string -> unit

val add_attribute : t -> class_name:string -> string -> Mood_model.Mtype.t -> unit
(** Dynamic schema change: existing instances read the new attribute as
    [Null]. *)

val drop_attribute : t -> class_name:string -> string -> unit
val rename_attribute : t -> class_name:string -> old_name:string -> new_name:string -> unit

(** {1 Lookup} *)

val find_class : t -> string -> class_info option
val class_of_id : t -> int -> class_info option
val type_id : t -> string -> int
(** The paper's [typeId(char *typeName)]. Raises [Schema_error] when
    unknown. *)

val type_name : t -> int -> string
(** The paper's [typeName(int typeId)]. *)

val all_classes : t -> class_info list
(** In definition order. *)

val attributes : t -> string -> (string * Mood_model.Mtype.t) list
(** Effective attributes: inherited (leftmost superclass first, C3-style
    duplicate elimination) then own. *)

val attribute_type : t -> class_name:string -> attr:string -> Mood_model.Mtype.t option

val methods : t -> string -> method_signature list
(** Effective methods including inherited; an own method overrides an
    inherited one with the same name and parameter types. *)

val own_methods : t -> string -> method_signature list
(** Only the methods declared on the class itself. *)

val find_method :
  t -> class_name:string -> method_name:string -> method_signature option

(** {1 Hierarchy} *)

val superclasses : t -> string -> string list
(** Direct superclasses. *)

val subclasses : t -> string -> string list
(** Direct subclasses. *)

val descendants : t -> string -> string list
(** All classes below, self excluded, no duplicates, topological-ish
    order. *)

val is_subclass_of : t -> sub:string -> super:string -> bool
(** Reflexive. *)

(** {1 Objects} *)

val normalize : t -> string -> Mood_model.Value.t -> Mood_model.Value.t
(** [normalize t class_name value] restates a tuple in the class's
    declared attribute order: missing attributes become [Null], the
    first binding of a duplicated field wins, unknown attributes and
    type mismatches raise [Schema_error]. [insert_object] and
    [update_object] apply this to every stored value. *)

val insert_object : t -> ?txn:int -> class_name:string -> Mood_model.Value.t -> Mood_model.Oid.t
(** Type-checks the tuple against the class's effective attributes
    (raises [Schema_error] on mismatch), stores it in the class's own
    extent, maintains indexes. *)

val get_object : t -> Mood_model.Oid.t -> Mood_model.Value.t option

val update_object : t -> ?txn:int -> Mood_model.Oid.t -> Mood_model.Value.t -> bool
(** Replaces the object's value (normalized as by [insert_object]).
    Index postings and join-index edges change only for attributes whose
    value changed; superseded ones are removed once no open snapshot can
    still need them, keeping whatever the object's value then has. *)

val delete_object : t -> ?txn:int -> Mood_model.Oid.t -> bool

val extent_of_file : t -> int -> Mood_storage.Extent.t option
(** The class extent stored in the heap file with this id — how a
    logged record, which names its file, finds its extent. *)

type image = Before | After

val put_image : t -> reindex:bool -> image -> Mood_storage.Wal.record -> unit
(** Puts an image a logged data record carries back into the slot the
    write touched: the [After] image for redo, the [Before] image for
    undo, where an INSERT's before-image and a DELETE's after-image are
    the slot's absence. Putting an image the slot already holds changes
    nothing, so applying a record twice equals applying it once. With
    [~reindex:true] (a live abort) the secondary and join indexes
    follow as after any other write; recovery and the replica pass
    [false] and rebuild their indexes when the pass ends. Control
    records, and records of a heap file no class owns, are ignored. *)

val extent_oids : t -> ?every:bool -> ?minus:string list -> string -> Mood_model.Oid.t list
(** The instances of a class. With [every] (default true) instances of
    subclasses are included (IS-A); [minus] excludes the deep extents of
    the named subclasses — the FROM-clause [EVERY Automobile -
    JapaneseAuto] form. *)

val scan_extent :
  t ->
  every:bool ->
  ?minus:string list ->
  string ->
  f:(Mood_model.Oid.t -> Mood_model.Value.t -> unit) ->
  unit
(** Sequential scan charging the simulated disk; [every] includes
    descendant extents, [minus] excludes the deep extents of the named
    subclasses. *)

val own_extent : t -> string -> Mood_storage.Extent.t

val classes_in_scope : t -> every:bool -> minus:string list -> string -> string list
(** The classes a FROM-clause item scans: the named class, with [every]
    its descendants, less the deep extents of [minus]. *)

val class_of_object : t -> Mood_model.Oid.t -> class_info option

(** {1 Indexes} *)

type index =
  | Btree_index of Mood_model.Oid.t Mood_storage.Btree.t
  | Hash_index of Mood_model.Oid.t Mood_storage.Hash_index.t

val create_index :
  t -> class_name:string -> attr:string -> kind:[ `Btree | `Hash ] -> ?unique:bool -> unit -> index
(** Builds over existing objects of the *deep* extent and is maintained
    by subsequent object operations. Raises [Schema_error] for
    non-atomic attributes or duplicate index. *)

val find_index : t -> class_name:string -> attr:string -> index option
(** Also finds an index declared on a superclass (it covers the deep
    extent). *)

val drop_index : t -> class_name:string -> attr:string -> bool
(** Removes the secondary index declared on exactly (class, attr);
    [false] when none exists. Advances the epoch, so cached plans that
    counted on the index are invalidated. *)

val indexes_list : t -> (string * string * [ `Btree | `Hash ]) list
(** Every secondary index as (class, attribute, kind), sorted. *)

val create_join_index :
  t -> class_name:string -> attr:string -> Mood_storage.Join_index.Binary.t
(** For a reference attribute; backfilled and maintained. *)

val find_join_index : t -> class_name:string -> attr:string -> Mood_storage.Join_index.Binary.t option

val create_path_index : t -> class_name:string -> path:string list -> Mood_storage.Join_index.Path.t
(** Materializes head-OID -> terminal-value mappings for an existing
    path of reference attributes ending in an atomic attribute. The
    index is not maintained: any write to an instance of a class on the
    path (the head class, each class a step references, and their
    subclasses) — [insert_object], [update_object], [delete_object],
    [put_image ~reindex:true] — marks it stale, with one epoch bump,
    until [refresh_path_indexes] or [rebuild_indexes] rebuilds it. *)

val find_path_index : t -> class_name:string -> path:string list -> Mood_storage.Join_index.Path.t option
(** [None] for a stale path index too: nothing plans or probes it. *)

val refresh_path_indexes : t -> unit
(** Rebuilds every stale path index from the data, advancing the epoch
    once when there was one. *)

val path_indexes : t -> (string * string list * Mood_storage.Join_index.Path.t) list
(** All path indexes as (head class, path, index), stale ones
    included. *)

(** {1 Named objects}

    "Another way to access an object is to give a unique name to an
    object (Named Objects)" (Section 3.2). Names are persisted as
    instances of the [MoodsName] system class. *)

val name_object : t -> name:string -> Mood_model.Oid.t -> unit
(** Raises [Schema_error] when the name is taken or the object does not
    exist. *)

val named_object : t -> string -> Mood_model.Oid.t option

val drop_name : t -> string -> bool

val named_objects : t -> (string * Mood_model.Oid.t) list
(** Sorted by name. *)

(** {1 Path navigation} *)

val resolve_path :
  t -> class_name:string -> path:string list -> (string * Mood_model.Mtype.t) list option
(** For [C.a1.a2...an], the class traversed at each step paired with the
    attribute's type; [None] when the path does not type-check. *)

val replace_extent_contents : t -> string -> (int * Mood_model.Value.t) list -> unit
(** Backup/restore support: empties the class's own extent and
    reinserts the given (slot, value) pairs slot-faithfully (references
    between restored objects stay valid). Values are trusted — they
    came from a snapshot of a type-checked extent. Call
    [rebuild_indexes] after restoring every class. *)

val rebuild_indexes : t -> unit
(** Discards and rebuilds every secondary, join and path index from the
    stored data. *)

val validate_indexes : t -> string list
(** [[]] when every secondary index is healthy, else one message per
    problem: a B+-tree or hash structure failing its own [validate],
    or postings that differ from the non-null [(value, oid)] pairs of
    the indexed class's deep extent. Exact only while no snapshot is
    open (superseded postings wait for the snapshots that may still
    read them). Join and path indexes are not checked. *)

val system_class_names : string list
(** MoodsType, MoodsAttribute, MoodsFunction and MoodsName: the classes
    every catalog starts with, which hold its own rows. *)

val render_system_catalog : t -> string
(** Dump of the MoodsType / MoodsAttribute / MoodsFunction extents as
    stored (Figure 2.2's layout), for MoodView and tests. *)
