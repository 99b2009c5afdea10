(** Derivation of cost-model statistics (Table 8) from stored data.

    Scans every class extent and produces a {!Mood_cost.Stats.t}
    snapshot: cardinalities, page counts, object sizes, per-attribute
    dist/max/min/notnull, per-reference fan/totref, plus index
    statistics (Table 9) for every B+-tree index the catalog holds.
    Binary-join-index statistics are registered under the attribute key
    ["#join:<attr>"], the convention the optimizer looks up. *)

val compute : Catalog.t -> Mood_cost.Stats.t
(** Statistics reflect *deep* extents (a class's statistics include its
    subclasses' instances, matching how queries range over classes).
    The scan does charge the simulated disk — callers measuring query
    I/O should [Store.reset_io] afterwards. *)

val register_index :
  Mood_cost.Stats.t -> Catalog.t -> class_name:string -> attr:string -> unit
(** Sets the Table 9 entry of the B+-tree index that [class_name.attr]
    resolves to (the class's own or an inherited one), exactly as
    {!compute} does for it; a hash index or no index sets nothing.
    CREATE INDEX uses it to make a new B+-tree visible to the optimizer
    before the next full statistics pass. *)
