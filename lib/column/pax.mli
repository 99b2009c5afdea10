(** The columns of a PAX page: a fixed run of heap slots re-arranged
    into per-attribute arrays with null bitmaps and a page-local
    dictionary per string attribute. The page lives only as these
    columns; the row heap stays authoritative. *)

module Value = Mood_model.Value
module Mtype = Mood_model.Mtype

type akind = KInt | KFloat | KStr | KOther

val kind_of_type : Mtype.t -> akind

val page_columns :
  schema:(string * akind) array ->
  slots:int array ->
  base:Batch.t option ->
  from_base:int array ->
  rows:Value.t array ->
  Batch.t
(** The typed columns of one page, in [schema] order. Row [j] holds
    slot [slots.(j)]: base row [from_base.(j)] when that is [>= 0]
    (cell for cell, null bits included; [base] must have been built
    under [schema]), else the full tuple [rows.(j)]. Int, float and
    string attributes get [Ints], [Floats] and [Strs] arrays; a column
    with an off-kind non-null cell, and every [KOther] column, is
    [Values]. No row is boxed unless its column is. A NULL row holds 0,
    0.0 or [Null], and a column without NULLs has [Batch.no_nulls]. A
    [Strs] column carries the page dictionary: its non-null rows'
    distinct strings in first-seen order (just [""] when there are
    none), NULL rows coded 0. Deterministic: a merge from a base gives
    the columns a build from the rows alone gives. *)
