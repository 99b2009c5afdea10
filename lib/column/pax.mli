(** The PAX page codec: a fixed run of heap slots re-arranged into
    per-attribute minipages with null bitmaps, dictionary encoding for
    strings, and RLE for low-cardinality integers. A checksum over the
    page body detects torn writes; corrupt pages are the caller's cue
    to rebuild from the (authoritative) row heap. *)

module Value = Mood_model.Value
module Mtype = Mood_model.Mtype

exception Corrupt of string

type akind = KInt | KFloat | KStr | KOther

val kind_of_type : Mtype.t -> akind

(** Dictionary choice per string attribute: [Auto] decides per page
    from the page-local distinct count; ANALYZE refines it to an
    explicit verdict from class-level distinct/rows. *)
type enc_hint = Auto | Prefer_dict | No_dict

val checksum : string -> pos:int -> int
(** FNV-1a, 32 bit, over [s] from [pos] to the end. Raises
    [Invalid_argument] on a negative [pos]. *)

val page_columns :
  schema:(string * akind) array ->
  slots:int array ->
  base:Batch.t option ->
  from_base:int array ->
  rows:Value.t array ->
  Batch.t
(** The typed columns of one page, in [schema] order. Row [j] holds
    slot [slots.(j)]: base row [from_base.(j)] when that is [>= 0]
    (cell for cell, null bits included; [base] must have been decoded
    under [schema]), else the full tuple [rows.(j)]. Int, float and
    string attributes get [Ints], [Floats] and [Strs] arrays; a column
    with an off-kind non-null cell, and every [KOther] column, is
    [Values]. No row is boxed unless its column is. *)

val encode_batch : hints:(string * enc_hint) list -> Batch.t -> string
(** The page encoder: one minipage per column, in column order, written
    straight from the column's arrays — [Ints] as plain or RLE ints,
    [Floats] as float bits, [Strs] as a page-local dictionary in
    first-seen order or as plain strings (per the column's hint, [Auto]
    when it has none), [Values] as the generic codec. A NULL row must
    hold 0, 0.0 or [Null] (a string row's code is not read), as in the
    batches {!page_columns} and {!decode_page} build. Deterministic: a
    batch from {!page_columns} encodes to the bytes {!encode_page}
    writes for the same rows. *)

val encode_page :
  schema:(string * akind) array ->
  hints:(string * enc_hint) list ->
  slots:int array ->
  rows:Value.t array ->
  string
(** [rows.(i)] is the full tuple stored at [slots.(i)]: {!encode_batch}
    over {!page_columns} of the rows alone. Deterministic: identical
    inputs produce identical bytes (the recovery sim pins byte-identical
    rebuilds on this). *)

val decode_page : schema:(string * akind) array -> string -> Batch.t
(** Raises [Corrupt] on checksum mismatch, truncation, or any
    structural violation. *)

val decode_encoded : schema:(string * akind) array -> string -> Batch.t
(** [decode_page] of an image {!encode_batch} has just returned, before
    it has been stored or read back: the same structural checks, without
    recomputing the checksum it was written with. *)
