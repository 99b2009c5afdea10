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

val encode_page :
  schema:(string * akind) array ->
  hints:(string * enc_hint) list ->
  slots:int array ->
  rows:Value.t array ->
  string
(** [rows.(i)] is the full tuple stored at [slots.(i)]. Deterministic:
    identical inputs produce identical bytes (the recovery sim pins
    byte-identical rebuilds on this). *)

val decode_page : schema:(string * akind) array -> string -> Batch.t
(** Raises [Corrupt] on checksum mismatch, truncation, or any
    structural violation. *)
