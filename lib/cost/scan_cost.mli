(** Scan-method choice: row (tuple-at-a-time, interpreted) vs
    vectorized (batch-at-a-time over the class's PAX segment).

    The vectorized formula charges [SEQCOST] over a compressed segment
    of 0.6 times the heap's pages and [DECCOST] for decoding it, plus a
    per-row CPU touch discounted for the tight compiled batch loop; the
    row formula is the classic [SEQCOST + rows * CPUCOST]. The segment
    is priced as if it were disk-resident, though the PAX pages are
    held in memory as column batches built from the heap and nothing
    is read or decoded; the formula is kept so that plans do not
    change. *)

type choice = Row_scan | Vectorized

val row_scan : Io_cost.params -> Stats.t -> cls:string -> float

val vectorized_scan : Io_cost.params -> Stats.t -> cls:string -> float

val choose :
  Io_cost.params -> Stats.t -> forced:choice option -> cls:string -> pax:bool -> choice * float
(** [forced] is the database's [SET SCAN_FORCE] setting: when [Some c],
    [c] wins regardless of layout or cost. Otherwise picks the cheaper
    method for a PAX class and [Row_scan] for a row class (transient
    batching buys no I/O there). *)

val pp_choice : Format.formatter -> choice -> unit

val choice_of_string : string -> choice option
