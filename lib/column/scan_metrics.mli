(** Counters for the columnar scan path, surfaced as the [scan.*]
    metrics family. Process-wide, like the [join.*] counters: the hot
    loops have no registry handle to thread through. *)

type t = {
  mutable batches : int;          (** column batches produced *)
  mutable rows_scanned : int;     (** rows entering the vectorized filter *)
  mutable rows_after_filter : int;
  mutable dict_hits : int;        (** string compares resolved on dictionary codes *)
  mutable rle_runs : int;         (** RLE runs expanded during decode *)
  mutable bytes_decoded : int;    (** PAX page bytes decoded *)
  mutable pages_built : int;      (** PAX pages (re)encoded from the row heap *)
  mutable rows_reread : int;      (** heap rows read by page (re)builds *)
  mutable pages_reused : int;     (** clean PAX pages served from the segment *)
  mutable batch_cache_hits : int; (** scans served from the decoded-batch cache *)
  mutable pages_healed : int;     (** corrupt/torn pages detected and rebuilt *)
  mutable mvcc_patched : int;     (** batch rows resolved against the version store *)
}

val m : t

val metrics : unit -> (string * int) list

val reset : unit -> unit
