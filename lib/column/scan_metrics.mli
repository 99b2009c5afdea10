(** Counters for the columnar scan path, surfaced as the [scan.*]
    metrics family. Process-wide, so two databases in one process share
    them: the benchmark's replay reads [m] directly, and moving it into
    each database's registry is a benchmark change. *)

type t = {
  mutable batches : int;          (** column batches produced *)
  mutable rows_scanned : int;     (** rows entering the vectorized filter *)
  mutable rows_after_filter : int;
  mutable dict_hits : int;        (** string compares resolved on dictionary codes *)
  mutable pages_built : int;      (** PAX pages built from the row heap or merged *)
  mutable rows_reread : int;      (** heap rows read by page (re)builds *)
  mutable batch_cache_hits : int; (** pages served from the batch cache *)
  mutable mvcc_patched : int;     (** batch rows resolved against the version store *)
}

val m : t

val metrics : unit -> (string * int) list
