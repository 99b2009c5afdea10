(* Accounting for the columnar read path: the hot loops bump plain
   ints, each database's metrics registry pulls a snapshot when asked.
   Process-wide only because the benchmark's replay reads [m] directly;
   it moves into the registry with the next benchmark change. *)

type t = {
  mutable batches : int;
  mutable rows_scanned : int;
  mutable rows_after_filter : int;
  mutable dict_hits : int;
  mutable rle_runs : int;
  mutable bytes_decoded : int;
  mutable pages_built : int;
  mutable rows_reread : int;
  mutable pages_reused : int;
  mutable batch_cache_hits : int;
  mutable pages_healed : int;
  mutable mvcc_patched : int;
}

let m =
  { batches = 0;
    rows_scanned = 0;
    rows_after_filter = 0;
    dict_hits = 0;
    rle_runs = 0;
    bytes_decoded = 0;
    pages_built = 0;
    rows_reread = 0;
    pages_reused = 0;
    batch_cache_hits = 0;
    pages_healed = 0;
    mvcc_patched = 0
  }

let metrics () =
  [ ("scan.batches", m.batches);
    ("scan.rows_scanned", m.rows_scanned);
    ("scan.rows_after_filter", m.rows_after_filter);
    ("scan.dict_hits", m.dict_hits);
    ("scan.rle_runs", m.rle_runs);
    ("scan.bytes_decoded", m.bytes_decoded);
    ("scan.pages_built", m.pages_built);
    ("scan.rows_reread", m.rows_reread);
    ("scan.pages_reused", m.pages_reused);
    ("scan.batch_cache_hits", m.batch_cache_hits);
    ("scan.pages_healed", m.pages_healed);
    ("scan.mvcc_patched", m.mvcc_patched)
  ]
