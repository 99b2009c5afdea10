(** Randomized differential scan oracle.

    Seeded cycles build a fresh database with a PAX-layout class (plus
    a row-layout subclass so mixed scopes batch transiently), fill it
    with skewed, duplicate-heavy, null-bearing data — empty strings,
    out-of-int32 integers, low-cardinality RLE bait, generic set
    attributes — and run a battery of scan/aggregate queries twice:
    once forced onto the row engine ([SET SCAN_FORCE ROW], the oracle)
    and once forced onto the vectorized batch engine. Result multisets
    must match. GROUP BY queries must in addition match, row for row
    and in order, the same plan with the fused aggregation lifted back
    into a row-engine [Group] over the ungrouped scan. DML and ANALYZE
    run between queries so page invalidation, lazy rebuilds and hint
    changes are part of every cycle. After each vectorized query the
    segment's page images must equal a full re-encode of the heap. *)

val image_mismatches :
  Mood_column.Pax_store.t -> Mood_storage.Extent.t -> string list
(** Compares every page image of the segment with [Pax.encode_page]
    over the heap rows of that page's live slots, the slots read from
    the extent directory; one message per page that differs, has no
    image, or has an image but no live slot. [[]] = the incrementally
    maintained segment is byte-identical to a full rebuild. Scan the
    segment first: an unbuilt page reports as missing. *)

val phase : Phase.t
(** Counts queries, vectorized runs compared to the row oracle, oracle
    rows, GROUP BY queries also compared in order against the unfused
    plan, the violations those grouped queries raised, and image
    checks ({!image_mismatches} after each vectorized query). Sabotage
    is injected from outside the scan code: before each vectorized
    query the cycle zeroes the null bitmaps of the segment's cached
    decoded batches, so NULLs resurface as zeros and empty strings on
    the columnar side; the negative control must catch it on a GROUP BY
    query. *)
