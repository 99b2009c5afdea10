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
    changes are part of every cycle. *)

val phase : Phase.t
(** Counts queries, vectorized runs compared to the row oracle, oracle
    rows, GROUP BY queries also compared in order against the unfused
    plan, and the violations those grouped queries raised. Sabotage
    encodes PAX pages with zeroed null bitmaps for the cycle
    ([Pax.sabotage_null_bitmap]) — NULLs resurface as zeros and empty
    strings; the negative control must catch it on a GROUP BY
    query. *)
