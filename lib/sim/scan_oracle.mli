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
    changes are part of every cycle. Wired as a [crash_sim] phase ([MOOD_SIM_SCAN_QUOTA], default
    200 seeds) and as a 5-seed fast test in [test_column]. *)

type report = {
  sr_cycles : int;
  sr_queries : int;      (** distinct queries diffed *)
  sr_checks : int;       (** vectorized runs compared to the row oracle *)
  sr_oracle_rows : int;  (** total oracle result rows compared *)
  sr_grouped_checks : int;
      (** GROUP BY queries also compared in order against the unfused
          plan (a [Group] over the ungrouped [Vscan]) *)
  sr_grouped_violations : int;  (** violations raised by GROUP BY queries *)
  sr_violations : (int * string) list;
      (** (seed, message): any multiset mismatch, or an ordered
          mismatch against the unfused plan — reproduce with the
          printed seed *)
}

val run : ?sabotage:bool -> ?quota:int -> base_seed:int -> unit -> report
(** Runs [quota] cycles at seeds [base_seed..base_seed+quota-1]. With
    [sabotage] PAX pages encode with zeroed null bitmaps for the
    duration ([Pax.sabotage_null_bitmap]) — NULLs resurface as zeros
    and empty strings, and the oracle is expected to report violations,
    proving it can catch a real corruption bug. *)

val pp_report : Format.formatter -> report -> unit
