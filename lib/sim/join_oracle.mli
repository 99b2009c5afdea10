(** Randomized differential join oracle.

    Seeded cycles generate a fresh two-class database with skewed,
    duplicate-heavy, null-bearing data over every join-key shape
    (integers, cross-kind numerics, floats with NaN, -NaN and -0.0,
    strings vs chars, flat and nested collections), run a battery of join queries through every algorithm
    — nested loop, hash, Grace hash, sort-merge, fusion, each forced by
    plan hint — and diff result multisets against the interpreted
    nested-loop join. Each query runs over whole binding rows and
    again under a PROJECT of one non-key attribute per side, so the
    value joins hold entries cut to what the statement reads; that run
    compares [Executor.result_values]. About half the queries run under
    a tiny random memory budget so the spill paths are part of the
    contract. A violation is any multiset mismatch or temp-file
    leak. *)

val phase : Phase.t
(** Counts queries, (query, algorithm) checks, oracle rows and
    partitions spilled (from the cycle's own metrics registry).
    Sabotage disables the sort-merge duplicate-key rewind for the cycle
    (the [skip_rewind] field of the [Eval.env] it builds), a real
    multiplicity bug the oracle must catch. *)
