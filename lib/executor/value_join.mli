(** Memory-bounded value joins: canonical/Grace hash join, external
    sort-merge join and the Odra-style fusion join over collection
    attributes.

    All algorithms share one correctness architecture: candidate pairs
    come from a canonical binary key with exactly the predicate's
    comparison semantics ([Eval.compare_values] at the top level,
    [Value.compare] inside containers, one-level flattening of
    collection-valued keys like [Eval.cmp_values]); each (left, right)
    pair is deduplicated and re-checked against the {e full} compiled
    predicate before emission, so results are multiset-identical to the
    interpreted nested loop — which the differential join oracle
    ([Mood_sim.Join_oracle]) pins. Spills run through
    [Store.new_temp_file] heap files: charged by the simulated disk,
    counted in the [join.*] counters of [Eval.env]'s registry, and
    crash-injectable. *)

type keep = (string * string list) list
(** What a side's entries keep of its objects: for each listed
    variable, its item's OID and only these attributes of its value
    ([Mood_optimizer.Plan.reads]); an unlisted variable keeps its whole
    object. *)

type side = { rows : (Eval.row -> unit) -> unit; key : Compile.expr_fn; keep : keep }
(** One input: [rows f] pushes each of its rows to [f] in order, once
    per join; [key] is the compiled expression producing the join key
    of a row (a collection-valued key joins through its elements, the
    predicate's existential semantics); [keep] is what its entries keep
    of its objects. *)

val run :
  Mood_cost.Join_cost.method_choice ->
  Eval.env ->
  store:Mood_storage.Store.t ->
  pred:Compile.pred_fn ->
  left:side ->
  right:side ->
  emit:(Eval.row -> unit) ->
  unit
(** Executes [Hash_join], [Grace_hash], [Sort_merge] or [Fusion_join]
    (raises [Invalid_argument] for the pointer methods and
    [Nested_loop], which keep their existing executor paths), passing
    each result row [left_row @ right_row] to [emit] as it is found,
    each surviving pair exactly once. The right (build) side is pulled
    and keyed before the left (probe) side. Every method builds its
    entries one way: a row's keys come from its whole bindings, then
    the row is cut to its side's [keep], so the budget checks, the hash
    tables, the sort runs and the spill records hold only what the
    statement reads. Build rows are always cut; probe rows are cut
    where the method holds them (Grace partitions, sort-merge runs),
    not where they only stream past a hash table (hash join, fusion).
    Hash join, Grace hash and fusion consume the left side as it
    streams (Grace's first split collects it into partitions);
    sort-merge collects it to sort. The memory budget is
    [env.join_mem_bytes]; above it, Grace hash partitions recursively
    (fanout 2–16, depth ≤ 4, then an in-memory fallback) and
    sort-merge spills its initial runs. [env.skip_rewind] injects the
    join oracle's fault into sort-merge. The [join.*] counters of
    [env.metrics] are looked up once per call. Temp files are released
    when [run] returns or raises, [emit]'s exceptions included. *)

val elem_key : Mood_model.Value.t -> string option
(** Canonical key of one join-key element: two elements get the same
    key exactly when [Eval.compare_values] finds them equal. [None] for
    [Null] (never joins). Numerics of every kind merge by float value,
    all NaNs share one key and [-0.0] shares [0.0]'s, as under
    [Float.compare]; [Str] and [Char] merge. A container gets a
    structural key under [Value.compare] (inside it [Null] equals
    [Null] and [Str] and [Char] differ), with the same numeric folding
    at every depth. The key is a binary string: a kind tag, then the 8
    bytes of the float, the raw bytes of the string, the 16 bytes of the
    OID, or length- and count-prefixed parts. *)

val keys_of_value : Mood_model.Value.t -> string list
(** Key set of a join-key value: collection values flatten one level
    (deduplicated), scalars are singletons, [Null] is empty. *)

type entry = int * Eval.row * string
(** One spill record: a row's index on its side, one join key of the
    row, and the row. *)

val encode_entry : entry -> string
(** The record as a spill partition stores it: the index, the key, the
    number of bindings, then each binding's variable, OID and
    [Codec]-encoded value. *)

val decode_entry : string -> entry
(** Inverse of [encode_entry]; raises [Failure] on a truncated or
    malformed record. *)

val entry_bytes : entry -> int
(** [String.length (encode_entry e)], computed without encoding by
    [Mood_cost.Join_cost.entry_bytes]. *)

type counters = {
  partitions_spilled : Mood_obs.Metrics.counter;
  spill_bytes : Mood_obs.Metrics.counter;
  merge_passes : Mood_obs.Metrics.counter;
  fusion_hits : Mood_obs.Metrics.counter;
  hash_builds : Mood_obs.Metrics.counter;
  fallbacks : Mood_obs.Metrics.counter;
      (** also bumped by the executor when a forced value-join method
          meets no usable equality conjunct and runs the nested loop *)
}
(** The [join.*] counters. They count only while their registry is
    enabled. *)

val counters : Mood_obs.Metrics.t -> counters
(** The registry's [join.*] counters, created on first use. *)
