(** The hashed group table of GROUP BY, shared by the row engine's
    GROUP and the vectorized scan's fused aggregation, so both group
    alike: keys are equal under [Value.equal] (Int, Long and Float by
    numeric value), groups come out in order of first appearance, and
    each group's row is its first member. Each engine brings its own
    per-aggregate accumulator ['acc] and fold. *)

type 'acc group = private {
  mutable first : Eval.row option;  (** the first member; see [keep_first] *)
  accs : 'acc array;  (** one accumulator per aggregate *)
}

type 'acc t

val create : labels:string list -> fresh:(int -> 'acc) -> 'acc t
(** An empty table for aggregates labelled [labels] (their [#agg]
    field names); a new group gets [fresh i] as aggregate [i]'s
    accumulator. *)

val hash_key : Mood_model.Value.t list -> int
(** The table's hash of a key: [Value.hash] over its parts, so keys
    equal under [Value.equal] hash alike. *)

val find : 'acc t -> Mood_model.Value.t list -> 'acc group
(** The key's group, created on first sight. The zero-key group is
    [find t []]: look it up once, before the rows, so it exists even
    when none arrives. *)

val keep_first : 'acc group -> ('a -> Eval.row) -> 'a -> unit
(** [keep_first g make x] records [make x] as the group's first member
    unless it has one; [make] runs once per group, so a batch engine
    builds a member row only for the row that opens a group. *)

val iter_rows : 'acc t -> final:(int -> 'acc -> Mood_model.Value.t) -> (Eval.row -> unit) -> unit
(** Each group's row, in order of first appearance: its first member
    ([[]] for a group that got none), followed, when there are
    aggregates, by an [#agg] binding holding the tuple of
    [(label i, final i acc)]. *)

val better : Mood_sql.Ast.agg_fn -> Mood_model.Value.t -> Mood_model.Value.t -> Mood_model.Value.t
(** The MIN/MAX fold step: the better of the running value and the new
    one under [Eval.compare_values], keeping the running value on ties
    and on incomparables. *)
