(** Plan execution.

    Evaluates optimizer plans against the stored database, realizing
    each join with the physical method the optimizer chose — forward
    traversal and hash-partition joins chase stored references and
    fetch target objects page by page (charging the simulated disk),
    backward traversal scans and compares, and binary-join-index joins
    probe the index. The clause order of Figure 7.1 and the operator
    order of Figure 7.2 are realized by the plan shape the optimizer
    emits (selections below joins below projection below union). *)

type result = {
  rows : Eval.row list;       (** binding rows, one per result element *)
  projected : Mood_model.Value.t list option;
      (** the SELECT-list tuples when the plan projects; [None] for
          bare binding results *)
}

type mode =
  | Compiled     (** predicates/expressions lowered to closures once per
                     plan ([Compile]) — the hot path *)
  | Interpreted  (** per-row AST walking through [Eval] — the fallback
                     and the differential-testing oracle *)

type prepared
(** A compiled plan: all plan analysis (simple-source detection,
    pointer-predicate shape, aggregate keys, projection labels) and
    predicate/expression lowering done once. Prepared plans are
    immutable and reusable across executions — the unit the [Db] plan
    cache stores. A prepared plan holds no object data: executions see
    the store as it is at run time. *)

val prepare :
  ?mode:mode ->
  ?card:(Mood_optimizer.Plan.node -> float) ->
  Mood_optimizer.Plan.node ->
  prepared
(** Compile once (default [Compiled]). [card], when given, is consulted
    once per plan node at compile time and its estimates are carried on
    the prepared plan for EXPLAIN ANALYZE reports (see
    [Mood_optimizer.Card_est.estimate]); it costs nothing at run
    time. *)

val run_prepared : Eval.env -> prepared -> result
(** Invoke many: per-row work is closure calls, no AST inspection.
    Operators stream: each pushes its rows to the operator above as it
    makes them, and only sorts, join build sides and group states are
    held whole until the top rows are collected into the result. *)

(** One operator's estimated-vs-actual report row from an analyzed run.
    Time and I/O charges are {e inclusive} of the operator's inputs
    (the PostgreSQL EXPLAIN ANALYZE convention) and exclude the
    operators it pushes its rows to; [r_rows] counts the rows it pushed
    across all [r_loops] invocations. *)
type op_report = {
  r_label : string;           (** operator label, [Plan.render] vocabulary *)
  r_depth : int;              (** nesting depth for indentation *)
  r_est : float option;       (** optimizer cardinality estimate, if computed *)
  r_loops : int;              (** times the operator ran (re-runs under UNION etc.) *)
  r_rows : int;               (** actual rows produced, summed over loops *)
  r_time : float;             (** inclusive wall seconds *)
  r_seq_reads : int;          (** inclusive sequential page reads *)
  r_rnd_reads : int;          (** inclusive random page reads *)
  r_writes : int;             (** inclusive page writes *)
  r_buf_hits : int;           (** inclusive buffer-pool hits *)
  r_buf_misses : int;         (** inclusive buffer-pool misses *)
}

val run_analyzed :
  ?disk:Mood_storage.Disk.t ->
  ?buffer:Mood_storage.Buffer_pool.t ->
  Eval.env ->
  prepared ->
  result * op_report list
(** Traced execution: runs the prepared plan with per-operator
    accounting (rows, loops, wall time, and — when [disk]/[buffer] are
    supplied — page-level I/O and buffer charges, attributed by counter
    diffs around each operator's call, less those around each row it
    hands to its consumer). Reports come back in pre-order, ready for
    [render_reports]. Tracing reads the clock and counters twice per
    operator invocation and twice per row an operator pushes; the
    untraced [run_prepared] path does neither. *)

val render_reports : op_report list -> string
(** The EXPLAIN ANALYZE operator tree: one line per operator, indented
    by depth, [est=… rows=… loops=… time=…ms seq=… rnd=… wr=… hit=…
    miss=…]. *)

val run : ?mode:mode -> Eval.env -> Mood_optimizer.Plan.node -> result
(** [prepare] + [run_prepared]. *)

val result_values : result -> Mood_model.Value.t list
(** The user-facing rows: projected tuples, or for bare binding rows
    the tuple of each variable's value (references for stored
    objects). *)

val result_oids : result -> Mood_model.Oid.t list
(** Object identifiers of single-variable results (e.g. [SELECT v]) —
    duplicates removed, in first-appearance order. *)
