module Ast = Mood_sql.Ast
module Parser = Mood_sql.Parser
module Typecheck = Mood_sql.Typecheck
module Value = Mood_model.Value
module Oid = Mood_model.Oid
module Store = Mood_storage.Store
module Wal = Mood_storage.Wal
module Lock = Mood_storage.Lock_manager
module Catalog = Mood_catalog.Catalog
module Catalog_stats = Mood_catalog.Catalog_stats
module Stats = Mood_cost.Stats
module Io_cost = Mood_cost.Io_cost
module Fm = Mood_funcmgr.Function_manager
module Optimizer = Mood_optimizer.Optimizer
module Dicts = Mood_optimizer.Dicts
module Plan = Mood_optimizer.Plan
module Card_est = Mood_optimizer.Card_est
module Executor = Mood_executor.Executor
module Eval = Mood_executor.Eval
module Compile = Mood_executor.Compile
module Value_join = Mood_executor.Value_join
module Join_cost = Mood_cost.Join_cost
module Scan_cost = Mood_cost.Scan_cost
module Scan_metrics = Mood_column.Scan_metrics
module Metrics = Mood_obs.Metrics
module Version_store = Mood_storage.Version_store

(* A fully planned SELECT, ready to re-execute: the parsed query (the
   statement a hit stands for), the optimizer output (for
   explain/traces) and the closure-compiled plan. Plans hold no object
   data, so DML never invalidates them — only schema/index/statistics
   changes do, via the epoch the cache entry is stamped with. *)
type cached_plan = {
  cp_query : Ast.query;
  cp_optimized : Optimizer.optimized;
  cp_prepared : Executor.prepared;
}

type snapshot = (string * (int * Value.t) list) list

(* Statement counters hoisted out of the registry's hash table once at
   [create]: the hot path pays one guarded increment per statement. *)
type db_counters = {
  c_select : Metrics.counter;
  c_dml : Metrics.counter;
  c_ddl : Metrics.counter;
  c_error : Metrics.counter;
  c_explain_analyze : Metrics.counter;
  c_prepares : Metrics.counter;
  c_indoubt_recovered : Metrics.counter;
  h_latency : Metrics.histogram;
      (* observed only while the slow-query log is enabled — the
         disabled hot path takes no clock readings at all *)
}

(* One slow-query log entry; [sq_key] is the normalized statement text,
   which together with [sq_epoch] is exactly the plan-cache key. *)
type slow_query = {
  sq_key : string;
  sq_epoch : int;
  sq_wall : float;  (** wall seconds *)
  sq_io : float;    (** modeled I/O seconds charged by the statement *)
  sq_rows : int;
}

(* Replication role. [Replica]/[Fenced] carry the address writes
   should be retried at: the current primary as this node knows it. *)
type role = Primary | Replica of string | Fenced of string

(* Session transaction handle — the server's BEGIN/COMMIT/ABORT
   surface. Declared before [t] because the database keeps a
   gid -> prepared-transaction registry for two-phase commit. *)
type session_txn = {
  stxn_id : int;
  stxn_lock : Lock.txn;
  mutable stxn_open : bool;
  stxn_view : Version_store.view option;
      (* snapshot captured at BEGIN: every read in the transaction
         (SELECT, EXPLAIN ANALYZE, NAME's query) sees this view —
         repeatable, lock-free — plus the transaction's own pending
         writes. [None] only for the in-doubt transactions [recover]
         brings back, which run no statement. *)
  mutable stxn_prepared : int option;
      (* the coordinator's gid once PREPAREd: the transaction is frozen
         (no further statements, survives client disconnect) until a
         DECIDE resolves it *)
}

type txn_error =
  | Txn_busy
  | Txn_deadlock
  | Txn_fail of string
  | Txn_redirect of string

(* Where a statement runs: on its own, or inside a session transaction.
   The only things that differ are who owns a write's extent locks and
   when they are released, which snapshot a read uses, and which
   transaction a data write is logged under: the session's, or, on its
   own, a one-statement transaction ([in_txn]). *)
type context = Statement | Session of session_txn

type t = {
  st : Store.t;
  cat : Catalog.t;
  funcs : Fm.t;
  mutable statistics : Stats.t;
  mutable session_scope : Fm.scope;
  mutable next_txn : int;
  mutable active_txns : int list;
  mutable last_checkpoint : (snapshot * Wal.lsn) option;
  mutable stats_epoch : int;
  plans : cached_plan Plan_cache.t;
  metrics : Metrics.t;
  counters : db_counters;
  mutable purged_epoch : int;    (* plan epoch the cache was last purged at *)
  mutable slow_threshold : float option;
  mutable slow_log : slow_query list; (* newest first, bounded *)
  mutable role : role;
  mutable term : int;  (* replication term — grows monotonically *)
  mutable prepared : (int * session_txn) list;
      (* gid -> prepared transaction: the participant side of 2PC.
         Entries survive client disconnects and are rebuilt by
         [recover] from durable Prepare records (in-doubt). *)
  mutable on_ddl : (string -> unit) option;
      (* statement journal hook: called with the source text of every
         successful schema statement (under the caller's kernel lock) *)
  mutable settings : Dicts.settings;
      (* SET JOIN_FORCE / SCAN_FORCE / JOIN_MEM, shared by every
         session of this database *)
}

type exec_result =
  | Rows of Executor.result
  | Class_created of string
  | Layout_altered of string * string  (* class, layout *)
  | Index_created of string * string
  | Object_created of Oid.t
  | Updated of int
  | Deleted of int
  | Method_defined of string * string
  | Method_dropped of string * string
  | Object_named of string * Oid.t
  | Name_dropped of string
  | Explained of string

let slow_log_capacity = 64

let create ?buffer_capacity ?(plan_cache_capacity = 64) ?(metrics_enabled = true) () =
  let st = Store.create ?buffer_capacity () in
  let cat = Catalog.create ~store:st in
  let funcs = Fm.create ~catalog:cat in
  let metrics = Metrics.create ~enabled:metrics_enabled () in
  let counters =
    { c_select = Metrics.counter metrics "stmt.select";
      c_dml = Metrics.counter metrics "stmt.dml";
      c_ddl = Metrics.counter metrics "stmt.ddl";
      c_error = Metrics.counter metrics "stmt.error";
      c_explain_analyze = Metrics.counter metrics "stmt.explain_analyze";
      c_prepares = Metrics.counter metrics "shard.prepares";
      c_indoubt_recovered = Metrics.counter metrics "shard.indoubt_recovered";
      h_latency = Metrics.histogram metrics "stmt.latency_s"
    }
  in
  let t =
    { st;
      cat;
      funcs;
      statistics = Stats.create ();
      session_scope = Fm.enter_scope funcs;
      next_txn = 1;
      active_txns = [];
      last_checkpoint = None;
      stats_epoch = 0;
      plans = Plan_cache.create ~capacity:plan_cache_capacity;
      metrics;
      counters;
      purged_epoch = 0;
      slow_threshold = None;
      slow_log = [];
      role = Primary;
      term = 1;
      prepared = [];
      on_ddl = None;
      settings = Dicts.default_settings
    }
  in
  Version_store.set_tracking (Store.versions st) true;
  (* Absorb the components' own accounting as pull sources: their hot
     paths stay untouched, the registry reads them at snapshot time. *)
  Metrics.register_source metrics (fun () ->
      let s = Mood_storage.Buffer_pool.stats (Store.buffer st) in
      [ ("buffer.hits", s.Mood_storage.Buffer_pool.hits);
        ("buffer.misses", s.Mood_storage.Buffer_pool.misses);
        ("buffer.evictions", s.Mood_storage.Buffer_pool.evictions)
      ]);
  Metrics.register_source metrics (fun () ->
      let c = Mood_storage.Disk.counters (Store.disk st) in
      [ ("disk.seeks", c.Mood_storage.Disk.seeks);
        ("disk.random_reads", c.Mood_storage.Disk.random_reads);
        ("disk.sequential_reads", c.Mood_storage.Disk.sequential_reads);
        ("disk.writes", c.Mood_storage.Disk.writes);
        ( "disk.elapsed_us",
          int_of_float (Float.round (c.Mood_storage.Disk.elapsed *. 1e6)) )
      ]);
  Metrics.register_source metrics (fun () ->
      let s = Plan_cache.stats t.plans in
      [ ("plan_cache.hits", s.Plan_cache.hits);
        ("plan_cache.misses", s.Plan_cache.misses);
        ("plan_cache.invalidations", s.Plan_cache.invalidations);
        ("plan_cache.evictions", s.Plan_cache.evictions);
        ("plan_cache.stale_purges", s.Plan_cache.stale_purges);
        ("plan_cache.entries", s.Plan_cache.entries)
      ]);
  Metrics.register_source metrics (fun () ->
      let wal = Store.wal st in
      [ ("wal.forces", Wal.forces wal); ("wal.records", Wal.length wal) ]);
  Metrics.register_source metrics (fun () ->
      let c = Lock.counters (Store.locks st) in
      [ ("locks.grants", c.Lock.grants);
        ("locks.waits", c.Lock.waits);
        ("locks.deadlocks", c.Lock.deadlocks);
        ("locks.resources", Lock.resource_count (Store.locks st))
      ]);
  Metrics.register_source metrics (fun () ->
      [ ("slow_log.entries", List.length t.slow_log) ]);
  Metrics.register_source metrics (fun () ->
      [ ("shard.indoubt_open", List.length t.prepared) ]);
  Metrics.register_source metrics (fun () ->
      [ ("repl.term", t.term);
        ("repl.is_primary", match t.role with Primary -> 1 | _ -> 0)
      ]);
  Metrics.register_source metrics (fun () -> Version_store.metrics (Store.versions st));
  (* Interned now, so STATS lists join.* before the first join. *)
  ignore (Value_join.counters metrics);
  Metrics.register_source metrics (fun () ->
      [ ("join.mem_bytes", t.settings.Dicts.join_mem_bytes);
        ("join.live_temp_files", Store.live_temp_files st)
      ]);
  Metrics.register_source metrics (fun () -> Scan_metrics.metrics ());
  t

let store t = t.st
let catalog t = t.cat
let functions t = t.funcs
let stats t = t.statistics

let role t = t.role
let set_role t role = t.role <- role
let term t = t.term

let set_term t term =
  if term < t.term then
    invalid_arg
      (Printf.sprintf "Db.set_term: term must not regress (%d < %d)" term t.term);
  t.term <- term

(* The plan-cache key epoch: any schema/index change (catalog epoch) or
   statistics change (local counter) makes every cached plan stale.
   Both components only grow, so their sum identifies a planning
   state. *)
let plan_epoch t = Catalog.epoch t.cat + t.stats_epoch

let plan_cache_stats t = Plan_cache.stats t.plans

(* Eager invalidation: the moment the plan epoch moves past the last
   purge, drop every entry stamped with an older epoch. Keyed lookups
   would reject them anyway, but leaving them in place lets dead plans
   squat in the LRU and evict live ones. One int compare when nothing
   changed. *)
let purge_stale_plans t =
  let epoch = plan_epoch t in
  if epoch <> t.purged_epoch then begin
    ignore (Plan_cache.purge_stale t.plans ~epoch);
    t.purged_epoch <- epoch
  end

let analyze t =
  Catalog.refresh_path_indexes t.cat;
  t.statistics <- Catalog_stats.compute t.cat;
  Catalog.apply_stats_hints t.cat t.statistics;
  t.stats_epoch <- t.stats_epoch + 1;
  purge_stale_plans t;
  Store.reset_io t.st

let set_stats t stats =
  t.statistics <- stats;
  Catalog.apply_stats_hints t.cat stats;
  t.stats_epoch <- t.stats_epoch + 1;
  purge_stale_plans t

let optimizer_env t =
  { Dicts.catalog = t.cat;
    stats = t.statistics;
    params = Io_cost.default_params;
    settings = t.settings
  }

let executor_env t =
  { Eval.catalog = t.cat;
    funcs = t.funcs;
    scope = t.session_scope;
    join_mem_bytes = t.settings.Dicts.join_mem_bytes;
    metrics = t.metrics;
    skip_rewind = false
  }

let io_elapsed t = Store.io_elapsed t.st

let reset_io t = Store.reset_io t.st

let scope t = t.session_scope

let new_scope t =
  Fm.exit_scope t.funcs t.session_scope;
  t.session_scope <- Fm.enter_scope t.funcs

(* ------------------------------------------------------------------ *)
(* Statement execution                                                 *)

let method_signature (decl : Ast.method_decl) =
  { Catalog.method_name = decl.Ast.m_name;
    parameters = decl.Ast.m_params;
    return_type = decl.Ast.m_return
  }

let eval_standalone t row e = Eval.expr (executor_env t) row e

let catalog_layout = function
  | Ast.L_row -> Catalog.Row
  | Ast.L_pax -> Catalog.Pax

let layout_name = function Catalog.Row -> "ROW" | Catalog.Pax -> "PAX"

let exec_create_class t ~cc_name ~cc_supers ~cc_attrs ~cc_methods ~cc_layout =
  ignore
    (Catalog.define_class t.cat ~name:cc_name ~superclasses:cc_supers
       ~attributes:cc_attrs
       ~methods:(List.map method_signature cc_methods)
       ~layout:(catalog_layout cc_layout) ());
  Class_created cc_name

let exec_new t ~txn ~no_class ~no_values =
  let attrs = Catalog.attributes t.cat no_class in
  let values = List.map (eval_standalone t []) no_values in
  let fields =
    List.mapi (fun i (name, _) -> (name, Option.value ~default:Value.Null (List.nth_opt values i))) attrs
  in
  Object_created (Catalog.insert_object t.cat ~txn ~class_name:no_class (Value.Tuple fields))

(* The targets of an UPDATE or DELETE: [SELECT v FROM C v WHERE ...]
   planned by the optimizer, so the search gets index probes, compiled
   predicates and VSCAN like any query. It runs outside any snapshot,
   under the statement's exclusive extent locks, so it reads what the
   heap holds now. Each target comes once, as its OID and the row that
   binds it to the value the plan read, in plan order; the whole plan
   runs before the first write. *)
let dml_targets t ~class_name ~var ~where =
  let q =
    { Ast.select = [ { Ast.expr = Ast.Path (var, []); alias = None } ];
      from = [ { Ast.class_name; every = false; minus = []; var; named = false } ];
      where;
      group_by = [];
      having = None;
      order_by = []
    }
  in
  let optimized = Optimizer.optimize (optimizer_env t) q in
  let result = Executor.run_prepared (executor_env t) (Executor.prepare optimized.Optimizer.plan) in
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun row ->
      match Value.assoc_name var row with
      | Some ({ Mood_algebra.Collection.oid = Some oid; _ } as item)
        when not (Hashtbl.mem seen oid) ->
          Hashtbl.replace seen oid ();
          Some (oid, [ (var, item) ])
      | Some _ | None -> None)
    result.Executor.rows

let exec_update t ~txn ~up_class ~up_var ~up_set ~up_where =
  let env = executor_env t in
  let sets = List.map (fun (attr, e) -> (attr, Compile.expr e)) up_set in
  let touched =
    List.fold_left
      (fun acc (oid, row) ->
        let updated =
          List.fold_left
            (fun value (attr, f) -> Value.tuple_set value attr (f env row))
            (Eval.lookup_var row up_var).Mood_algebra.Collection.value sets
        in
        if Catalog.update_object t.cat ~txn oid updated then acc + 1 else acc)
      0
      (dml_targets t ~class_name:up_class ~var:up_var ~where:up_where)
  in
  Updated touched

let exec_delete t ~txn ~de_class ~de_var ~de_where =
  let removed =
    List.fold_left
      (fun acc (oid, _) -> if Catalog.delete_object t.cat ~txn oid then acc + 1 else acc)
      0
      (dml_targets t ~class_name:de_class ~var:de_var ~where:de_where)
  in
  Deleted removed

let optimize t source =
  let q = Parser.parse_query source in
  Optimizer.optimize (optimizer_env t) q

(* Statement-granularity two-phase locking for writers: DML and a
   layout change take the extents they write exclusively, the class's
   subclasses included. Reads take no lock — they read snapshots
   ([read]). Conflicts surface against other sessions' writes,
   administrative locks or the Function Manager's shared-object
   rebuilds, which use the same lock manager. *)
let statement_locks t stmt =
  let deep cls = cls :: Catalog.descendants t.cat cls in
  match stmt with
  | Ast.New_object { no_class; _ } -> [ no_class ]
  | Ast.Update { up_class = cls; _ }
  | Ast.Delete { de_class = cls; _ }
  | Ast.Alter_class_layout { al_class = cls; _ } ->
      deep cls
  | Ast.Select _ | Ast.Explain _ | Ast.Name_object _ | Ast.Create_class _
  | Ast.Create_index _ | Ast.Define_method _ | Ast.Drop_method _ | Ast.Drop_name _
  | Ast.Set _ ->
      []

let versions t = Store.versions t.st

(* The one place extent locks are taken, always exclusively. A
   [Statement] (a layout change; a data write always runs in a
   transaction) takes a lock transaction of its own and releases it when
   the statement ends, however it ends. A [Session] grows the session's
   lock transaction, held until commit/abort (strict 2PL); a conflict
   leaves the locks granted so far in place — incremental acquisition
   is what makes a cross-session deadlock detectable. [Txn_busy]: retry
   the statement; [Txn_deadlock]: this transaction is the victim. *)
let with_locks t ctx classes run =
  if classes = [] then Ok (run ())
  else begin
    let locks = Store.locks t.st in
    let owner, release =
      match ctx with
      | Session s -> (s.stxn_lock, ignore)
      | Statement ->
          let txn = Lock.begin_txn locks in
          (txn, fun () -> Lock.release_all locks txn)
    in
    let rec acquire = function
      | [] -> Ok (run ())
      | cls :: rest -> (
          match Lock.acquire locks owner ("extent:" ^ cls) with
          | Lock.Granted -> acquire rest
          | Lock.Would_block -> Error Txn_busy
          | Lock.Deadlock -> Error Txn_deadlock)
    in
    Fun.protect ~finally:release (fun () -> acquire classes)
  end

(* How a read sees the data. Inside a session transaction: the BEGIN
   snapshot, repeatable for the transaction's lifetime, plus its own
   pending writes. Otherwise a snapshot of its own: it captures the
   commit clock, resolves every extent access through version
   visibility, and is closed afterwards so GC can advance. Either way
   no lock is taken, so a read never waits. *)
let read t ctx run =
  let vs = versions t in
  match ctx with
  | Session { stxn_view = Some view; _ } ->
      Version_store.note_read vs;
      Version_store.with_view vs view run
  | Statement | Session _ ->
      let view = Version_store.open_snapshot vs () in
      Fun.protect
        ~finally:(fun () ->
          Version_store.close_snapshot vs view;
          Version_store.drain_removals vs)
        (fun () ->
          Version_store.note_read vs;
          Version_store.with_view vs view run)

(* ------------------------------------------------------------------ *)
(* Session transactions: the server's BEGIN/COMMIT/ABORT surface, and
   the transaction every data write runs in. (The [session_txn] type
   itself is declared above [t] so the db can carry the 2PC
   prepared-transaction registry.) *)

let finish_txn t txn = t.active_txns <- List.filter (fun id -> id <> txn) t.active_txns

(* Compensate a transaction's logged effects, newest first, indexes
   included. *)
let compensate t txn =
  List.iter
    (Catalog.put_image t.cat ~reindex:true Catalog.Before)
    (Wal.undo_records (Store.wal t.st) txn)

let begin_session_txn t =
  let txn = t.next_txn in
  t.next_txn <- txn + 1;
  t.active_txns <- txn :: t.active_txns;
  ignore (Wal.append (Store.wal t.st) (Wal.Begin txn));
  { stxn_id = txn;
    stxn_lock = Lock.begin_txn (Store.locks t.st);
    stxn_open = true;
    stxn_view = Some (Version_store.open_snapshot (versions t) ~txn ());
    stxn_prepared = None
  }

let session_txn_id s = s.stxn_id

let session_txn_open s = s.stxn_open

let close_stxn_view t s =
  match s.stxn_view with
  | Some v -> Version_store.close_snapshot (versions t) v
  | None -> ()

let unregister_prepared t s =
  match s.stxn_prepared with
  | Some gid -> t.prepared <- List.remove_assoc gid t.prepared
  | None -> ()

(* The commit splits into a logical half (append the Commit record,
   stamp versions, release locks) and a durability half (force the
   log). [commit_session_txn] performs both — one force per commit.
   [commit_session_txn_nodurable] performs only the logical half and
   returns the Commit record's LSN as a group-commit ticket: the
   caller must NOT acknowledge the commit until a covering
   [Wal.force_group] (anyone's) has made that LSN durable. Early lock
   release is safe because the log forces in order: a dependent commit
   can never turn durable before the one it read from. *)
let commit_session_txn_steps t s ~flush =
  if not s.stxn_open then invalid_arg "commit_session_txn: transaction already finished";
  s.stxn_open <- false;
  unregister_prepared t s;
  let wal = Store.wal t.st in
  let lsn = Wal.append wal (Wal.Commit s.stxn_id) in
  if flush then Wal.flush wal;
  let vs = versions t in
  Version_store.commit vs ~txn:s.stxn_id ~lsn;
  close_stxn_view t s;
  Version_store.drain_removals vs;
  finish_txn t s.stxn_id;
  Lock.release_all (Store.locks t.st) s.stxn_lock;
  lsn

let commit_session_txn t s = ignore (commit_session_txn_steps t s ~flush:true)

let commit_session_txn_nodurable t s = commit_session_txn_steps t s ~flush:false

let abort_session_txn t s =
  if not s.stxn_open then invalid_arg "abort_session_txn: transaction already finished";
  s.stxn_open <- false;
  unregister_prepared t s;
  let vs = versions t in
  close_stxn_view t s;
  (* Compensation rewrites the heap back to the pre-images the chain
     already holds — it must not mint fresh versions. *)
  Version_store.without_tracking vs (fun () -> compensate t s.stxn_id);
  Version_store.abort vs ~txn:s.stxn_id;
  ignore (Wal.append (Store.wal t.st) (Wal.Abort s.stxn_id));
  finish_txn t s.stxn_id;
  Lock.release_all (Store.locks t.st) s.stxn_lock;
  Version_store.drain_removals vs

(* A data write runs in a WAL-logged transaction: the session's, or, on
   its own, a one-statement transaction that commits with a log force
   when the statement succeeds and aborts on any error, a lock conflict
   included. *)
let in_txn t ctx run =
  match ctx with
  | Session s -> run s
  | Statement -> (
      let s = begin_session_txn t in
      match run s with
      | Ok _ as ok ->
          commit_session_txn t s;
          ok
      | Error _ as error ->
          abort_session_txn t s;
          error
      | exception e ->
          abort_session_txn t s;
          raise e)

(* What a statement may touch, and how; [run] gets the context it runs
   in. Plain EXPLAIN and SET read no data. Everything else writes: on a
   replica (or a fenced ex-primary) it is refused with the primary's
   address — a retryable routing outcome, nothing executed or locked.
   NEW, UPDATE and DELETE run in a transaction ([in_txn]). Schema
   statements run outside any: a shard's journal replays them through
   [exec] before the log records it holds, and a transaction id minted
   then could equal a journaled loser's. [NAME ... AS SELECT] reads to
   find its object but writes the name table, so it counts as a schema
   statement; only its query runs under [read] ([execute]). *)
let access t ctx stmt run =
  let on_primary write =
    match t.role with
    | Replica addr | Fenced addr -> Error (Txn_redirect addr)
    | Primary -> write (statement_locks t stmt)
  in
  match stmt with
  | Ast.Select _ | Ast.Explain { ex_analyze = true; _ } -> Ok (read t ctx (fun () -> run ctx))
  | Ast.Explain { ex_analyze = false; _ } | Ast.Set _ -> Ok (run ctx)
  | Ast.New_object _ | Ast.Update _ | Ast.Delete _ ->
      on_primary (fun classes ->
          in_txn t ctx (fun s ->
              let ctx = Session s in
              with_locks t ctx classes (fun () -> run ctx)))
  | Ast.Create_class _ | Ast.Alter_class_layout _ | Ast.Create_index _ | Ast.Define_method _
  | Ast.Drop_method _ | Ast.Name_object _ | Ast.Drop_name _ ->
      on_primary (fun classes -> with_locks t ctx classes (fun () -> run ctx))

(* ------------------------------------------------------------------ *)
(* The compile-once hot path                                           *)

(* Optimize + closure-compile one checked SELECT: everything a repeated
   execution can skip. *)
let build_plan t q =
  let optimized = Optimizer.optimize (optimizer_env t) q in
  { cp_query = q;
    cp_optimized = optimized;
    cp_prepared = Executor.prepare optimized.Optimizer.plan
  }

(* Only SELECT texts are worth a cache probe; everything else would
   just pollute the miss counters (and DDL must not be cached anyway).
   Runs on the normalized key, which has leading [--] comments stripped,
   so commented SELECT text still probes the cache. *)
let looks_like_select key =
  String.length key >= 6
  && String.uppercase_ascii (String.sub key 0 6) = "SELECT"

(* Statement text that cannot mutate anything: SELECT and EXPLAIN
   [ANALYZE] forms. The server's autocommit fast path uses this to run
   reads without opening a WAL-logged transaction at all. *)
let read_only_text source =
  let key = Plan_cache.normalize source in
  looks_like_select key
  || String.length key >= 7
     && String.uppercase_ascii (String.sub key 0 7) = "EXPLAIN"

(* The kernel's Exception-class behaviour, shared by every statement
   entry point: failures become messages, the server survives. Unknown
   exceptions (bugs) keep propagating. *)
let error_of_exn = function
  | Parser.Parse_error m -> Some ("parse error: " ^ m)
  | Typecheck.Type_error m -> Some ("type error: " ^ m)
  | Catalog.Schema_error m -> Some ("schema error: " ^ m)
  | Eval.Eval_error m -> Some ("run-time error: " ^ m)
  | Fm.Mood_exception { class_name; function_name; message } ->
      Some (Printf.sprintf "exception in %s::%s: %s" class_name function_name message)
  | Mood_model.Operand.Type_error m -> Some ("run-time type error: " ^ m)
  | Failure m -> Some m
  | _ -> None

let render_plan optimized =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Plan.render ~label_joins:true optimized.Optimizer.plan);
  Buffer.add_string buf "\n\nImmSelInfo:\n";
  List.iter
    (fun (_, entries) ->
      if entries <> [] then begin
        Buffer.add_string buf (Dicts.render_imm entries);
        Buffer.add_char buf '\n'
      end)
    optimized.Optimizer.trace.Optimizer.t_imm;
  Buffer.add_string buf "\nPathSelInfo:\n";
  Buffer.add_string buf (Dicts.render_path optimized.Optimizer.trace.Optimizer.t_paths);
  (match optimized.Optimizer.trace.Optimizer.t_others with
  | [] -> ()
  | others ->
      Buffer.add_string buf "\n\nOtherSelInfo:\n";
      Buffer.add_string buf (Dicts.render_other others));
  Buffer.add_string buf
    (Printf.sprintf "\n\nAND-terms: %d, estimated cost: %.3f s\n"
       optimized.Optimizer.trace.Optimizer.t_and_terms
       optimized.Optimizer.trace.Optimizer.t_est_cost);
  Buffer.contents buf

let explain t source = render_plan (optimize t source)

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE                                                      *)

(* Plan a checked SELECT with per-node cardinality estimates, execute
   it traced, and pair the optimizer output with the per-operator
   reports and run totals. Deliberately outside the plan cache: a
   traced plan carries skeleton estimates computed against the
   statistics of the moment, which is the point of the exercise.
   Callers arrange the read ([read]). *)
type analyzed = {
  an_optimized : Optimizer.optimized;
  an_result : Executor.result;
  an_reports : Executor.op_report list;
  an_wall : float;  (** seconds *)
  an_io : float;  (** modeled I/O seconds *)
  an_batches : int;  (** vectorized batches *)
  an_vrows : int;  (** rows those batches held *)
  an_minor_words : float;  (** allocated by the run, tracer included *)
  an_promoted_words : float;  (** of those, promoted to the major heap *)
}

let analyzed_core t q =
  let env = optimizer_env t in
  let optimized = Optimizer.optimize env q in
  let prepared =
    Executor.prepare ~card:(Card_est.estimate env) optimized.Optimizer.plan
  in
  let io0 = Store.io_elapsed t.st in
  let b0 = Scan_metrics.m.Scan_metrics.batches
  and rs0 = Scan_metrics.m.Scan_metrics.rows_scanned in
  (* [Gc.minor_words] counts to the word; [Gc.quick_stat]'s copy only
     moves at a minor collection, which is when words are promoted. *)
  let minor0 = Gc.minor_words () and promoted0 = (Gc.quick_stat ()).Gc.promoted_words in
  let t0 = Unix.gettimeofday () in
  let result, reports =
    Executor.run_analyzed ~disk:(Store.disk t.st) ~buffer:(Store.buffer t.st)
      (executor_env t) prepared
  in
  let wall = Unix.gettimeofday () -. t0 in
  let minor1 = Gc.minor_words () and promoted1 = (Gc.quick_stat ()).Gc.promoted_words in
  Metrics.incr t.counters.c_explain_analyze;
  { an_optimized = optimized;
    an_result = result;
    an_reports = reports;
    an_wall = wall;
    an_io = Store.io_elapsed t.st -. io0;
    an_batches = Scan_metrics.m.Scan_metrics.batches - b0;
    an_vrows = Scan_metrics.m.Scan_metrics.rows_scanned - rs0;
    an_minor_words = minor1 -. minor0;
    an_promoted_words = promoted1 -. promoted0
  }

let render_analyzed a =
  let rows =
    match a.an_result.Executor.projected with
    | Some vs -> List.length vs
    | None -> List.length a.an_result.Executor.rows
  in
  let vec =
    if a.an_batches = 0 then ""
    else Printf.sprintf "vectorized: %d batches, %d rows\n" a.an_batches a.an_vrows
  in
  Printf.sprintf
    "%s\n\nactual rows: %d, wall time: %.3f ms, modeled I/O: %.6f s, estimated cost: %.3f s, \
     minor words: %.0f, promoted words: %.0f\n%s"
    (Executor.render_reports a.an_reports)
    rows (a.an_wall *. 1000.) a.an_io a.an_optimized.Optimizer.trace.Optimizer.t_est_cost
    a.an_minor_words a.an_promoted_words vec

(* ------------------------------------------------------------------ *)
(* Statement entry points                                               *)

(* [SET JOIN_FORCE <method|DEFAULT>], [SET SCAN_FORCE <ROW|VECTOR|DEFAULT>]
   and [SET JOIN_MEM <bytes>]: the planner settings of this database,
   which the differential oracles and the smoke tests drive. Each
   invalidates cached plans (the choice is part of planning) by bumping
   the statistics epoch. Returns the acknowledgment text. *)
let apply_setting t name value =
  let default = String.uppercase_ascii value = "DEFAULT" in
  let s = t.settings in
  let settings, ack =
    match String.uppercase_ascii name with
    | "JOIN_FORCE" when default -> ({ s with Dicts.join_force = None }, "JOIN_FORCE=DEFAULT")
    | "JOIN_FORCE" -> (
        match Join_cost.method_of_string value with
        | Some m ->
            ( { s with Dicts.join_force = Some m },
              Format.asprintf "JOIN_FORCE=%a" Join_cost.pp_method m )
        | None -> failwith ("unknown join method: " ^ value))
    | "SCAN_FORCE" when default -> ({ s with Dicts.scan_force = None }, "SCAN_FORCE=DEFAULT")
    | "SCAN_FORCE" -> (
        match Scan_cost.choice_of_string value with
        | Some c ->
            ( { s with Dicts.scan_force = Some c },
              Format.asprintf "SCAN_FORCE=%a" Scan_cost.pp_choice c )
        | None -> failwith ("unknown scan choice: " ^ value))
    | "JOIN_MEM" -> (
        match int_of_string_opt value with
        | Some bytes when bytes > 0 ->
            ({ s with Dicts.join_mem_bytes = bytes }, Printf.sprintf "JOIN_MEM=%d" bytes)
        | Some _ | None -> failwith ("JOIN_MEM expects a positive byte count, got: " ^ value))
    | _ -> failwith ("unknown setting: " ^ name)
  in
  t.settings <- settings;
  t.stats_epoch <- t.stats_epoch + 1;
  ack

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

(* Statement timing exists only while the slow-query log is armed; with
   no threshold set the hot path never reads the clock. *)
let timed_slow t ~key f =
  match t.slow_threshold with
  | None -> f ()
  | Some threshold ->
      let io0 = Store.io_elapsed t.st in
      let t0 = Unix.gettimeofday () in
      let result = f () in
      let wall = Unix.gettimeofday () -. t0 in
      Metrics.observe t.counters.h_latency wall;
      (match result with
      | Ok (Rows r) when wall >= threshold ->
          let entry =
            { sq_key = key;
              sq_epoch = plan_epoch t;
              sq_wall = wall;
              sq_io = Store.io_elapsed t.st -. io0;
              sq_rows = List.length r.Executor.rows
            }
          in
          t.slow_log <- take slow_log_capacity (entry :: t.slow_log)
      | _ -> ());
      result

let count_ok t = function
  | Rows _ -> Metrics.incr t.counters.c_select
  | Object_created _ | Updated _ | Deleted _ -> Metrics.incr t.counters.c_dml
  | Explained _ -> ()
  | Class_created _ | Layout_altered _ | Index_created _ | Method_defined _
  | Method_dropped _ | Object_named _ | Name_dropped _ ->
      Metrics.incr t.counters.c_ddl

let is_ddl_result = function
  | Class_created _ | Layout_altered _ | Index_created _ | Method_defined _
  | Method_dropped _ | Object_named _ | Name_dropped _ ->
      true
  | Rows _ | Object_created _ | Updated _ | Deleted _ | Explained _ -> false

let set_ddl_hook t hook = t.on_ddl <- hook

(* Schema statements mutate catalog extents directly (outside the WAL),
   so a statement journal must capture their source text to replay them
   before reapplying logged records. *)
let notify_ddl t source r =
  if is_ddl_result r then
    match t.on_ddl with Some hook -> hook source | None -> ()

(* The transaction a data write is logged under: [access] runs every
   data write in one. *)
let write_txn = function
  | Session s -> s.stxn_id
  | Statement -> invalid_arg "Db: a data write outside a transaction"

(* Runs one checked statement in the context [access] arranged. [hit]
   is the plan-cache entry a SELECT was found under; a missed SELECT is
   planned here and, when [cache], kept for the next run. *)
let execute t ctx ~cache ~key stmt hit =
  match stmt with
  | Ast.Select q ->
      let entry =
        match hit with
        | Some entry -> entry
        | None ->
            let entry = build_plan t q in
            if cache then Plan_cache.add t.plans ~epoch:(plan_epoch t) key entry;
            entry
      in
      Rows (Executor.run_prepared (executor_env t) entry.cp_prepared)
  | Ast.Explain { ex_analyze = true; ex_query } ->
      Explained (render_analyzed (analyzed_core t ex_query))
  | Ast.Explain { ex_analyze = false; ex_query } ->
      Explained (render_plan (Optimizer.optimize (optimizer_env t) ex_query))
  | Ast.Set { set_name; set_value } -> Explained (apply_setting t set_name set_value)
  | Ast.Create_class { cc_name; cc_supers; cc_attrs; cc_methods; cc_layout } ->
      exec_create_class t ~cc_name ~cc_supers ~cc_attrs ~cc_methods ~cc_layout
  | Ast.Alter_class_layout { al_class; al_layout } ->
      let layout = catalog_layout al_layout in
      Catalog.set_layout t.cat al_class layout;
      Layout_altered (al_class, layout_name layout)
  | Ast.Create_index { ci_class; ci_attr; ci_kind } ->
      ignore
        (Catalog.create_index t.cat ~class_name:ci_class ~attr:ci_attr ~kind:ci_kind ());
      (* The new B+-tree enters the live statistics for the class and
         the subclasses it covers, so the optimizer can pick it before
         the next [analyze]. The catalog epoch the index bumped already
         retires plans cached without it. *)
      List.iter
        (fun cls ->
          Catalog_stats.register_index t.statistics t.cat ~class_name:cls ~attr:ci_attr)
        (ci_class :: Catalog.descendants t.cat ci_class);
      Index_created (ci_class, ci_attr)
  | Ast.New_object { no_class; no_values } ->
      exec_new t ~txn:(write_txn ctx) ~no_class ~no_values
  | Ast.Update { up_class; up_var; up_set; up_where } ->
      exec_update t ~txn:(write_txn ctx) ~up_class ~up_var ~up_set ~up_where
  | Ast.Delete { de_class; de_var; de_where } ->
      exec_delete t ~txn:(write_txn ctx) ~de_class ~de_var ~de_where
  | Ast.Define_method { dm_class; dm_decl; dm_body } ->
      Fm.define t.funcs ~class_name:dm_class ~signature:(method_signature dm_decl)
        (Fm.Moodc dm_body);
      Method_defined (dm_class, dm_decl.Ast.m_name)
  | Ast.Drop_method { xm_class; xm_name } ->
      Fm.drop t.funcs ~class_name:xm_class ~function_name:xm_name;
      Method_dropped (xm_class, xm_name)
  | Ast.Name_object { nm_name; nm_query } -> begin
      let optimized = Optimizer.optimize (optimizer_env t) nm_query in
      (* The name check and insert stay outside the view: under a
         snapshot, a name another session bound since would look free. *)
      let result =
        read t ctx (fun () -> Executor.run (executor_env t) optimized.Optimizer.plan)
      in
      match Executor.result_oids result with
      | [ oid ] ->
          Catalog.name_object t.cat ~name:nm_name oid;
          Object_named (nm_name, oid)
      | [] -> failwith "NAME: the query selected no object"
      | _ :: _ :: _ -> failwith "NAME: the query selected more than one object"
    end
  | Ast.Drop_name name ->
      ignore (Catalog.drop_name t.cat name);
      Name_dropped name

(* The one statement pipeline behind [exec] and [exec_in_txn]; the
   context decides who owns the locks, which snapshot a read uses and
   which transaction a data write is logged under. SELECT text probes
   the plan cache before the parser, so a hit skips parse, typecheck
   and optimize; anything else is parsed and checked, then dispatched
   once on the statement. *)
let run_statement t ctx ~cache source =
  purge_stale_plans t;
  let key = Plan_cache.normalize source in
  let cache = cache && looks_like_select key in
  let result =
    timed_slow t ~key (fun () ->
        match
          let hit =
            if cache then Plan_cache.find t.plans ~epoch:(plan_epoch t) key else None
          in
          let stmt =
            match hit with
            | Some entry -> Ast.Select entry.cp_query
            | None ->
                let stmt = Parser.parse source in
                Typecheck.check_statement ~catalog:t.cat stmt;
                stmt
          in
          access t ctx stmt (fun ctx -> execute t ctx ~cache ~key stmt hit)
        with
        | result -> result
        | exception e -> (
            match error_of_exn e with Some m -> Error (Txn_fail m) | None -> raise e))
  in
  (match result with
  | Ok r ->
      count_ok t r;
      notify_ddl t source r
  | Error (Txn_fail _) -> Metrics.incr t.counters.c_error
  | Error (Txn_busy | Txn_deadlock | Txn_redirect _) ->
      (* Lock conflicts are retried and redirects are routing, not
         failures: they show up as [locks.waits]/[locks.deadlocks] and
         the server's redirect count, not as statement errors. *)
      ());
  result

let statement_error = function
  | Txn_fail m -> m
  | Txn_busy | Txn_deadlock -> "extent is locked by another transaction"
  | Txn_redirect addr -> "NOT_PRIMARY: this node is read-only; retry at " ^ addr

let exec ?(cache = true) t source =
  Result.map_error statement_error (run_statement t Statement ~cache source)

let query ?cache t source =
  match exec ?cache t source with
  | Ok (Rows r) -> r
  | Ok _ -> failwith "query: not a SELECT statement"
  | Error m -> failwith m

(* EXPLAIN ANALYZE's programmatic faces read the way [exec] reads the
   statement form. *)
let analyzed t source =
  let q = Parser.parse_query source in
  Typecheck.check_statement ~catalog:t.cat (Ast.Select q);
  read t Statement (fun () -> analyzed_core t q)

let analyze_query t source =
  let a = analyzed t source in
  (a.an_result, a.an_reports)

let explain_analyze t source = render_analyzed (analyzed t source)

let insert t ~class_name value = Catalog.insert_object t.cat ~class_name value

(* ------------------------------------------------------------------ *)
(* Schema dump and scripts                                             *)

let dump_schema t =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun (info : Catalog.class_info) ->
      let name = info.Catalog.class_name in
      if not (List.mem name Catalog.system_class_names) then begin
        pr "CREATE CLASS %s" name;
        (match info.Catalog.superclasses with
        | [] -> ()
        | supers -> pr " INHERITS FROM %s" (String.concat ", " supers));
        (match info.Catalog.own_attributes with
        | [] -> ()
        | attrs ->
            pr " TUPLE (%s)"
              (String.concat ", "
                 (List.map
                    (fun (a, ty) -> a ^ " " ^ Mood_model.Mtype.to_string ty)
                    attrs)));
        (match Catalog.own_methods t.cat name with
        | [] -> ()
        | methods ->
            pr " METHODS: %s"
              (String.concat ", "
                 (List.map
                    (fun (m : Catalog.method_signature) ->
                      Printf.sprintf "%s (%s) %s" m.Catalog.method_name
                        (String.concat ", "
                           (List.map
                              (fun (p, ty) -> p ^ " " ^ Mood_model.Mtype.to_string ty)
                              m.Catalog.parameters))
                        (Mood_model.Mtype.to_string m.Catalog.return_type))
                    methods)));
        pr ";\n"
      end)
    (Catalog.all_classes t.cat);
  List.iter
    (fun (cls, fn, source) ->
      match Catalog.find_method t.cat ~class_name:cls ~method_name:fn with
      | Some m ->
          pr "DEFINE METHOD %s::%s (%s) %s %s;\n" cls fn
            (String.concat ", "
               (List.map
                  (fun (p, ty) -> p ^ " " ^ Mood_model.Mtype.to_string ty)
                  m.Catalog.parameters))
            (Mood_model.Mtype.to_string m.Catalog.return_type)
            source
      | None -> ())
    (Fm.moodc_sources t.funcs);
  List.iter
    (fun (cls, attr, kind) ->
      pr "CREATE %s INDEX ON %s (%s);\n"
        (match kind with `Btree -> "BTREE" | `Hash -> "HASH")
        cls attr)
    (Catalog.indexes_list t.cat);
  Buffer.contents buf

(* Splits a script at top-level ';' — brace depth and quotes aware, so
   MoodC bodies and string literals survive intact. *)
let split_statements source =
  let n = String.length source in
  let out = ref [] and start = ref 0 in
  let depth = ref 0 and in_string = ref false in
  for i = 0 to n - 1 do
    match source.[i] with
    | '\'' -> in_string := not !in_string
    | '{' when not !in_string -> incr depth
    | '}' when not !in_string -> decr depth
    | ';' when (not !in_string) && !depth = 0 ->
        out := String.sub source !start (i - !start) :: !out;
        start := i + 1
    | _ -> ()
  done;
  if !start < n then out := String.sub source !start (n - !start) :: !out;
  List.rev !out
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")

let exec_script t source =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | stmt :: rest -> begin
        match exec t stmt with
        | Ok r -> go (r :: acc) rest
        | Error m -> Error (Printf.sprintf "in %S: %s" stmt m)
      end
  in
  go [] (split_statements source)

(* ------------------------------------------------------------------ *)
(* Backup / restore                                                    *)

let snapshot t =
  List.filter_map
    (fun (info : Catalog.class_info) ->
      if info.Catalog.kind = Catalog.Class then begin
        let ext = Catalog.own_extent t.cat info.Catalog.class_name in
        let contents =
          Mood_storage.Extent.fold ext ~init:[] ~f:(fun acc slot v -> (slot, v) :: acc)
        in
        Some (info.Catalog.class_name, List.rev contents)
      end
      else None)
    (Catalog.all_classes t.cat)

(* Classes present in the database but absent from the snapshot are
   emptied too: installing a base image means "back to exactly that
   state". *)
let install_contents t snap =
  (* Installing a base image replaces history wholesale: drop the
     version chains (the clock survives — stamps never regress) and
     rewrite the heap without minting versions. *)
  let vs = Store.versions t.st in
  Version_store.reset vs;
  Version_store.without_tracking vs (fun () ->
      List.iter
        (fun (info : Catalog.class_info) ->
          if info.Catalog.kind = Catalog.Class then
            Catalog.replace_extent_contents t.cat info.Catalog.class_name
              (Option.value ~default:[] (List.assoc_opt info.Catalog.class_name snap)))
        (Catalog.all_classes t.cat))

let restore t snap =
  (* Validate the schema covers the snapshot before touching anything. *)
  List.iter (fun (cls, _) -> ignore (Catalog.own_extent t.cat cls)) snap;
  install_contents t snap;
  Catalog.rebuild_indexes t.cat;
  analyze t

(* The class <-> heap-file-id correspondence both sides of replication
   need to translate shipped records (file ids are
   allocation-order-dependent and differ across nodes). *)
let class_files t =
  List.filter_map
    (fun (info : Catalog.class_info) ->
      if info.Catalog.kind = Catalog.Class then
        Some
          ( info.Catalog.class_name,
            Mood_storage.Heap_file.file_id
              (Mood_storage.Extent.heap (Catalog.own_extent t.cat info.Catalog.class_name)) )
      else None)
    (Catalog.all_classes t.cat)

(* ------------------------------------------------------------------ *)
(* Two-phase commit, participant side. PREPARE force-writes a vote and
   freezes the transaction: it holds its locks, survives client
   disconnects and crashes (in-doubt), and only a coordinator DECIDE —
   or recovery's presumed-abort resolution — finishes it. *)

let session_txn_prepared s = s.stxn_prepared

let prepare_session_txn t s ~gid =
  if not s.stxn_open then Error "PREPARE: transaction is not open"
  else if s.stxn_prepared <> None then Error "PREPARE: transaction is already prepared"
  else if List.mem_assoc gid t.prepared then
    Error (Printf.sprintf "PREPARE: gid %d is already in use" gid)
  else begin
    let wal = Store.wal t.st in
    ignore (Wal.append wal (Wal.Prepare { txn = s.stxn_id; gid }));
    (* The vote is a promise: it must be durable before it is spoken. *)
    Wal.flush wal;
    s.stxn_prepared <- Some gid;
    t.prepared <- (gid, s) :: t.prepared;
    Metrics.incr t.counters.c_prepares;
    Ok ()
  end

let decide_txn t ~gid ~commit =
  match List.assoc_opt gid t.prepared with
  | None ->
      (* Presumed abort: an unknown gid was either never prepared here
         or already resolved — both answers are final and idempotent. *)
      `Unknown
  | Some s ->
      if commit then begin
        commit_session_txn t s;
        `Committed
      end
      else begin
        abort_session_txn t s;
        `Aborted
      end

let indoubt_txns t = List.map (fun (gid, s) -> (gid, s.stxn_id)) t.prepared

let exec_in_txn t s source =
  if not s.stxn_open then Error (Txn_fail "transaction is not open")
  else if s.stxn_prepared <> None then
    Error (Txn_fail "transaction is prepared: awaiting coordinator decision")
  else run_statement t (Session s) ~cache:true source

let active_transactions t = t.active_txns

(* ------------------------------------------------------------------ *)
(* Observability surface                                               *)

let metrics t = t.metrics

let metrics_snapshot t = Metrics.snapshot t.metrics

let set_metrics_enabled t on = Metrics.set_enabled t.metrics on

let set_slow_query_threshold t threshold =
  (match threshold with
  | Some s when s < 0. -> invalid_arg "set_slow_query_threshold: negative threshold"
  | _ -> ());
  t.slow_threshold <- threshold

let slow_query_threshold t = t.slow_threshold

let slow_queries t = t.slow_log

let clear_slow_queries t = t.slow_log <- []

(* ------------------------------------------------------------------ *)
(* ARIES-lite checkpoint / restart                                     *)

let checkpoint t =
  let wal = Store.wal t.st in
  (* Sharp checkpoint: force dirty pages and the log tail, then record
     the active-transaction table. The base image is installed only
     after the checkpoint record is durable — a crash mid-checkpoint
     leaves the previous checkpoint in force. *)
  Mood_storage.Buffer_pool.flush (Store.buffer t.st);
  (* Version GC rides the checkpoint: prune chains below the oldest
     live snapshot before imaging the heap. *)
  Version_store.gc (versions t);
  let snap = snapshot t in
  let lsn = Wal.append wal (Wal.Checkpoint t.active_txns) in
  Wal.flush wal;
  t.last_checkpoint <- Some (snap, lsn)

(* Replica-side MVCC hooks: a pulled commit batch applies as one unit
   stamped with the primary's commit LSN, so replica snapshots are
   consistent-as-of-applied_lsn; a bootstrap image bumps the clock to
   the snapshot LSN; scrubbing/undo passes must not mint versions. *)
let apply_committed t ~lsn records =
  Version_store.with_commit_stamp (versions t) lsn (fun () ->
      List.iter (Catalog.put_image t.cat ~reindex:false Catalog.After) records)

let bump_commit_stamp t lsn = Version_store.bump_stamp (versions t) lsn

let without_version_tracking t f = Version_store.without_tracking (versions t) f

let gc_versions t = Version_store.gc (versions t)

let recover t =
  (* Spill partitions orphaned by the crash are dead weight: drop them
     (and their buffered pages) before replaying history. The crashed
     sessions' locks and snapshots died with them. *)
  Store.purge_temp_files t.st;
  Lock.reset (Store.locks t.st);
  let wal = Store.wal t.st in
  let vs = versions t in
  Version_store.drop_snapshots vs;
  let checkpoint_lsn =
    match t.last_checkpoint with
    | Some (snap, lsn) ->
        install_contents t snap;
        lsn
    | None ->
        (* No durable base image: history is rebuilt from the log
           alone, so only transactional (WAL-logged) effects survive. *)
        install_contents t [];
        0
  in
  let analysis =
    Version_store.without_tracking vs (fun () ->
        Wal.recover wal ~checkpoint_lsn
          ~redo:(Catalog.put_image t.cat ~reindex:false Catalog.After)
          ~undo:(Catalog.put_image t.cat ~reindex:false Catalog.Before))
  in
  (* Post-crash commits must stamp above everything in the surviving
     log, so snapshots taken before the crash could never (if one
     impossibly outlived it) see new history. *)
  Version_store.bump_stamp vs (Wal.last_lsn wal);
  t.active_txns <- [];
  (* Fresh transaction ids must not collide with ids already in the
     surviving log (a restarted process starts counting at 1 again). *)
  let max_txn =
    List.fold_left
      (fun acc (_, r) ->
        match Wal.txn_of r with Some id -> max acc id | None -> acc)
      0 (Wal.records_with_lsn wal)
  in
  if t.next_txn <= max_txn then t.next_txn <- max_txn + 1;
  (* Re-register in-doubt transactions as live prepared session
     transactions: their redone effects stay in the image, their write
     locks are re-acquired so conflicting statements queue behind them,
     and their fate still belongs to the coordinator. *)
  t.prepared <- [];
  let files = class_files t in
  Hashtbl.iter
    (fun txn gid ->
      let s =
        { stxn_id = txn;
          stxn_lock = Lock.begin_txn (Store.locks t.st);
          stxn_open = true;
          stxn_view = None;
          stxn_prepared = Some gid
        }
      in
      let undo = Wal.undo_records wal txn in
      let classes =
        List.sort_uniq compare
          (List.filter_map
             (fun r ->
               match r with
               | Wal.Insert { file; _ } | Wal.Delete { file; _ }
               | Wal.Update { file; _ } ->
                   List.find_map
                     (fun (cls, f) -> if f = file then Some cls else None)
                     files
               | _ -> None)
             undo)
      in
      (match with_locks t (Session s) classes ignore with
      | Ok () -> ()
      | Error _ ->
          failwith
            (Printf.sprintf "Db.recover: in-doubt transaction %d cannot re-take its extent locks" txn));
      (* Re-chain the MVCC pre-images: the redo pass ran without
         version tracking, so the in-doubt after-images sit in the
         heap with no chain — a snapshot SELECT would read data whose
         commit is still undecided. Replaying the transaction's own
         WAL before-images as [Pending txn] writes (oldest first, so
         each slot chains its pre-transaction value) makes snapshot
         readers see the pre-2PC state until the coordinator's
         decision stamps (commit) or pops (abort) the chain — the
         same visibility a live prepared transaction has. *)
      List.iter
        (fun r ->
          let mint ~file ~slot before =
            if Catalog.extent_of_file t.cat file <> None then
              Version_store.record_write vs ~txn ~file ~slot
                ~before:(fun () -> before) ()
          in
          match r with
          | Wal.Insert { file; payload; _ } ->
              let slot, _ = Mood_storage.Extent.decode payload in
              mint ~file ~slot None
          | Wal.Update { file; before; _ } | Wal.Delete { file; before; _ } ->
              let slot, value = Mood_storage.Extent.decode before in
              mint ~file ~slot (Some value)
          | _ -> ())
        (List.rev undo);
      t.prepared <- (gid, s) :: t.prepared;
      t.active_txns <- txn :: t.active_txns;
      Metrics.incr t.counters.c_indoubt_recovered)
    analysis.Wal.a_indoubt;
  Catalog.rebuild_indexes t.cat;
  analyze t;
  analysis
