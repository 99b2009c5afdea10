module Ast = Mood_sql.Ast
module Value = Mood_model.Value
module Oid = Mood_model.Oid
module Catalog = Mood_catalog.Catalog
module Collection = Mood_algebra.Collection
module Plan = Mood_optimizer.Plan
module Dicts = Mood_optimizer.Dicts
module Optimizer = Mood_optimizer.Optimizer
module Join_cost = Mood_cost.Join_cost
module Heap = Mood_util.Heap
module Btree = Mood_storage.Btree
module Hash_index = Mood_storage.Hash_index
module Disk = Mood_storage.Disk
module Buffer_pool = Mood_storage.Buffer_pool

type result = { rows : Eval.row list; projected : Value.t list option }

type mode = Compiled | Interpreted

(* How predicates and expressions embedded in a plan are lowered into
   per-row functions: the compiled lowering builds closures once, the
   interpreted lowering defers to [Eval] on every row (the oracle). *)
type lowering = {
  lexpr : Ast.expr -> Compile.expr_fn;
  lpred : Ast.predicate -> Compile.pred_fn;
}

let lowering_of = function
  | Compiled -> { lexpr = Compile.expr; lpred = Compile.predicate }
  | Interpreted -> { lexpr = Compile.interpret_expr; lpred = Compile.interpret_predicate }

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

let item_of env oid =
  Option.map
    (fun value -> { Collection.oid = Some oid; value })
    (Catalog.get_object env.Eval.catalog oid)

let refs_of_field = function
  | Value.Ref o -> [ o ]
  | Value.Set xs | Value.List xs ->
      List.filter_map (function Value.Ref o -> Some o | _ -> None) xs
  | Value.Null | Value.Int _ | Value.Long _ | Value.Float _ | Value.Str _
  | Value.Char _ | Value.Bool _ | Value.Tuple _ ->
      []

(* A "simple" right side of a join: one class access with an optional
   residual predicate, which pointer-chasing joins can evaluate lazily
   per fetched object instead of pre-scanning the extent. *)
type simple_source = {
  s_class : string;
  s_var : string;
  s_minus : string list;
  s_pred : Ast.predicate option;
}

let rec as_simple = function
  | Plan.Bind { class_name; var; minus; every = _ } ->
      Some { s_class = class_name; s_var = var; s_minus = minus; s_pred = None }
  | Plan.Select { source; pred; var = _ } -> begin
      match as_simple source with
      | Some ({ s_pred = None; _ } as s) -> Some { s with s_pred = Some pred }
      | Some _ | None -> None
    end
  | Plan.Named_obj _ | Plan.Ind_sel _ | Plan.Path_ind_sel _ | Plan.Join _
  | Plan.Project _ | Plan.Group _ | Plan.Sort _ | Plan.Union _ | Plan.Vscan _ ->
      None

let class_matches env ~class_name ~minus oid =
  match Catalog.class_of_object env.Eval.catalog oid with
  | None -> false
  | Some info ->
      Catalog.is_subclass_of env.Eval.catalog ~sub:info.Catalog.class_name
        ~super:class_name
      && not
           (List.exists
              (fun m ->
                Catalog.is_subclass_of env.Eval.catalog ~sub:info.Catalog.class_name
                  ~super:m)
              minus)

let rec conjuncts = function
  | Ast.And (a, b) -> conjuncts a @ conjuncts b
  | p -> [ p ]

(* The first equality conjunct whose sides split across the join's
   variable scopes: the probe key of the value joins. Only candidate
   generation depends on it — the full predicate is re-applied to every
   candidate pair, so one conjunct suffices for correctness. *)
let equi_pred ~left_vars ~right_vars pred =
  let subset vs scope = vs <> [] && List.for_all (fun v -> List.mem v scope) vs in
  List.find_map
    (function
      | Ast.Cmp (Ast.Eq, a, b) ->
          let va = Ast.expr_vars a and vb = Ast.expr_vars b in
          if subset va left_vars && subset vb right_vars then Some (a, b)
          else if subset vb left_vars && subset va right_vars then Some (b, a)
          else None
      | _ -> None)
    (conjuncts pred)

(* The pointer shape of a join predicate: [lv.attr = rv.self]. *)
let pointer_pred = function
  | Ast.Cmp (Ast.Eq, Ast.Path (lv, (_ :: _ as path)), Ast.Path (rv, [])) ->
      Some (lv, path, rv)
  | Ast.Cmp (Ast.Eq, Ast.Path (rv, []), Ast.Path (lv, (_ :: _ as path))) ->
      Some (lv, path, rv)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Compiled plans                                                      *)

(* The compile-once mirror of [Plan.node]: plan analysis (simple-source
   detection, pointer-predicate shape, variable scoping, aggregate
   keys, projection labels) and predicate/expression lowering all
   happen in [prepare]; running a prepared plan touches only data. *)

type csimple = {
  c_class : string;
  c_var : string;
  c_minus : string list;
  c_pred : Compile.pred_fn option;
}

type cagg = {
  a_key : string;  (** the [#agg] field label, rendered once *)
  a_fn : Ast.agg_fn;
  a_arg : Compile.expr_fn option;
}

(* Every compiled operator carries a small integer id assigned in
   pre-order during [prepare]; an EXPLAIN ANALYZE run indexes its
   per-operator stats array by that id, so the traced hot path touches
   no hash tables. *)
type cnode = { c_id : int; c_op : cop }

and cop =
  | CBind of { class_name : string; var : string; minus : string list }
  | CNamed_obj of { name : string; var : string }
  | CInd_sel of { simple : csimple; preds : Plan.indexed_pred list }
  | CPath_ind_sel of {
      class_name : string;
      var : string;
      path : string list;
      cmp : Ast.comparison;
      constant : Value.t;
    }
  | CSelect of { source : cnode; pred : Compile.pred_fn }
  | CJoin of {
      left : cnode;
      right : cnode;
      right_simple : csimple option;
      method_ : Join_cost.method_choice;
      pointer : (string * string list * string) option;
          (** [lv.path = rv.self], already checked against the sides'
              variable scopes *)
      equi : (Compile.expr_fn * Compile.expr_fn) option;
          (** compiled (left key, right key) of the first equality
              conjunct splitting across the sides — the probe key of the
              value joins (the full predicate is still re-applied) *)
      keep : Value_join.keep * Value_join.keep;
          (** what the value joins' (left, right) entries keep of each
              object: the statement's [Plan.reads] *)
      pred : Compile.pred_fn;
    }
  | CProject of { source : cnode }
  | CGroup of {
      source : cnode;
      by : Compile.expr_fn list;
      having : Compile.pred_fn option;
      aggregates : cagg list;
    }
  | CSort of { source : cnode; keys : (Compile.expr_fn * Ast.order_direction) list }
  | CUnion of cnode list
  | CVscan of {
      class_name : string;
      var : string;
      minus : string list;
      pred : Ast.predicate option;  (** bound to column arrays per batch *)
      keys : Ast.expr list;
      aggs : Vectorize.agg_spec list;
      having : Compile.pred_fn option;  (** over the group rows *)
    }

(* The operator skeleton: one entry per compiled node, in pre-order,
   describing the plan shape for reporting (label, nesting depth, and
   the optimizer's cardinality estimate when a [card] callback was
   supplied to [prepare]). *)
type op_skel = {
  sk_id : int;
  sk_depth : int;
  sk_label : string;
  sk_est : float option;
}

type prepared = {
  p_root : cnode;
  p_skels : op_skel array; (* indexed by [c_id] = pre-order position *)
  p_project : (string * Compile.expr_fn) list option;
      (** top-of-plan SELECT list: labels precomputed *)
}

let compile_simple lower (s : simple_source) =
  { c_class = s.s_class;
    c_var = s.s_var;
    c_minus = s.s_minus;
    c_pred = Option.map lower.lpred s.s_pred
  }

let compile_agg lower agg =
  match agg with
  | Ast.Aggregate (fn, inner) ->
      { a_key = Ast.expr_to_string agg; a_fn = fn; a_arg = Option.map lower.lexpr inner }
  | _ -> failwith "compile_agg: not an aggregate expression"

(* Compilation context: numbers nodes in pre-order and collects the
   skeleton rows the EXPLAIN ANALYZE printer will need. [card] is the
   optimizer's per-node cardinality estimator (threaded in by [Db] so
   the executor stays ignorant of statistics). *)
type compile_ctx = {
  lower : lowering;
  ctx_card : (Plan.node -> float) option;
  ctx_reads : Plan.reads;
  mutable next_id : int;
  mutable skels_rev : op_skel list;
}

let cmp_str = Ast.comparison_to_string

let indexed_pred_label (p : Plan.indexed_pred) =
  Printf.sprintf "%s %s %s" p.Plan.ip_attr (cmp_str p.Plan.ip_cmp)
    (Value.to_string p.Plan.ip_constant)

(* Compact one-line operator labels, mirroring [Plan.render]'s operator
   names so EXPLAIN and EXPLAIN ANALYZE read alike. *)
let label_of (node : Plan.node) =
  match node with
  | Plan.Bind { class_name; var; every; minus } ->
      Printf.sprintf "BIND(%s%s%s, %s)"
        (if every then "EVERY " else "")
        class_name
        (String.concat "" (List.map (fun m -> " - " ^ m) minus))
        var
  | Plan.Named_obj { name; var } -> Printf.sprintf "NAMED(%s, %s)" name var
  | Plan.Ind_sel { source; preds } ->
      let scope =
        match as_simple source with
        | Some s -> s.s_class ^ " " ^ s.s_var ^ ": "
        | None -> ""
      in
      Printf.sprintf "INDSEL(%s%s)" scope
        (String.concat ", " (List.map indexed_pred_label preds))
  | Plan.Path_ind_sel { var; path; cmp; constant; class_name = _ } ->
      Printf.sprintf "PATH_INDSEL(%s %s %s)"
        (Ast.path_to_string var path)
        (cmp_str cmp) (Value.to_string constant)
  | Plan.Select { pred; _ } ->
      Printf.sprintf "SELECT(%s)" (Ast.predicate_to_string pred)
  | Plan.Join { method_; pred; _ } ->
      Printf.sprintf "JOIN[%s](%s)"
        (Format.asprintf "%a" Join_cost.pp_method method_)
        (Ast.predicate_to_string pred)
  | Plan.Project _ -> "PROJECT"
  | Plan.Group { by; _ } ->
      if by = [] then "GROUP"
      else
        Printf.sprintf "GROUP(BY %s)"
          (String.concat ", " (List.map Ast.expr_to_string by))
  | Plan.Sort _ -> "SORT"
  | Plan.Union _ -> "UNION"
  | Plan.Vscan { class_name; var; every; minus; pred; by; having; aggregates } ->
      Printf.sprintf "VSCAN(%s%s%s, %s%s%s%s%s)"
        (if every then "EVERY " else "")
        class_name
        (String.concat "" (List.map (fun m -> " - " ^ m) minus))
        var
        (match pred with
        | Some p -> ", " ^ Ast.predicate_to_string p
        | None -> "")
        (match by with
        | [] -> ""
        | es -> ", BY " ^ String.concat ", " (List.map Ast.expr_to_string es))
        (match aggregates with
        | [] -> ""
        | es ->
            ", [" ^ String.concat ", " (List.map Ast.expr_to_string es) ^ "]")
        (match having with
        | Some h -> ", HAVING " ^ Ast.predicate_to_string h
        | None -> "")

(* Allocate the node's pre-order id and skeleton row, then build the
   operator (children number themselves after their parent). *)
let emit ctx ~depth node op_of =
  let id = ctx.next_id in
  ctx.next_id <- id + 1;
  ctx.skels_rev <-
    { sk_id = id;
      sk_depth = depth;
      sk_label = label_of node;
      sk_est = Option.map (fun f -> f node) ctx.ctx_card
    }
    :: ctx.skels_rev;
  { c_id = id; c_op = op_of () }

let rec compile_node ctx ~depth (node : Plan.node) : cnode =
  let lower = ctx.lower in
  emit ctx ~depth node (fun () ->
      match node with
      | Plan.Bind { class_name; var; minus; every = _ } ->
          CBind { class_name; var; minus }
      | Plan.Named_obj { name; var } -> CNamed_obj { name; var }
      | Plan.Ind_sel { source; preds } -> begin
          (* The source collapses into the INDSEL operator itself
             (index probe + residual filter), so it gets no id of its
             own — the skeleton mirrors the compiled tree, not the
             plan. *)
          match as_simple source with
          | None -> failwith "Ind_sel over a non-class source"
          | Some s -> CInd_sel { simple = compile_simple lower s; preds }
        end
      | Plan.Path_ind_sel { class_name; var; path; cmp; constant } ->
          CPath_ind_sel { class_name; var; path; cmp; constant }
      | Plan.Select { source; pred; var = _ } ->
          CSelect
            { source = compile_node ctx ~depth:(depth + 1) source;
              pred = lower.lpred pred
            }
      | Plan.Join { left; right; method_; pred } ->
          let pointer =
            match pointer_pred pred with
            | Some (lv, path, rv)
              when List.mem lv (Plan.vars left) && List.mem rv (Plan.vars right) ->
                Some (lv, path, rv)
            | Some _ | None -> None
          in
          let equi =
            Option.map
              (fun (a, b) -> (lower.lexpr a, lower.lexpr b))
              (equi_pred ~left_vars:(Plan.vars left) ~right_vars:(Plan.vars right) pred)
          in
          let keep side =
            List.filter_map
              (fun var -> Option.map (fun attrs -> (var, attrs)) (ctx.ctx_reads var))
              (Plan.vars side)
          in
          let cleft = compile_node ctx ~depth:(depth + 1) left in
          let cright = compile_node ctx ~depth:(depth + 1) right in
          CJoin
            { left = cleft;
              right = cright;
              right_simple = Option.map (compile_simple lower) (as_simple right);
              method_;
              pointer;
              equi;
              keep = (keep left, keep right);
              pred = lower.lpred pred
            }
      | Plan.Project { source; items = _ } ->
          (* the SELECT list is applied at the top, via [p_project] *)
          CProject { source = compile_node ctx ~depth:(depth + 1) source }
      | Plan.Group { source; by; having; aggregates } ->
          CGroup
            { source = compile_node ctx ~depth:(depth + 1) source;
              by = List.map lower.lexpr by;
              having = Option.map lower.lpred having;
              aggregates = List.map (compile_agg lower) aggregates
            }
      | Plan.Sort { source; keys } ->
          CSort
            { source = compile_node ctx ~depth:(depth + 1) source;
              keys = List.map (fun (e, dir) -> (lower.lexpr e, dir)) keys
            }
      | Plan.Union nodes ->
          CUnion (List.map (compile_node ctx ~depth:(depth + 1)) nodes)
      | Plan.Vscan { class_name; var; every = _; minus; pred; by; having; aggregates } ->
          CVscan
            { class_name;
              var;
              minus;
              pred;
              keys = by;
              having = Option.map lower.lpred having;
              aggs =
                List.map
                  (fun agg ->
                    match agg with
                    | Ast.Aggregate (fn, inner) ->
                        { Vectorize.g_key = Ast.expr_to_string agg; g_fn = fn; g_arg = inner }
                    | _ -> failwith "Vscan aggregate is not an aggregate expression")
                  aggregates
            })

(* Fetch a referenced object through a simple source: class membership
   plus the residual predicate. *)
let fetch_simple env (s : csimple) oid =
  if not (class_matches env ~class_name:s.c_class ~minus:s.c_minus oid) then None
  else
    match item_of env oid with
    | None -> None
    | Some item -> begin
        match s.c_pred with
        | None -> Some item
        | Some pred -> if pred env [ (s.c_var, item) ] then Some item else None
      end

(* ------------------------------------------------------------------ *)
(* Plan evaluation                                                     *)

(* The operator contract: [produce tr env node k] pushes each row the
   operator makes to its consumer [k], as it makes it, and returns when
   its input is exhausted. Rows therefore die young: a scan's decoded
   object is filtered, joined or folded before the next one is read.
   Only what an operator needs whole is held: a SORT's input, a
   GROUP's first member and accumulators per group, the right side of
   a join that probes it, and the value joins' hash builds, sort runs
   and Grace partitions. *)

(* Per-operator actuals accumulated by a traced run. Charges are
   {e inclusive}: an operator's time and I/O include its inputs', like
   PostgreSQL's EXPLAIN ANALYZE, but not its consumer's. *)
type op_stats = {
  mutable st_loops : int;
  mutable st_rows : int;
  mutable st_time : float; (* wall seconds, inclusive *)
  mutable st_seq_reads : int;
  mutable st_rnd_reads : int;
  mutable st_writes : int;
  mutable st_buf_hits : int;
  mutable st_buf_misses : int;
}

type tracer = {
  t_stats : op_stats array; (* indexed by [c_id] *)
  t_disk : Disk.t option;
  t_buffer : Buffer_pool.t option;
  t_origin : float; (* the clock at the start of the run *)
}

let fresh_op_stats () =
  { st_loops = 0;
    st_rows = 0;
    st_time = 0.;
    st_seq_reads = 0;
    st_rnd_reads = 0;
    st_writes = 0;
    st_buf_hits = 0;
    st_buf_misses = 0
  }

(* Add [sign] times the clock and the counters into [st]: -1 when the
   operator's [produce] call starts or its consumer returns, +1 when it
   hands a row to its consumer or returns, so [st] sums the call's time
   outside its consumer. The clock is read from the run's origin, so
   the sums stay small and exact. *)
let account t st sign =
  st.st_time <- st.st_time +. (float_of_int sign *. (Unix.gettimeofday () -. t.t_origin));
  Option.iter
    (fun disk ->
      let c = Disk.counters disk in
      st.st_seq_reads <- st.st_seq_reads + (sign * c.Disk.sequential_reads);
      st.st_rnd_reads <- st.st_rnd_reads + (sign * c.Disk.random_reads);
      st.st_writes <- st.st_writes + (sign * c.Disk.writes))
    t.t_disk;
  Option.iter
    (fun pool ->
      let s = Buffer_pool.stats pool in
      st.st_buf_hits <- st.st_buf_hits + (sign * s.Buffer_pool.hits);
      st.st_buf_misses <- st.st_buf_misses + (sign * s.Buffer_pool.misses))
    t.t_buffer

(* A group's running state for one aggregate: the value a fold over
   its member list in input order would give, taken one row at a time.
   The row engine keeps this fold apart from [Vectorize]'s
   accumulators, which the scan oracle checks against it. *)
type accum = {
  mutable ac_n : int; (* COUNT; AVG's numeric count *)
  mutable ac_fsum : float; (* AVG *)
  mutable ac_sum : Mood_model.Operand.t option; (* SUM *)
  mutable ac_best : Value.t option; (* MIN, MAX *)
}

let fresh_accum _ = { ac_n = 0; ac_fsum = 0.; ac_sum = None; ac_best = None }

(* Fold one row in. NULL inner values do not contribute; SUM folds
   through the operand layer, AVG skips non-numerics, MIN/MAX keep the
   earlier value on incomparables. *)
let accumulate env agg acc row =
  let v = match agg.a_arg with None -> Value.Int 1 | Some f -> f env row in
  match v, agg.a_fn with
  | Value.Null, _ -> ()
  | _, Ast.Count -> acc.ac_n <- acc.ac_n + 1
  | _, Ast.Sum ->
      let o = Mood_model.Operand.of_value v in
      acc.ac_sum <-
        Some (match acc.ac_sum with None -> o | Some s -> Mood_model.Operand.add s o)
  | _, Ast.Avg -> begin
      match Value.as_float v with
      | None -> ()
      | Some f ->
          acc.ac_fsum <- acc.ac_fsum +. f;
          acc.ac_n <- acc.ac_n + 1
    end
  | _, (Ast.Min | Ast.Max) ->
      acc.ac_best <-
        Some (match acc.ac_best with None -> v | Some a -> Group_table.better agg.a_fn a v)

(* Empty inputs give COUNT 0 and NULL for the rest. *)
let final_value agg acc =
  match agg.a_fn with
  | Ast.Count -> Value.Int acc.ac_n
  | Ast.Sum -> (
      match acc.ac_sum with None -> Value.Null | Some s -> Mood_model.Operand.to_value s)
  | Ast.Avg ->
      if acc.ac_n = 0 then Value.Null
      else Value.Float (acc.ac_fsum /. float_of_int acc.ac_n)
  | Ast.Min | Ast.Max -> Option.value acc.ac_best ~default:Value.Null

let compare_rows env keys a b =
  let rec go = function
    | [] -> 0
    | (f, dir) :: rest -> begin
        let va = f env a and vb = f env b in
        let c =
          match Eval.compare_values va vb with
          | Some c -> c
          | None -> begin
              (* Nulls and incomparables sort last. *)
              match va, vb with
              | Value.Null, Value.Null -> 0
              | Value.Null, _ -> 1
              | _, Value.Null -> -1
              | _, _ -> 0
            end
        in
        let c = match dir with Ast.Asc -> c | Ast.Desc -> -c in
        if c <> 0 then c else go rest
      end
  in
  go keys

(* UNION's duplicate identity: each binding's OID, or its value for a
   transient item. *)
let dedup_key row =
  String.concat "|"
    (List.map
       (fun (var, (item : Collection.item)) ->
         var ^ "="
         ^
         match item.Collection.oid with
         | Some oid -> Oid.to_string oid
         | None -> Value.to_string item.Collection.value)
       (List.sort (fun (a, _) (b, _) -> String.compare a b) row))

let range_oids bt ~lo ~hi = List.concat_map snd (Btree.range bt ~lo ~hi)

let probe_index index (p : Plan.indexed_pred) =
  match index, p.Plan.ip_cmp with
  | Catalog.Btree_index bt, Ast.Eq -> Btree.search bt ~key:p.Plan.ip_constant
  | Catalog.Btree_index bt, Ast.Lt ->
      range_oids bt ~lo:Btree.Unbounded ~hi:(Btree.Exclusive p.Plan.ip_constant)
  | Catalog.Btree_index bt, Ast.Le ->
      range_oids bt ~lo:Btree.Unbounded ~hi:(Btree.Inclusive p.Plan.ip_constant)
  | Catalog.Btree_index bt, Ast.Gt ->
      range_oids bt ~lo:(Btree.Exclusive p.Plan.ip_constant) ~hi:Btree.Unbounded
  | Catalog.Btree_index bt, Ast.Ge ->
      range_oids bt ~lo:(Btree.Inclusive p.Plan.ip_constant) ~hi:Btree.Unbounded
  | Catalog.Btree_index bt, Ast.Ne ->
      (* Index gives no benefit for <>; full key scan. *)
      let out = ref [] in
      Btree.iter bt (fun key postings ->
          if Value.compare key p.Plan.ip_constant <> 0 then out := postings @ !out);
      !out
  | Catalog.Hash_index h, Ast.Eq -> Hash_index.search h ~key:p.Plan.ip_constant
  | Catalog.Hash_index _, (Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) ->
      failwith "hash index probed with a non-equality comparison"

(* OIDs reached from [item] along [path]'s last reference hop;
   intermediate hops are dereferenced (charging random reads), the
   final hop's identifiers are returned unfetched. *)
let rec last_hop_oids env (item : Collection.item) = function
  | [] -> []
  | [ attr ] -> begin
      match Value.tuple_get item.Collection.value attr with
      | Some field -> refs_of_field field
      | None -> []
    end
  | attr :: rest -> begin
      match Value.tuple_get item.Collection.value attr with
      | Some field ->
          List.concat_map
            (fun oid ->
              match item_of env oid with
              | Some next -> last_hop_oids env next rest
              | None -> [])
            (refs_of_field field)
      | None -> []
    end

let rec produce tr env (node : cnode) (k : Eval.row -> unit) =
  match tr with
  | None -> produce_op tr env node.c_op k
  | Some t ->
      (* Charge the operator its call minus its consumer: from the
         call to the first push, from each push's return to the next,
         and from the last to the return. *)
      let st = t.t_stats.(node.c_id) in
      st.st_loops <- st.st_loops + 1;
      account t st (-1);
      produce_op tr env node.c_op (fun row ->
          st.st_rows <- st.st_rows + 1;
          account t st 1;
          k row;
          account t st (-1));
      account t st 1

(* The rows of [node], in order: for the inputs an operator needs
   whole. *)
and collect tr env node =
  let acc = ref [] in
  produce tr env node (fun row -> acc := row :: !acc);
  List.rev !acc

and produce_op tr env (op : cop) k =
  match op with
  | CBind { class_name; var; minus } ->
      Catalog.scan_extent env.Eval.catalog ~every:true ~minus class_name
        ~f:(fun oid value -> k [ (var, { Collection.oid = Some oid; value }) ])
  | CNamed_obj { name; var } -> begin
      match Catalog.named_object env.Eval.catalog name with
      | None -> failwith (Printf.sprintf "unknown named object %s" name)
      | Some oid -> Option.iter (fun item -> k [ (var, item) ]) (item_of env oid)
    end
  | CInd_sel { simple = s; preds } ->
      let probe (p : Plan.indexed_pred) =
        match
          Catalog.find_index env.Eval.catalog ~class_name:s.c_class ~attr:p.Plan.ip_attr
        with
        | None -> None
        | Some index -> Some (probe_index index p)
      in
      let oid_sets = List.filter_map probe preds in
      let candidates =
        match oid_sets with
        | [] -> []
        | first :: rest ->
            List.fold_left
              (fun acc set -> List.filter (fun o -> List.exists (Oid.equal o) set) acc)
              first rest
      in
      (* Recheck indexed predicates against the fetched (possibly
         snapshot-resolved) value: postings are removed lazily under
         MVCC, and a writer's abort can leave new-value postings
         dangling — both surface here as stale candidates. *)
      let recheck item =
        List.for_all
          (fun (p : Plan.indexed_pred) ->
            match Value.tuple_get item.Collection.value p.Plan.ip_attr with
            | Some v -> Eval.cmp_values p.Plan.ip_cmp v p.Plan.ip_constant
            | None -> false)
          preds
      in
      List.iter
        (fun oid ->
          match fetch_simple env s oid with
          | Some item when recheck item -> k [ (s.c_var, item) ]
          | Some _ | None -> ())
        (List.sort_uniq Oid.compare candidates)
  | CPath_ind_sel { class_name; var; path; cmp; constant } -> begin
      match Catalog.find_path_index env.Eval.catalog ~class_name ~path with
      | None ->
          failwith
            (Printf.sprintf "no path index on %s.%s" class_name (String.concat "." path))
      | Some px ->
          let module Jx = Mood_storage.Join_index in
          let module Bt = Mood_storage.Btree in
          let heads =
            match cmp with
            | Ast.Eq -> Jx.Path.probe px ~terminal:constant
            | Ast.Lt -> Jx.Path.probe_range px ~lo:Bt.Unbounded ~hi:(Bt.Exclusive constant)
            | Ast.Le -> Jx.Path.probe_range px ~lo:Bt.Unbounded ~hi:(Bt.Inclusive constant)
            | Ast.Gt -> Jx.Path.probe_range px ~lo:(Bt.Exclusive constant) ~hi:Bt.Unbounded
            | Ast.Ge -> Jx.Path.probe_range px ~lo:(Bt.Inclusive constant) ~hi:Bt.Unbounded
            | Ast.Ne ->
                Jx.Path.probe_range px ~lo:Bt.Unbounded ~hi:(Bt.Exclusive constant)
                @ Jx.Path.probe_range px ~lo:(Bt.Exclusive constant) ~hi:Bt.Unbounded
          in
          List.iter
            (fun oid -> Option.iter (fun item -> k [ (var, item) ]) (item_of env oid))
            (List.sort_uniq Oid.compare heads)
    end
  | CSelect { source; pred } -> produce tr env source (fun row -> if pred env row then k row)
  | CJoin { left; right; right_simple; method_; pointer; equi; keep; pred } ->
      join tr env left right right_simple method_ pointer equi keep pred k
  | CProject { source } -> produce tr env source k
  | CGroup { source; by; having; aggregates } ->
      let aggs = Array.of_list aggregates in
      let tbl =
        Group_table.create ~labels:(List.map (fun agg -> agg.a_key) aggregates) ~fresh:fresh_accum
      in
      let fold g row =
        Group_table.keep_first g Fun.id row;
        Array.iteri (fun i agg -> accumulate env agg g.Group_table.accs.(i) row) aggs
      in
      begin
        match by with
        | [] ->
            (* one group, possibly empty *)
            produce tr env source (fold (Group_table.find tbl []))
        | _ :: _ ->
            produce tr env source (fun row ->
                fold (Group_table.find tbl (List.map (fun f -> f env row) by)) row)
      end;
      Group_table.iter_rows tbl
        ~final:(fun i acc -> final_value aggs.(i) acc)
        (fun row ->
          match having with
          | Some pred when not (pred env row) -> ()
          | Some _ | None -> k row)
  | CSort { source; keys } ->
      let cmp a b = compare_rows env keys a b in
      List.iter k (Heap.sort_with_runs ~cmp ~run_length:1024 (collect tr env source))
  | CUnion nodes ->
      let seen = Hashtbl.create 64 in
      List.iter
        (fun node ->
          produce tr env node (fun row ->
              let key = dedup_key row in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.replace seen key ();
                k row
              end))
        nodes
  | CVscan { class_name; var; minus; pred; keys; aggs; having } ->
      let emit =
        match having with
        | None -> k
        | Some having -> fun row -> if having env row then k row
      in
      Vectorize.scan env ~class_name ~var ~minus ~pred ~keys ~aggs ~emit

(* ---------------- Joins ---------------- *)

(* The right side, when a method needs it, is collected before the left
   side streams. *)
and join tr env left right right_simple method_ pointer equi (l_keep, r_keep) pred k =
  let each_left f = produce tr env left f in
  let nested_loop () =
    let right_rows = collect tr env right in
    each_left (fun l ->
        List.iter
          (fun r ->
            let merged = l @ r in
            if pred env merged then k merged)
          right_rows)
  in
  match method_ with
  | Join_cost.Hash_join | Join_cost.Grace_hash | Join_cost.Sort_merge
  | Join_cost.Fusion_join -> begin
      match equi with
      | Some (lkey, rkey) ->
          let store = Catalog.store env.Eval.catalog in
          Value_join.run method_ env ~store ~pred
            ~left:{ Value_join.rows = each_left; key = lkey; keep = l_keep }
            ~right:{ Value_join.rows = produce tr env right; key = rkey; keep = r_keep }
            ~emit:k
      | None ->
          (* No equality conjunct to key on (cross product / pure theta):
             degrade to the nested loop, visibly. *)
          Mood_obs.Metrics.incr (Value_join.counters env.Eval.metrics).Value_join.fallbacks;
          nested_loop ()
    end
  | Join_cost.Nested_loop -> nested_loop ()
  | Join_cost.Forward_traversal | Join_cost.Backward_traversal
  | Join_cost.Binary_join_index | Join_cost.Hash_partition -> begin
      match pointer with
      | None ->
          (* General theta join / cross product: nested loop. *)
          nested_loop ()
      | Some (lv, path, rv) -> begin
          (* Each left row with the OIDs its path's last hop reaches. *)
          let each_targets f =
            each_left (fun l ->
                match Value.assoc_name lv l with
                | None -> ()
                | Some item -> f l (last_hop_oids env item path))
          in
          match method_, right_simple with
          | ( (Join_cost.Forward_traversal | Join_cost.Hash_partition
              | Join_cost.Binary_join_index),
              Some s ) ->
              (* Fetch each referenced target through the simple source:
                 this charges the random page reads the forward-traversal
                 and hash-partition cost formulas model. A binary join
                 index's forward direction maps C objects to the D
                 objects the stored pointer names, so it chases the
                 pointer too; the index serves backward probes
                 ([Join_index.Binary]). *)
              each_targets (fun l oids ->
                  List.iter
                    (fun oid ->
                      Option.iter (fun target -> k (l @ [ (rv, target) ])) (fetch_simple env s oid))
                    oids)
          | ( (Join_cost.Forward_traversal | Join_cost.Hash_partition
              | Join_cost.Binary_join_index),
              None ) ->
              (* Probe the materialized right rows by OID. *)
              let by_oid = Hashtbl.create 64 in
              List.iter
                (fun r ->
                  match Value.assoc_name rv r with
                  | Some ({ Collection.oid = Some oid; _ } : Collection.item) ->
                      Hashtbl.replace by_oid oid r
                  | Some _ | None -> ())
                (collect tr env right);
              each_targets (fun l oids ->
                  List.iter
                    (fun oid -> Option.iter (fun r -> k (l @ r)) (Hashtbl.find_opt by_oid oid))
                    oids)
          | _, _ ->
              (* Scan-and-compare: for each left object's reference set,
                 compare against every right candidate (the k_c * fan *
                 k_d comparisons of Section 6.2). The last hop's OIDs are
                 compared unfetched, as the formula prices them; a
                 dangling or invisible target matches no right row, since
                 those come from the visible extent. *)
              let right_rows = collect tr env right in
              each_targets (fun l targets ->
                  List.iter
                    (fun r ->
                      match Value.assoc_name rv r with
                      | Some ({ Collection.oid = Some oid; _ } : Collection.item)
                        when List.exists (Oid.equal oid) targets ->
                          k (l @ r)
                      | Some _ | None -> ())
                    right_rows)
        end
    end

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let rec top_projection = function
  | Plan.Project { items; _ } -> Some items
  | Plan.Sort { source; _ } -> top_projection source
  | Plan.Bind _ | Plan.Named_obj _ | Plan.Ind_sel _ | Plan.Path_ind_sel _
  | Plan.Select _ | Plan.Join _ | Plan.Group _ | Plan.Union _ | Plan.Vscan _ ->
      None

let prepare ?(mode = Compiled) ?card node =
  let ctx =
    { lower = lowering_of mode;
      ctx_card = card;
      ctx_reads = Plan.reads node;
      next_id = 0;
      skels_rev = []
    }
  in
  let root = compile_node ctx ~depth:0 node in
  { p_root = root;
    (* pre-order ids, so the reversed push order is sorted by id *)
    p_skels = Array.of_list (List.rev ctx.skels_rev);
    p_project =
      Option.map
        (fun items ->
          List.map
            (fun (item : Ast.select_item) ->
              let label =
                match item.Ast.alias with
                | Some a -> a
                | None -> Ast.expr_to_string item.Ast.expr
              in
              (label, ctx.lower.lexpr item.Ast.expr))
            items)
        (top_projection node)
  }

let project_rows env p rows =
  Option.map
    (fun items ->
      List.map
        (fun row -> Value.Tuple (List.map (fun (label, f) -> (label, f env row)) items))
        rows)
    p.p_project

let run_prepared env p =
  let rows = collect None env p.p_root in
  { rows; projected = project_rows env p rows }

type op_report = {
  r_label : string;
  r_depth : int;
  r_est : float option;
  r_loops : int;
  r_rows : int;
  r_time : float;
  r_seq_reads : int;
  r_rnd_reads : int;
  r_writes : int;
  r_buf_hits : int;
  r_buf_misses : int;
}

let run_analyzed ?disk ?buffer env p =
  let stats = Array.init (Array.length p.p_skels) (fun _ -> fresh_op_stats ()) in
  let tr =
    Some
      { t_stats = stats; t_disk = disk; t_buffer = buffer; t_origin = Unix.gettimeofday () }
  in
  let rows = collect tr env p.p_root in
  let reports =
    Array.to_list
      (Array.map
         (fun sk ->
           let st = stats.(sk.sk_id) in
           { r_label = sk.sk_label;
             r_depth = sk.sk_depth;
             r_est = sk.sk_est;
             r_loops = st.st_loops;
             r_rows = st.st_rows;
             r_time = st.st_time;
             r_seq_reads = st.st_seq_reads;
             r_rnd_reads = st.st_rnd_reads;
             r_writes = st.st_writes;
             r_buf_hits = st.st_buf_hits;
             r_buf_misses = st.st_buf_misses
           })
         p.p_skels)
  in
  ({ rows; projected = project_rows env p rows }, reports)

let render_reports reports =
  let line r =
    let est = match r.r_est with Some e -> Printf.sprintf "%.1f" e | None -> "?" in
    Printf.sprintf "%s%s  (est=%s rows=%d loops=%d time=%.3fms seq=%d rnd=%d wr=%d hit=%d miss=%d)"
      (String.make (2 * r.r_depth) ' ')
      r.r_label est r.r_rows r.r_loops (r.r_time *. 1000.) r.r_seq_reads
      r.r_rnd_reads r.r_writes r.r_buf_hits r.r_buf_misses
  in
  String.concat "\n" (List.map line reports)

let run ?mode env node = run_prepared env (prepare ?mode node)

let run_query env opt_env q =
  let optimized = Optimizer.optimize opt_env q in
  run env optimized.Optimizer.plan

let result_values r =
  match r.projected with
  | Some values -> values
  | None ->
      List.map
        (fun row ->
          Value.Tuple
            (List.map
               (fun (var, (item : Collection.item)) ->
                 ( var,
                   match item.Collection.oid with
                   | Some oid -> Value.Ref oid
                   | None -> item.Collection.value ))
               row))
        r.rows

let result_oids r =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let add oid =
    if not (Hashtbl.mem seen oid) then begin
      Hashtbl.replace seen oid ();
      out := oid :: !out
    end
  in
  let rec refs_in = function
    | Value.Ref oid -> add oid
    | Value.Tuple fields -> List.iter (fun (_, v) -> refs_in v) fields
    | Value.Set xs | Value.List xs -> List.iter refs_in xs
    | Value.Null | Value.Int _ | Value.Long _ | Value.Float _ | Value.Str _
    | Value.Char _ | Value.Bool _ ->
        ()
  in
  begin
    match r.projected with
    | Some values ->
        (* The SELECT list decides which objects the user asked for. *)
        List.iter refs_in values
    | None ->
        List.iter
          (fun row ->
            List.iter
              (fun (_, (item : Collection.item)) ->
                match item.Collection.oid with Some oid -> add oid | None -> ())
              row)
          r.rows
  end;
  List.rev !out
