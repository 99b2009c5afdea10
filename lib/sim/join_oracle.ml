(* Randomized differential join oracle.

   Each seeded cycle builds a fresh two-class database with skewed,
   duplicate-heavy, null-bearing data over every key shape the join
   machinery must canonicalize (ints, cross-kind numerics, floats with
   NaN, -NaN and -0.0, strings vs chars, flat and nested collections),
   then runs a battery of join
   queries through every algorithm — the plan hint is the [method_]
   field of a directly-constructed [Plan.Join] — and diffs each result
   multiset against the interpreted nested-loop join. Roughly half the
   queries run under a tiny randomized memory budget so the Grace and
   sort-merge spill paths are exercised, not just their in-memory fast
   paths. Each query runs twice: over whole binding rows, and under a
   PROJECT of one non-key attribute per side, where the value joins'
   entries keep only the keys, that attribute and the residual
   conjuncts' [pad] ([Plan.reads]); the projected run compares
   [Executor.result_values].

   [sabotage] runs the battery with the sort-merge duplicate-key
   rewind disabled (the [skip_rewind] field of the cycle's [Eval.env])
   — the oracle must catch the classic missing-rewind bug, proving it
   has teeth. The fault sits inside sort-merge, where no write from
   outside the join can reach, so the env carries it. *)

module Store = Mood_storage.Store
module Catalog = Mood_catalog.Catalog
module Mtype = Mood_model.Mtype
module Value = Mood_model.Value
module Oid = Mood_model.Oid
module Fm = Mood_funcmgr.Function_manager
module Eval = Mood_executor.Eval
module Executor = Mood_executor.Executor
module Value_join = Mood_executor.Value_join
module Plan = Mood_optimizer.Plan
module Join_cost = Mood_cost.Join_cost
module Ast = Mood_sql.Ast
module Prng = Mood_util.Prng
module Collection = Mood_algebra.Collection
module Metrics = Mood_obs.Metrics

let basic b = Mtype.Basic b

let define_schema catalog =
  let attributes =
    [ ("kint", basic Mtype.Integer);
      ("kfloat", basic Mtype.Float);
      ("kstr", basic (Mtype.String 8));
      ("kchar", basic Mtype.Char);
      ("kset", Mtype.Set (basic Mtype.Integer));
      ("knest", Mtype.Set (Mtype.Set (basic Mtype.Integer)));
      ("pad", basic Mtype.Integer)
    ]
  in
  ignore (Catalog.define_class catalog ~name:"JoinL" ~attributes ());
  ignore (Catalog.define_class catalog ~name:"JoinR" ~attributes ())

(* Skewed small domain: values cluster at the low end, so duplicate-key
   blocks (the sort-merge rewind case, the Grace skew case) are the
   norm, not the exception. *)
let zipf rng ~bound = min (Prng.int rng ~bound) (Prng.int rng ~bound)

let maybe_null rng v = if Prng.int rng ~bound:100 < 15 then Value.Null else v

let gen_set rng =
  Value.set (List.init (Prng.int rng ~bound:4) (fun _ -> Value.Int (zipf rng ~bound:8)))

let gen_nest rng =
  Value.set (List.init (Prng.int rng ~bound:3) (fun _ -> gen_set rng))

let letter rng = Char.chr (Char.code 'a' + zipf rng ~bound:6)

(* Small integers, plus the floats whose bits differ but which
   [Float.compare] equates: NaN and -NaN, -0.0 and 0.0. *)
let gen_float rng =
  match Prng.int rng ~bound:10 with
  | 0 -> Float.nan
  | 1 -> Float.neg Float.nan
  | 2 -> -0.
  | _ -> float_of_int (zipf rng ~bound:8)

let gen_row rng =
  Value.Tuple
    [ ("kint", maybe_null rng (Value.Int (zipf rng ~bound:8)));
      ("kfloat", maybe_null rng (Value.Float (gen_float rng)));
      ("kstr", maybe_null rng (Value.Str (String.make 1 (letter rng))));
      ("kchar", maybe_null rng (Value.Char (letter rng)));
      ("kset", maybe_null rng (gen_set rng));
      ("knest", maybe_null rng (gen_nest rng));
      ("pad", Value.Int (Prng.int rng ~bound:100))
    ]

let eq l r = Ast.Cmp (Ast.Eq, Ast.Path ("l", [ l ]), Ast.Path ("r", [ r ]))

(* The attributes a projection may show: any but the residual
   conjuncts' [pad], so a keep-set that drops what only the predicate
   reads changes the answer. *)
let shown = [ "kint"; "kfloat"; "kstr"; "kchar"; "kset"; "knest" ]

(* The query battery: every canonical-key shape, plus residual
   conjuncts before and after the equality (the executor must find the
   equality anywhere in the conjunction and re-apply the rest). *)
let variants rng =
  [ ("kint=kint", eq "kint" "kint");
    ("kint=kfloat", eq "kint" "kfloat");
    ("kfloat=kfloat", eq "kfloat" "kfloat");
    ("kstr=kchar", eq "kstr" "kchar");
    ("kset=kint", eq "kset" "kint");
    ("kset=kset", eq "kset" "kset");
    ("knest=knest", eq "knest" "knest");
    ( "kint=kint&pad",
      Ast.And
        ( eq "kint" "kint",
          Ast.Cmp (Ast.Le, Ast.Path ("l", [ "pad" ]), Ast.Const (Value.Int (Prng.int rng ~bound:100))) ) );
    ( "pad&kstr=kchar",
      Ast.And
        ( Ast.Cmp (Ast.Gt, Ast.Path ("r", [ "pad" ]), Ast.Const (Value.Int (Prng.int rng ~bound:100))),
          eq "kstr" "kchar" ) )
  ]

let algorithms =
  [ Join_cost.Nested_loop;
    Join_cost.Hash_join;
    Join_cost.Grace_hash;
    Join_cost.Sort_merge;
    Join_cost.Fusion_join
  ]

let bind class_name var = Plan.Bind { class_name; var; every = false; minus = [] }

let row_repr (row : Eval.row) =
  String.concat "|"
    (List.map
       (fun (var, (it : Collection.item)) ->
         var ^ "="
         ^ (match it.Collection.oid with Some o -> "#" ^ Oid.to_string o ^ ":" | None -> "")
         ^ Value.to_string it.Collection.value)
       row)

let multiset (result : Executor.result) =
  List.sort String.compare (List.map row_repr result.Executor.rows)

(* The user-facing rows of a projected run. *)
let value_multiset (result : Executor.result) =
  List.sort String.compare (List.map Value.to_string (Executor.result_values result))

(* One attribute per side that is not the side's join key: under a
   PROJECT of these the value joins' entries keep only the key, this
   attribute and what the residual conjuncts read. *)
let projection pred =
  let rec keys = function
    | Ast.And (a, b) -> keys a @ keys b
    | Ast.Cmp (Ast.Eq, Ast.Path ("l", [ a ]), Ast.Path ("r", [ b ])) -> [ ("l", a); ("r", b) ]
    | _ -> []
  in
  List.map
    (fun var ->
      let attr = List.find (fun a -> not (List.mem (var, a) (keys pred))) shown in
      { Ast.expr = Ast.Path (var, [ attr ]); alias = None })
    [ "l"; "r" ]

(* First row present in one multiset but not the other — the
   reproduction hint a violation prints. *)
let first_diff got want =
  let rec go a b =
    match a, b with
    | [], [] -> "equal?"
    | x :: _, [] -> "extra " ^ x
    | [], y :: _ -> "missing " ^ y
    | x :: xs, y :: ys ->
        let c = String.compare x y in
        if c = 0 then go xs ys else if c < 0 then "extra " ^ x else "missing " ^ y
  in
  go got want

let run_cycle ~sabotage ~seed =
  let rng = Prng.create ~seed in
  let store = Store.create ~buffer_capacity:64 () in
  let catalog = Catalog.create ~store in
  define_schema catalog;
  let n_l = 5 + Prng.int rng ~bound:26 and n_r = 5 + Prng.int rng ~bound:26 in
  for _ = 1 to n_l do
    ignore (Catalog.insert_object catalog ~class_name:"JoinL" (gen_row rng))
  done;
  for _ = 1 to n_r do
    ignore (Catalog.insert_object catalog ~class_name:"JoinR" (gen_row rng))
  done;
  let funcs = Fm.create ~catalog in
  let scope = Fm.enter_scope funcs in
  let metrics = Metrics.create () in
  let queries = ref 0 and checks = ref 0 and rows = ref 0 in
  let violations = ref [] in
  List.iter
    (fun (name, pred) ->
      incr queries;
      (* Half the queries under a tiny budget: the spill paths are
         part of the contract, not a special case. *)
      let join_mem_bytes =
        if Prng.bool rng then 256 + Prng.int rng ~bound:2048
        else Join_cost.default_join_mem_bytes
      in
      let env =
        { Eval.catalog; funcs; scope; join_mem_bytes; metrics; skip_rewind = sabotage }
      in
      let plan method_ =
        Plan.Join { left = bind "JoinL" "l"; right = bind "JoinR" "r"; method_; pred }
      in
      let projected method_ = Plan.Project { source = plan method_; items = projection pred } in
      (* Whole binding rows, then the same joins under a PROJECT, whose
         value-join entries keep only what the statement reads. *)
      List.iter
        (fun (shape, plan, multiset) ->
          let oracle = multiset (Executor.run ~mode:Interpreted env (plan Join_cost.Nested_loop)) in
          rows := !rows + List.length oracle;
          List.iter
            (fun m ->
              incr checks;
              let violation what =
                violations :=
                  Format.asprintf "%s%s via %a: %s [mem=%d]" name shape Join_cost.pp_method m
                    what join_mem_bytes
                  :: !violations
              in
              (* An entry that lost an attribute the predicate reads
                 raises; that is a violation too. *)
              match multiset (Executor.run env (plan m)) with
              | got when got <> oracle ->
                  violation
                    (Printf.sprintf "%d rows, oracle %d (%s)" (List.length got)
                       (List.length oracle) (first_diff got oracle))
              | _ -> ()
              | exception Eval.Eval_error msg -> violation ("raised " ^ msg))
            algorithms)
        [ ("", plan, multiset); (" projected", projected, value_multiset) ];
      if Store.live_temp_files store <> 0 then
        violations :=
          Printf.sprintf "%s leaked %d temp files" name (Store.live_temp_files store)
          :: !violations)
    (variants rng);
  { Phase.seed;
    site = Printf.sprintf "JoinL=%d JoinR=%d rows" n_l n_r;
    counts =
      [ ("queries", !queries);
        ("checks", !checks);
        ("oracle rows", !rows);
        ( "partitions spilled",
          Metrics.value (Value_join.counters metrics).Value_join.partitions_spilled )
      ];
    violations = List.rev !violations
  }

let phase =
  { Phase.name = "join"; cycle = run_cycle; caught = Phase.violated }
