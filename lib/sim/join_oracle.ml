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
   paths.

   [sabotage] runs the battery with the sort-merge duplicate-key
   rewind disabled ([Value_join.sabotage_skip_rewind]) — the oracle
   must catch the classic missing-rewind bug, proving it has teeth. *)

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

let spilled () =
  Option.value ~default:0 (List.assoc_opt "join.partitions_spilled" (Value_join.metrics ()))

let run_cycle ~seed =
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
  let env = { Eval.catalog; funcs; scope } in
  let saved_mem = !Join_cost.join_mem_bytes in
  let spilled0 = spilled () in
  let queries = ref 0 and checks = ref 0 and rows = ref 0 in
  let violations = ref [] in
  Fun.protect
    ~finally:(fun () -> Join_cost.join_mem_bytes := saved_mem)
    (fun () ->
      List.iter
        (fun (name, pred) ->
          incr queries;
          (* Half the queries under a tiny budget: the spill paths are
             part of the contract, not a special case. *)
          Join_cost.join_mem_bytes :=
            (if Prng.bool rng then 256 + Prng.int rng ~bound:2048 else saved_mem);
          let plan method_ =
            Plan.Join { left = bind "JoinL" "l"; right = bind "JoinR" "r"; method_; pred }
          in
          let oracle =
            multiset (Executor.run ~mode:Interpreted env (plan Join_cost.Nested_loop))
          in
          rows := !rows + List.length oracle;
          List.iter
            (fun m ->
              incr checks;
              let got = multiset (Executor.run env (plan m)) in
              if got <> oracle then
                violations :=
                  Format.asprintf "%s via %a: %d rows, oracle %d (%s) [mem=%d]" name
                    Join_cost.pp_method m (List.length got) (List.length oracle)
                    (first_diff got oracle) !Join_cost.join_mem_bytes
                  :: !violations)
            algorithms;
          if Store.live_temp_files store <> 0 then
            violations :=
              Printf.sprintf "%s leaked %d temp files" name (Store.live_temp_files store)
              :: !violations)
        (variants rng));
  { Phase.seed;
    site = Printf.sprintf "JoinL=%d JoinR=%d rows" n_l n_r;
    counts =
      [ ("queries", !queries);
        ("checks", !checks);
        ("oracle rows", !rows);
        ("partitions spilled", spilled () - spilled0)
      ];
    violations = List.rev !violations
  }

let phase =
  { Phase.name = "join";
    cycle =
      (fun ~sabotage ~seed ->
        let saved = !Value_join.sabotage_skip_rewind in
        Value_join.sabotage_skip_rewind := sabotage;
        Fun.protect
          ~finally:(fun () -> Value_join.sabotage_skip_rewind := saved)
          (fun () -> run_cycle ~seed));
    caught = Phase.violated
  }
