module Ast = Mood_sql.Ast
module Value = Mood_model.Value
module Oid = Mood_model.Oid
module Operand = Mood_model.Operand
module Catalog = Mood_catalog.Catalog
module Collection = Mood_algebra.Collection
module Batch = Mood_column.Batch
module Pax_store = Mood_column.Pax_store
module M = Mood_column.Scan_metrics

(* The vectorized scan: predicates and the fused GROUP BY evaluated
   over a batch's column arrays. Every fast path below reproduces the
   row engine's semantics bit-for-bit — the same Int32-range guard as
   [Compile], NULL comparing false, arithmetic NULL propagation, the
   interpreter's float-based numeric comparison outside the guard, the
   row engine's group equality and group order — because the
   differential oracle diffs this path against the row engine on the
   same data. A batch whose shapes cannot be bound falls back to boxed
   row evaluation (counted in [scan.fallback_rows]). *)

let in32 x = x >= -2147483648 && x <= 2147483647

let holds cmp c =
  match cmp with
  | Ast.Eq -> c = 0
  | Ast.Ne -> c <> 0
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | Ast.Ge -> c >= 0

(* [c cmp x] has the truth value of [x (flip cmp) c]. *)
let flip = function
  | Ast.Eq -> Ast.Eq
  | Ast.Ne -> Ast.Ne
  | Ast.Lt -> Ast.Gt
  | Ast.Le -> Ast.Ge
  | Ast.Gt -> Ast.Lt
  | Ast.Ge -> Ast.Le

(* ------------------------------------------------------------------ *)
(* Per-batch expression binding: a boxed cell getter per row index.    *)

type getter = int -> Value.t

let column_getter (col : Batch.column) : getter =
  let nulled = Bytes.length col.Batch.nulls > 0 in
  match col.Batch.data with
  | Batch.Ints arr ->
      if nulled then fun i ->
        if Batch.is_null col i then Value.Null else Value.Int arr.(i)
      else fun i -> Value.Int arr.(i)
  | Batch.Floats arr ->
      if nulled then fun i ->
        if Batch.is_null col i then Value.Null else Value.Float arr.(i)
      else fun i -> Value.Float arr.(i)
  | Batch.Strs { codes; dict } ->
      (* Box each dictionary entry once; rows share the boxes. *)
      let boxed = Array.map (fun s -> Value.Str s) dict in
      if nulled then fun i ->
        if Batch.is_null col i then Value.Null else boxed.(codes.(i))
      else fun i -> boxed.(codes.(i))
  | Batch.Values arr ->
      if nulled then fun i ->
        if Batch.is_null col i then Value.Null else arr.(i)
      else fun i -> arr.(i)

let rec bind_expr ~var (b : Batch.t) (e : Ast.expr) : getter option =
  match e with
  | Ast.Const v -> Some (fun _ -> v)
  | Ast.Path (v, [ attr ]) when String.equal v var ->
      Option.map column_getter (Batch.column b attr)
  | Ast.Arith (op, x, y) -> begin
      match bind_expr ~var b x, bind_expr ~var b y with
      | Some gx, Some gy ->
          let f =
            match op with
            | Ast.Add -> Operand.add
            | Ast.Sub -> Operand.sub
            | Ast.Mul -> Operand.mul
            | Ast.Div -> Operand.div
            | Ast.Mod -> Operand.modulo
          in
          let generic va vb =
            try Operand.to_value (f (Operand.of_value va) (Operand.of_value vb))
            with Operand.Type_error m -> Eval.eval_error "%s" m
          in
          (* Same exactness argument as [Compile.expr]: Int32-range
             operands agree between native and Int64 arithmetic; zero
             divisors take the generic route for identical failures. *)
          let int_fast =
            match op with
            | Ast.Add -> fun x y -> Value.Int (x + y)
            | Ast.Sub -> fun x y -> Value.Int (x - y)
            | Ast.Mul -> fun x y -> Value.Int (x * y)
            | Ast.Div ->
                fun x y ->
                  if y = 0 then generic (Value.Int x) (Value.Int y)
                  else Value.Int (x / y)
            | Ast.Mod ->
                fun x y ->
                  if y = 0 then generic (Value.Int x) (Value.Int y)
                  else Value.Int (x mod y)
          in
          Some
            (fun i ->
              match gx i, gy i with
              | Value.Int x, Value.Int y when in32 x && in32 y -> int_fast x y
              | Value.Null, _ | _, Value.Null -> Value.Null
              | va, vb -> generic va vb)
      | _, _ -> None
    end
  | Ast.Neg x ->
      Option.map
        (fun gx i ->
          match gx i with
          | Value.Int v -> Value.Int (-v)
          | Value.Long l -> Value.Long (Int64.neg l)
          | Value.Float f -> Value.Float (-.f)
          | Value.Null -> Value.Null
          | v -> Eval.eval_error "cannot negate %s" (Value.to_string v))
        (bind_expr ~var b x)
  | Ast.Path _ | Ast.Method_call _ | Ast.Aggregate _ -> None

(* ------------------------------------------------------------------ *)
(* Per-batch predicate binding                                         *)

(* Column-vs-constant comparison, specialized by column representation.
   Outside the specializations the generic closure mirrors the compiled
   row predicate exactly. *)
let cmp_column_const cmp (col : Batch.column) (c : Value.t) : (int -> bool) option =
  match col.Batch.data, c with
  | _, Value.Null ->
      (* NULL compares false against everything, every operator. *)
      Some (fun _ -> false)
  | Batch.Ints arr, Value.Int ci ->
      let cf = float_of_int ci and c32 = in32 ci in
      Some
        (fun i ->
          (not (Batch.is_null col i))
          &&
          let x = arr.(i) in
          if c32 && in32 x then holds cmp (Int.compare x ci)
          else holds cmp (Float.compare (float_of_int x) cf))
  | Batch.Ints arr, Value.Long l ->
      let cf = Int64.to_float l in
      Some
        (fun i ->
          (not (Batch.is_null col i))
          && holds cmp (Float.compare (float_of_int arr.(i)) cf))
  | Batch.Ints arr, Value.Float cf ->
      Some
        (fun i ->
          (not (Batch.is_null col i))
          && holds cmp (Float.compare (float_of_int arr.(i)) cf))
  | Batch.Floats arr, (Value.Int _ | Value.Long _ | Value.Float _) ->
      let cf =
        match c with
        | Value.Int i -> float_of_int i
        | Value.Long l -> Int64.to_float l
        | Value.Float f -> f
        | _ -> assert false
      in
      Some
        (fun i ->
          (not (Batch.is_null col i)) && holds cmp (Float.compare arr.(i) cf))
  | Batch.Strs { codes; dict }, (Value.Str _ | Value.Char _) ->
      (* One verdict per dictionary code: the per-row compare collapses
         to an array read. Correct even when the "dictionary" is the
         identity mapping of a plain minipage (duplicate entries get
         duplicate verdicts). *)
      let cs =
        match c with
        | Value.Str s -> s
        | Value.Char ch -> String.make 1 ch
        | _ -> assert false
      in
      let verdict = Array.map (fun d -> holds cmp (String.compare d cs)) dict in
      Some
        (fun i ->
          (not (Batch.is_null col i))
          && begin
               M.m.M.dict_hits <- M.m.M.dict_hits + 1;
               verdict.(codes.(i))
             end)
  | ( (Batch.Ints _ | Batch.Floats _),
      (Value.Str _ | Value.Char _ | Value.Bool _ | Value.Tuple _ | Value.Set _
      | Value.List _ | Value.Ref _) )
  | ( Batch.Strs _,
      (Value.Int _ | Value.Long _ | Value.Float _ | Value.Bool _ | Value.Tuple _
      | Value.Set _ | Value.List _ | Value.Ref _) ) ->
      (* Cross-shape atomics never compare (rank mismatch → false). *)
      Some (fun _ -> false)
  | Batch.Values _, _ -> None

let rec bind_pred ~var (b : Batch.t) (p : Ast.predicate) : (int -> bool) option =
  match p with
  | Ast.Ptrue -> Some (fun _ -> true)
  | Ast.Pfalse -> Some (fun _ -> false)
  | Ast.And (x, y) -> begin
      match bind_pred ~var b x, bind_pred ~var b y with
      | Some px, Some py -> Some (fun i -> px i && py i)
      | _, _ -> None
    end
  | Ast.Or (x, y) -> begin
      match bind_pred ~var b x, bind_pred ~var b y with
      | Some px, Some py -> Some (fun i -> px i || py i)
      | _, _ -> None
    end
  | Ast.Not inner ->
      Option.map (fun pi i -> not (pi i)) (bind_pred ~var b inner)
  | Ast.Is_null (Ast.Path (v, [ attr ]), negated) when String.equal v var -> begin
      match Batch.column b attr with
      | Some col ->
          (* A boxed cell is Null exactly when the bitmap says so,
             except generic cells that decode to Null with a clear bit
             — route those through the getter. *)
          begin
            match col.Batch.data with
            | Batch.Values _ ->
                let g = column_getter col in
                Some
                  (fun i ->
                    let isn = match g i with Value.Null -> true | _ -> false in
                    if negated then not isn else isn)
            | Batch.Ints _ | Batch.Floats _ | Batch.Strs _ ->
                if negated then Some (fun i -> not (Batch.is_null col i))
                else Some (fun i -> Batch.is_null col i)
          end
      | None -> None
    end
  | Ast.Is_null (e, negated) ->
      Option.map
        (fun g i ->
          let isn = match g i with Value.Null -> true | _ -> false in
          if negated then not isn else isn)
        (bind_expr ~var b e)
  | Ast.Cmp (cmp, Ast.Path (v, [ attr ]), Ast.Const c) when String.equal v var
    -> begin
      match Batch.column b attr with
      | Some col -> begin
          match cmp_column_const cmp col c with
          | Some f -> Some f
          | None -> bind_cmp_generic ~var b cmp (Ast.Path (v, [ attr ])) (Ast.Const c)
        end
      | None -> None
    end
  | Ast.Cmp (cmp, Ast.Const c, Ast.Path (v, [ attr ])) when String.equal v var
    -> begin
      match Batch.column b attr with
      | Some col -> begin
          match cmp_column_const (flip cmp) col c with
          | Some f -> Some f
          | None -> bind_cmp_generic ~var b cmp (Ast.Const c) (Ast.Path (v, [ attr ]))
        end
      | None -> None
    end
  | Ast.Cmp (cmp, x, y) -> bind_cmp_generic ~var b cmp x y

and bind_cmp_generic ~var b cmp x y =
  match bind_expr ~var b x, bind_expr ~var b y with
  | Some gx, Some gy ->
      Some
        (fun i ->
          match gx i, gy i with
          | Value.Int a, Value.Int c when in32 a && in32 c ->
              holds cmp (Int.compare a c)
          | va, vb -> Eval.cmp_values cmp va vb)
  | _, _ -> None

(* ------------------------------------------------------------------ *)
(* Fused aggregation: accumulators                                     *)

type agg_spec = {
  g_key : string;  (** the [#agg] field label *)
  g_fn : Ast.agg_fn;
  g_arg : Ast.expr option;
  g_row_arg : Compile.expr_fn option;  (** row-engine fallback *)
}

(* A GROUP BY key: bound to column arrays per batch, with its row
   lowering for fallback rows. *)
type key_spec = { k_expr : Ast.expr; k_row : Compile.expr_fn }

(* One accumulator per aggregate and group, shared across batches and
   classes. Integer SUM runs unboxed until a non-Int value (or the row
   engine's Int64 widening rule) forces the Operand representation; the
   switch preserves the running dtype so the final Int-vs-Long shape
   matches the interpreter's fold. *)
type accum = {
  spec : agg_spec;
  mutable a_n : int;  (* COUNT, and AVG's denominator *)
  mutable a_isum : int;
  mutable a_iseen : bool;
  mutable a_i64 : bool;  (* the Operand fold would have widened to Int64 *)
  mutable a_fsum : float;
  mutable a_op : Operand.t option;
  mutable a_best : Value.t option;
}

let fresh_accum spec =
  { spec;
    a_n = 0;
    a_isum = 0;
    a_iseen = false;
    a_i64 = false;
    a_fsum = 0.;
    a_op = None;
    a_best = None
  }

let int_state_operand acc =
  if acc.a_i64 then Operand.of_value (Value.Long (Int64.of_int acc.a_isum))
  else Operand.of_value (Value.Int acc.a_isum)

let push_sum_generic acc v =
  let o = Operand.of_value v in
  let base =
    match acc.a_op with
    | Some a -> Some a
    | None -> if acc.a_iseen then Some (int_state_operand acc) else None
  in
  acc.a_op <- Some (match base with None -> o | Some a -> Operand.add a o)

let push_sum_int acc x =
  match acc.a_op with
  | Some _ -> push_sum_generic acc (Value.Int x)
  | None ->
      if not acc.a_iseen then begin
        acc.a_iseen <- true;
        acc.a_isum <- x;
        acc.a_i64 <- not (in32 x)
      end
      else begin
        let s = acc.a_isum + x in
        acc.a_isum <- s;
        acc.a_i64 <- acc.a_i64 || (not (in32 x)) || not (in32 s)
      end

let better fn a b =
  match Eval.compare_values a b with
  | Some c ->
      if (fn = Ast.Min && c <= 0) || (fn = Ast.Max && c >= 0) then a else b
  | None -> a

(* Fold one (non-NULL) argument value in, with the interpreter's
   semantics: AVG skips non-numerics, MIN/MAX keep the earlier value on
   incomparables, SUM folds through the operand layer. *)
let push_value acc v =
  match acc.spec.g_fn with
  | Ast.Count -> acc.a_n <- acc.a_n + 1
  | Ast.Sum -> begin
      match v with
      | Value.Int x when acc.a_op = None -> push_sum_int acc x
      | v -> push_sum_generic acc v
    end
  | Ast.Avg -> begin
      match Value.as_float v with
      | None -> ()
      | Some f ->
          acc.a_fsum <- acc.a_fsum +. f;
          acc.a_n <- acc.a_n + 1
    end
  | Ast.Min | Ast.Max ->
      acc.a_best <-
        Some
          (match acc.a_best with
          | None -> v
          | Some a -> better acc.spec.g_fn a v)

let final_value acc =
  match acc.spec.g_fn with
  | Ast.Count -> Value.Int acc.a_n
  | Ast.Sum -> begin
      match acc.a_op with
      | Some o -> Operand.to_value o
      | None ->
          if not acc.a_iseen then Value.Null
          else if acc.a_i64 then Value.Long (Int64.of_int acc.a_isum)
          else Value.Int acc.a_isum
    end
  | Ast.Avg ->
      if acc.a_n = 0 then Value.Null
      else Value.Float (acc.a_fsum /. float_of_int acc.a_n)
  | Ast.Min | Ast.Max -> (
      match acc.a_best with Some v -> v | None -> Value.Null)

(* Per-batch push closure for one aggregate, applied to the
   accumulator of the row's group: unboxed column loops for
   COUNT/SUM/AVG over numeric minipages, boxed getter otherwise. *)
let bind_push ~var (b : Batch.t) (spec : agg_spec) : (accum -> int -> unit) option =
  match spec.g_arg, spec.g_fn with
  | None, Ast.Count -> Some (fun acc _ -> acc.a_n <- acc.a_n + 1)
  | None, _ -> Some (fun acc _ -> push_value acc (Value.Int 1))
  | Some e, fn -> begin
      let fast =
        match e, fn with
        | Ast.Path (v, [ attr ]), (Ast.Count | Ast.Sum | Ast.Avg)
          when String.equal v var -> begin
            match Batch.column b attr with
            | Some ({ Batch.data = Batch.Ints arr; _ } as col) ->
                Some
                  (match fn with
                  | Ast.Count ->
                      fun acc i ->
                        if not (Batch.is_null col i) then acc.a_n <- acc.a_n + 1
                  | Ast.Sum ->
                      fun acc i ->
                        if not (Batch.is_null col i) then push_sum_int acc arr.(i)
                  | Ast.Avg ->
                      fun acc i ->
                        if not (Batch.is_null col i) then begin
                          acc.a_fsum <- acc.a_fsum +. float_of_int arr.(i);
                          acc.a_n <- acc.a_n + 1
                        end
                  | Ast.Min | Ast.Max -> assert false)
            | Some ({ Batch.data = Batch.Floats arr; _ } as col) -> begin
                match fn with
                | Ast.Count ->
                    Some
                      (fun acc i ->
                        if not (Batch.is_null col i) then acc.a_n <- acc.a_n + 1)
                | Ast.Avg ->
                    Some
                      (fun acc i ->
                        if not (Batch.is_null col i) then begin
                          acc.a_fsum <- acc.a_fsum +. arr.(i);
                          acc.a_n <- acc.a_n + 1
                        end)
                | Ast.Sum | Ast.Min | Ast.Max -> None
              end
            | Some _ | None -> None
          end
        | _, _ -> None
      in
      match fast with
      | Some f -> Some f
      | None ->
          Option.map
            (fun g acc i ->
              match g i with Value.Null -> () | v -> push_value acc v)
            (bind_expr ~var b e)
    end

let bind_pushes ~var b specs =
  let rec go bound i =
    if i < 0 then Some (Array.of_list bound)
    else
      match bind_push ~var b specs.(i) with
      | Some p -> go (p :: bound) (i - 1)
      | None -> None
  in
  go [] (Array.length specs - 1)

(* ------------------------------------------------------------------ *)
(* Fused aggregation: the group table                                  *)

(* Group identity is the row engine's: [Value.equal] over the key list,
   under which Int, Long and Float compare by numeric value. The hash
   must agree with it, so a numeric hashes by its float value
   ([Hashtbl.hash] on a float folds -0.0 into 0.0 and all NaNs
   together, as [Float.compare] does). *)
let mix h x = ((h * 31) + x) land max_int

let rec hash_value (v : Value.t) =
  match v with
  | Value.Null -> 0
  | Value.Int i -> Hashtbl.hash (float_of_int i)
  | Value.Long l -> Hashtbl.hash (Int64.to_float l)
  | Value.Float f -> Hashtbl.hash f
  | Value.Str s -> Hashtbl.hash s
  | Value.Char c -> mix 3 (Char.code c)
  | Value.Bool b -> mix 4 (Bool.to_int b)
  | Value.Tuple fields ->
      List.fold_left
        (fun h (name, x) -> mix (mix h (Hashtbl.hash name)) (hash_value x))
        5 fields
  | Value.Set xs -> List.fold_left (fun h x -> mix h (hash_value x)) 6 xs
  | Value.List xs -> List.fold_left (fun h x -> mix h (hash_value x)) 7 xs
  | Value.Ref o -> mix 8 (Oid.hash o)

let hash_key key = List.fold_left (fun h v -> mix h (hash_value v)) 0 key

module Key_table = Hashtbl.Make (struct
  type t = Value.t list

  let equal = List.equal Value.equal
  let hash = hash_key
end)

type group = {
  mutable g_rep : Eval.row;  (* first member in scan order; [] until one arrives *)
  g_accs : accum array;  (* one per aggregate *)
}

type table = {
  t_specs : agg_spec array;
  t_index : group Key_table.t;
  mutable t_groups : group list;  (* newest first *)
}

let create_table aggs =
  { t_specs = Array.of_list aggs; t_index = Key_table.create 16; t_groups = [] }

(* [t_groups] keeps groups in order of first appearance (newest
   first), so the output order is the row engine's [Group] over the
   same scan. *)
let find_group tbl key =
  match Key_table.find_opt tbl.t_index key with
  | Some g -> g
  | None ->
      let g = { g_rep = []; g_accs = Array.map fresh_accum tbl.t_specs } in
      Key_table.add tbl.t_index key g;
      tbl.t_groups <- g :: tbl.t_groups;
      g

(* Per-batch binding of row index to group. No keys: the one group,
   found once. A single dictionary-coded string key: codes map to
   groups through an array filled on first sight. Dictionaries are
   page-local (a plain minipage is an identity "dictionary" with
   duplicate entries), so the array lives for this batch only and is
   filled through the string value. Every other key shape — boxed
   columns from MVCC patching and transient batches included — goes
   through the table with boxed key values. *)
let bind_group ~var (b : Batch.t) tbl (keys : key_spec list) : (int -> group) option =
  let single_column =
    match keys with
    | [ { k_expr = Ast.Path (v, [ attr ]); _ } ] when String.equal v var ->
        Batch.column b attr
    | _ -> None
  in
  match keys, single_column with
  | [], _ ->
      let g = find_group tbl [] in
      Some (fun _ -> g)
  | _, Some ({ Batch.data = Batch.Strs { codes; dict }; _ } as col) ->
      let by_code = Array.make (Array.length dict) None in
      let null_group = lazy (find_group tbl [ Value.Null ]) in
      Some
        (fun i ->
          if Batch.is_null col i then Lazy.force null_group
          else begin
            let c = codes.(i) in
            match by_code.(c) with
            | Some g -> g
            | None ->
                let g = find_group tbl [ Value.Str dict.(c) ] in
                by_code.(c) <- Some g;
                g
          end)
  | _, _ ->
      let getters = List.filter_map (fun k -> bind_expr ~var b k.k_expr) keys in
      if List.compare_lengths getters keys <> 0 then None
      else Some (fun i -> find_group tbl (List.map (fun g -> g i) getters))

let table_rows tbl =
  let no_aggs = Array.length tbl.t_specs = 0 in
  List.rev_map
    (fun g ->
      if no_aggs then g.g_rep
      else
        let fields =
          Array.to_list
            (Array.map (fun acc -> (acc.spec.g_key, final_value acc)) g.g_accs)
        in
        g.g_rep @ [ ("#agg", { Collection.oid = None; value = Value.Tuple fields }) ])
    tbl.t_groups

(* ------------------------------------------------------------------ *)
(* The scan driver                                                     *)

let mk_row ~var ~class_id (b : Batch.t) i =
  [ ( var,
      { Collection.oid = Some (Oid.make ~class_id ~slot:b.Batch.slots.(i));
        value = Batch.row_value b i
      } )
  ]

let transient_batch_rows = 1024

let scan (env : Eval.env) ~class_name ~var ~every ~minus
    ~(pred : Ast.predicate option) ~(row_pred : Compile.pred_fn option)
    ~(keys : key_spec list) ~(aggs : agg_spec list) ~(emit : Eval.row -> unit) =
  let catalog = env.Eval.catalog in
  ignore every;
  (* IS-A: like the row engine's bind, subclass instances are always in
     scope — the AST's EVERY flag is display-only; [minus] excludes. *)
  let classes = Catalog.classes_in_scope catalog ~every:true ~minus class_name in
  let grouping = keys <> [] || aggs <> [] in
  let tbl = create_table aggs in
  (* The zero-key group exists even when no row arrives. *)
  if grouping && keys = [] then ignore (find_group tbl []);
  let fallback_batch ~class_id (b : Batch.t) =
    M.m.M.fallback_rows <- M.m.M.fallback_rows + b.Batch.n;
    for i = 0 to b.Batch.n - 1 do
      let row = mk_row ~var ~class_id b i in
      let ok = match row_pred with None -> true | Some p -> p env row in
      if ok then begin
        M.m.M.rows_after_filter <- M.m.M.rows_after_filter + 1;
        if grouping then begin
          let g = find_group tbl (List.map (fun k -> k.k_row env row) keys) in
          (match g.g_rep with [] -> g.g_rep <- row | _ :: _ -> ());
          Array.iter
            (fun acc ->
              match acc.spec.g_row_arg with
              | None -> push_value acc (Value.Int 1)
              | Some f -> begin
                  match f env row with
                  | Value.Null -> ()
                  | v -> push_value acc v
                end)
            g.g_accs
        end
        else emit row
      end
    done
  in
  let process_batch ~class_id (b : Batch.t) =
    M.m.M.rows_scanned <- M.m.M.rows_scanned + b.Batch.n;
    let vp =
      match pred with
      | None -> Some (fun _ -> true)
      | Some p -> bind_pred ~var b p
    in
    let kept = ref 0 in
    begin
      match vp with
      | None -> fallback_batch ~class_id b
      | Some keep when not grouping ->
          for i = 0 to b.Batch.n - 1 do
            if keep i then begin
              incr kept;
              emit (mk_row ~var ~class_id b i)
            end
          done
      | Some keep -> begin
          match bind_group ~var b tbl keys, bind_pushes ~var b tbl.t_specs with
          | Some group_of, Some pushes ->
              let npush = Array.length pushes in
              for i = 0 to b.Batch.n - 1 do
                if keep i then begin
                  incr kept;
                  let g = group_of i in
                  (match g.g_rep with
                  | [] -> g.g_rep <- mk_row ~var ~class_id b i
                  | _ :: _ -> ());
                  let accs = g.g_accs in
                  for j = 0 to npush - 1 do
                    pushes.(j) accs.(j) i
                  done
                end
              done
          | _, _ -> fallback_batch ~class_id b
        end
    end;
    M.m.M.rows_after_filter <- M.m.M.rows_after_filter + !kept
  in
  List.iter
    (fun cls ->
      match Catalog.find_class catalog cls with
      | None -> ()
      | Some info -> begin
          let class_id = info.Catalog.class_id in
          match Catalog.pax_store catalog cls with
          | Some ps -> Pax_store.iter_batches ps ~f:(process_batch ~class_id)
          | None ->
              (* Row-layout class under a forced vectorized scan:
                 columnarize the heap scan into transient batches. *)
              let attrs = List.map fst (Catalog.attributes catalog cls) in
              let buf = ref [] in
              let k = ref 0 in
              let flush () =
                if !k > 0 then begin
                  M.m.M.batches <- M.m.M.batches + 1;
                  process_batch ~class_id (Batch.of_rows ~attrs (List.rev !buf));
                  buf := [];
                  k := 0
                end
              in
              Catalog.scan_extent catalog ~every:false cls ~f:(fun oid value ->
                  buf := (Oid.slot oid, value) :: !buf;
                  incr k;
                  if !k >= transient_batch_rows then flush ());
              flush ()
        end)
    classes;
  if grouping then List.iter emit (table_rows tbl)
