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
   over a batch's column arrays, with the row engine's answers bit for
   bit, since the differential oracle diffs the two on the same data.
   Boxed expressions and comparisons take [Compile.arith]/[Compile.cmp]
   (the one Int32 fast path, then [Eval]'s semantics) and groups the
   row engine's [Group_table]; the column specializations keep NULL
   comparing false and the float-based numeric comparison outside
   [Operand.in32]. Only the accumulators are this module's own: the
   oracle checks them against the row engine's fold. The binders cover
   exactly the optimizer's vectorizable grammar, the only shapes a VSCAN
   carries; any other shape raises [Invalid_argument]. *)

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

(* A shape outside the vectorizable grammar: the optimizer never puts
   one in a VSCAN. *)
let unbindable what = invalid_arg ("Vectorize: cannot bind " ^ what)

let rec bind_expr ~var (b : Batch.t) (e : Ast.expr) : getter =
  match e with
  | Ast.Const v -> fun _ -> v
  | Ast.Path (v, [ attr ]) when String.equal v var -> begin
      match Batch.column b attr with
      | Some col -> column_getter col
      | None -> unbindable (Ast.expr_to_string e)
    end
  | Ast.Arith (op, x, y) ->
      let gx = bind_expr ~var b x and gy = bind_expr ~var b y and f = Compile.arith op in
      fun i -> f (gx i) (gy i)
  | Ast.Neg x ->
      let gx = bind_expr ~var b x in
      fun i -> Eval.negate (gx i)
  | Ast.Path _ | Ast.Method_call _ | Ast.Aggregate _ -> unbindable (Ast.expr_to_string e)

(* ------------------------------------------------------------------ *)
(* Per-batch predicate binding                                         *)

(* Column-vs-constant comparison, specialized by column representation;
   [None] outside the specializations, where [Compile.cmp] applies. *)
let cmp_column_const cmp (col : Batch.column) (c : Value.t) : (int -> bool) option =
  let holds = Eval.comparison_holds cmp in
  match col.Batch.data, c with
  | _, Value.Null ->
      (* NULL compares false against everything, every operator. *)
      Some (fun _ -> false)
  | Batch.Ints arr, Value.Int ci ->
      let cf = float_of_int ci and c32 = Operand.in32 ci in
      Some
        (fun i ->
          (not (Batch.is_null col i))
          &&
          let x = arr.(i) in
          if c32 && Operand.in32 x then holds (Int.compare x ci)
          else holds (Float.compare (float_of_int x) cf))
  | Batch.Ints arr, (Value.Long _ | Value.Float _) ->
      let cf = Option.get (Value.as_float c) in
      Some
        (fun i ->
          (not (Batch.is_null col i))
          && holds (Float.compare (float_of_int arr.(i)) cf))
  | Batch.Floats arr, (Value.Int _ | Value.Long _ | Value.Float _) ->
      let cf = Option.get (Value.as_float c) in
      Some
        (fun i ->
          (not (Batch.is_null col i)) && holds (Float.compare arr.(i) cf))
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
      let verdict = Array.map (fun d -> holds (String.compare d cs)) dict in
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

let rec bind_pred ~var (b : Batch.t) (p : Ast.predicate) : int -> bool =
  match p with
  | Ast.Ptrue -> fun _ -> true
  | Ast.Pfalse -> fun _ -> false
  | Ast.And (x, y) ->
      let px = bind_pred ~var b x and py = bind_pred ~var b y in
      fun i -> px i && py i
  | Ast.Or (x, y) ->
      let px = bind_pred ~var b x and py = bind_pred ~var b y in
      fun i -> px i || py i
  | Ast.Not inner ->
      let pi = bind_pred ~var b inner in
      fun i -> not (pi i)
  | Ast.Is_null (e, negated) -> begin
      (* A typed cell is NULL exactly when the bitmap says so. A boxed
         cell can decode to NULL with a clear bit, so boxed columns and
         other expressions go through the getter. *)
      let typed_column =
        match e with
        | Ast.Path (v, [ attr ]) when String.equal v var -> begin
            match Batch.column b attr with
            | Some ({ Batch.data = Batch.Ints _ | Batch.Floats _ | Batch.Strs _; _ } as col)
              ->
                Some col
            | Some { Batch.data = Batch.Values _; _ } | None -> None
          end
        | _ -> None
      in
      match typed_column with
      | Some col ->
          if negated then fun i -> not (Batch.is_null col i) else fun i -> Batch.is_null col i
      | None ->
          let g = bind_expr ~var b e in
          fun i ->
            let isn = match g i with Value.Null -> true | _ -> false in
            if negated then not isn else isn
    end
  | Ast.Cmp (cmp, x, y) -> begin
      let column_const cmp attr c =
        Option.bind (Batch.column b attr) (fun col -> cmp_column_const cmp col c)
      in
      let special =
        match x, y with
        | Ast.Path (v, [ attr ]), Ast.Const c when String.equal v var -> column_const cmp attr c
        | Ast.Const c, Ast.Path (v, [ attr ]) when String.equal v var ->
            (* [c cmp x] has the truth value of [x (mirror cmp) c]. *)
            column_const (Ast.mirror cmp) attr c
        | _, _ -> None
      in
      match special with
      | Some f -> f
      | None ->
          let gx = bind_expr ~var b x and gy = bind_expr ~var b y and f = Compile.cmp cmp in
          fun i -> f (gx i) (gy i)
    end

(* ------------------------------------------------------------------ *)
(* Fused aggregation: accumulators                                     *)

type agg_spec = {
  g_key : string;  (** the [#agg] field label *)
  g_fn : Ast.agg_fn;
  g_arg : Ast.expr option;
}

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
        acc.a_i64 <- not (Operand.in32 x)
      end
      else begin
        let s = acc.a_isum + x in
        acc.a_isum <- s;
        acc.a_i64 <- acc.a_i64 || (not (Operand.in32 x)) || not (Operand.in32 s)
      end

let push_avg acc f =
  acc.a_fsum <- acc.a_fsum +. f;
  acc.a_n <- acc.a_n + 1

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
  | Ast.Avg -> ( match Value.as_float v with Some f -> push_avg acc f | None -> ())
  | Ast.Min | Ast.Max ->
      acc.a_best <-
        Some
          (match acc.a_best with
          | None -> v
          | Some a -> Group_table.better acc.spec.g_fn a v)

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
let bind_push ~var (b : Batch.t) (spec : agg_spec) : accum -> int -> unit =
  match spec.g_arg, spec.g_fn with
  | None, Ast.Count -> fun acc _ -> acc.a_n <- acc.a_n + 1
  | None, _ -> fun acc _ -> push_value acc (Value.Int 1)
  | Some e, fn -> begin
      let fast =
        match e with
        | Ast.Path (v, [ attr ]) when String.equal v var -> begin
            match Batch.column b attr, fn with
            | Some ({ Batch.data = Batch.Ints _ | Batch.Floats _; _ } as col), Ast.Count ->
                Some (fun acc i -> if not (Batch.is_null col i) then acc.a_n <- acc.a_n + 1)
            | Some ({ Batch.data = Batch.Ints arr; _ } as col), Ast.Sum ->
                Some (fun acc i -> if not (Batch.is_null col i) then push_sum_int acc arr.(i))
            | Some ({ Batch.data = Batch.Ints arr; _ } as col), Ast.Avg ->
                Some
                  (fun acc i ->
                    if not (Batch.is_null col i) then push_avg acc (float_of_int arr.(i)))
            | Some ({ Batch.data = Batch.Floats arr; _ } as col), Ast.Avg ->
                Some (fun acc i -> if not (Batch.is_null col i) then push_avg acc arr.(i))
            | _, _ -> None
          end
        | _ -> None
      in
      match fast with
      | Some f -> f
      | None ->
          let g = bind_expr ~var b e in
          fun acc i -> match g i with Value.Null -> () | v -> push_value acc v
    end

(* ------------------------------------------------------------------ *)
(* Fused aggregation: groups                                           *)

(* Per-batch binding of row index to group. No keys: the one group,
   found once. A single dictionary-coded string key: codes map to
   groups through an array filled on first sight. Dictionaries are
   page-local (a plain minipage is an identity "dictionary" with
   duplicate entries), so the array lives for this batch only and is
   filled through the string value. Every other key shape — boxed
   columns from MVCC patching and transient batches included — goes
   through the table with boxed key values. *)
let bind_group ~var (b : Batch.t) tbl (keys : Ast.expr list) : int -> accum Group_table.group =
  let single_column =
    match keys with
    | [ Ast.Path (v, [ attr ]) ] when String.equal v var -> Batch.column b attr
    | _ -> None
  in
  match keys, single_column with
  | [], _ ->
      let g = Group_table.find tbl [] in
      fun _ -> g
  | _, Some ({ Batch.data = Batch.Strs { codes; dict }; _ } as col) ->
      let by_code = Array.make (Array.length dict) None in
      let null_group = lazy (Group_table.find tbl [ Value.Null ]) in
      fun i ->
        if Batch.is_null col i then Lazy.force null_group
        else begin
          let c = codes.(i) in
          match by_code.(c) with
          | Some g -> g
          | None ->
              let g = Group_table.find tbl [ Value.Str dict.(c) ] in
              by_code.(c) <- Some g;
              g
        end
  | _, _ ->
      let getters = List.map (bind_expr ~var b) keys in
      fun i -> Group_table.find tbl (List.map (fun g -> g i) getters)

(* ------------------------------------------------------------------ *)
(* The scan driver                                                     *)

let mk_row ~var ~class_id (b : Batch.t) i =
  [ ( var,
      { Collection.oid = Some (Oid.make ~class_id ~slot:b.Batch.slots.(i));
        value = Batch.row_value b i
      } )
  ]

let transient_batch_rows = 1024

let scan (env : Eval.env) ~class_name ~var ~minus ~(pred : Ast.predicate option)
    ~(keys : Ast.expr list) ~(aggs : agg_spec list) ~(emit : Eval.row -> unit) =
  let catalog = env.Eval.catalog in
  (* IS-A: like the row engine's bind, subclass instances are always in
     scope — the AST's EVERY flag is display-only; [minus] excludes. *)
  let classes = Catalog.classes_in_scope catalog ~every:true ~minus class_name in
  let grouping = keys <> [] || aggs <> [] in
  let specs = Array.of_list aggs in
  let tbl =
    Group_table.create
      ~labels:(List.map (fun spec -> spec.g_key) aggs)
      ~fresh:(fun i -> fresh_accum specs.(i))
  in
  (* The zero-key group exists even when no row arrives. *)
  if grouping && keys = [] then ignore (Group_table.find tbl []);
  let process_batch ~class_id (b : Batch.t) =
    M.m.M.rows_scanned <- M.m.M.rows_scanned + b.Batch.n;
    let keep = match pred with None -> fun _ -> true | Some p -> bind_pred ~var b p in
    let kept = ref 0 in
    if not grouping then
      for i = 0 to b.Batch.n - 1 do
        if keep i then begin
          incr kept;
          emit (mk_row ~var ~class_id b i)
        end
      done
    else begin
      let group_of = bind_group ~var b tbl keys in
      let pushes = Array.map (bind_push ~var b) specs in
      let member = mk_row ~var ~class_id b in
      for i = 0 to b.Batch.n - 1 do
        if keep i then begin
          incr kept;
          let g = group_of i in
          Group_table.keep_first g member i;
          let accs = g.Group_table.accs in
          for j = 0 to Array.length pushes - 1 do
            pushes.(j) accs.(j) i
          done
        end
      done
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
  if grouping then Group_table.iter_rows tbl ~final:(fun _ acc -> final_value acc) emit
