(* The answer oracle. A model of the database, built from the generated
   data and advanced only by acknowledged writes, predicts the reply to
   every statement; [check] compares a reply with the prediction.
   Integers compare exactly; a float is compared with the prediction
   rendered the way the server renders floats ([%g]), within a relative
   1e-9; OIDs are never compared. *)

type reply =
  | Rows of string list
  | Ok_text of string
  | Err of string
  | Aborted of string
  | Busy of string
  | Other of string

type e = I of int | F of float | S of string

type expect =
  | Multiset of e list list
  | Ordered_on of int * e list list  (* multiset, and sorted on this column *)
  | Text of string
  | Prefix of string

type sabotage = None_ | Perturb_expected | Drop_ack

type t = {
  d : Gen.data;
  weights : int array;        (* committed weight of each vehicle id *)
  sizes : int array;          (* committed size of each engine *)
  cyl_count : int array;      (* engines per cylinder value *)
  mutable size_sum : int;
  loc_counts : int array;     (* companies per location *)
  mutable companies : int;
  lock : Mutex.t;             (* the two oltp sessions share the counters *)
  static : bool;              (* no writes: query answers are memoized *)
  memo : (Gen.query, expect) Hashtbl.t;
  sabotage : sabotage;
}

let loc_index l =
  let rec go i = if Gen.locations.(i) = l then i else go (i + 1) in
  go 0

let create ?(sabotage = None_) ~static (d : Gen.data) =
  let cyl_count = Array.make 33 0 in
  Array.iter (fun (_, c) -> cyl_count.(c) <- cyl_count.(c) + 1) d.Gen.engines;
  let loc_counts = Array.make (Array.length Gen.locations) 0 in
  Array.iter (fun (_, l) -> let i = loc_index l in loc_counts.(i) <- loc_counts.(i) + 1) d.Gen.companies;
  { d;
    weights = Array.map (fun v -> v.Gen.weight) d.Gen.vehicles;
    sizes = Array.map fst d.Gen.engines;
    cyl_count;
    size_sum = Array.fold_left (fun a (s, _) -> a + s) 0 d.Gen.engines;
    loc_counts;
    companies = Array.length d.Gen.companies;
    lock = Mutex.create ();
    static;
    memo = Hashtbl.create 16;
    sabotage
  }

let locked m f =
  Mutex.lock m.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock m.lock) f

let cyl m (v : Gen.vehicle) = Gen.cylinders_of m.d v
let company m (v : Gen.vehicle) = m.d.Gen.companies.(v.Gen.co)

let ids m pred =
  Array.to_list m.d.Gen.vehicles
  |> List.filter pred
  |> List.map (fun v -> [ I v.Gen.id ])

let location_groups m =
  Array.to_list (Array.mapi (fun i n -> (Gen.locations.(i), n)) m.loc_counts)
  |> List.filter (fun (_, n) -> n > 0)

let query_expect m (q : Gen.query) =
  match q with
  | Gen.Q_path_bmw ->
      Multiset (ids m (fun v -> fst (company m v) = "BMW" && cyl m v = 2))
  | Gen.Q_path_cyl -> Multiset (ids m (fun v -> cyl m v = 2))
  | Gen.Q_path_loc (l, w) ->
      Multiset (ids m (fun v -> snd (company m v) = l && m.weights.(v.Gen.id) > w))
  | Gen.Q_join_rows | Gen.Q_join_count ->
      let by_size = Hashtbl.create 64 in
      Array.iteri
        (fun i s ->
          if q = Gen.Q_join_count || snd m.d.Gen.engines.(i) = 2 then Hashtbl.add by_size s ())
        m.sizes;
      let rows = ref [] and count = ref 0 in
      Array.iter
        (fun (v : Gen.vehicle) ->
          let w = m.weights.(v.Gen.id) in
          List.iter
            (fun () ->
              incr count;
              if q = Gen.Q_join_rows then rows := [ I v.Gen.id; I w ] :: !rows)
            (Hashtbl.find_all by_size w))
        m.d.Gen.vehicles;
      if q = Gen.Q_join_count then Multiset [ [ I !count ] ] else Multiset !rows
  | Gen.Q_agg_location n ->
      Ordered_on
        ( 0,
          location_groups m
          |> List.filter (fun (_, c) -> c > n)
          |> List.map (fun (l, c) -> [ S l; I c ]) )
  | Gen.Q_agg_cylinders ->
      Multiset
        (List.filter_map
           (fun c -> if m.cyl_count.(c) > 0 then Some [ I c; I m.cyl_count.(c) ] else None)
           (List.init 33 Fun.id))
  | Gen.Q_agg_lbweight x ->
      let n = ref 0 and sum = ref 0 in
      Array.iter
        (fun w -> if Gen.lbweight w > x then (incr n; sum := !sum + w))
        m.weights;
      Multiset [ [ I !n; I !sum ] ]
  | Gen.Q_scan_location l -> Multiset [ [ I m.loc_counts.(loc_index l) ] ]
  | Gen.Q_scan_engine ->
      let n = Array.length m.sizes in
      Multiset [ [ I n; I m.size_sum; F (float_of_int m.size_sum /. float_of_int n) ] ]

let query_expect m q =
  if not m.static then query_expect m q
  else
    match Hashtbl.find_opt m.memo q with
    | Some e -> e
    | None ->
        let e = query_expect m q in
        Hashtbl.replace m.memo q e;
        e

let point_expect m k = Multiset [ [ I m.weights.(k) ] ]

let path_expect m k =
  let v = m.d.Gen.vehicles.(k) in
  Multiset [ [ S (fst (company m v)); I (cyl m v) ] ]

let bump_weight m k = m.weights.(k) <- m.weights.(k) + 1

(* The negative control's wrong prediction: the first integer of the
   first expected row, plus one. *)
let perturb = function
  | Multiset ((I n :: rest) :: rows) -> Multiset ((I (n + 1) :: rest) :: rows)
  | e -> e

(* The statements of one operation with the reply each must get, and
   the effect to apply to the model once every reply was right. *)
let plan_op m (op : Gen.op) : (Gen.step * expect) list * (unit -> unit) =
  let sql s = Gen.Sql s in
  match op with
  | Gen.Point k -> ([ (sql (Gen.point_sql k), point_expect m k) ], ignore)
  | Gen.Path k -> ([ (sql (Gen.path_sql k), path_expect m k) ], ignore)
  | Gen.New_company (name, l) ->
      ( [ (sql (Gen.insert_sql name l), Prefix "oid ") ],
        fun () ->
          locked m (fun () ->
              m.companies <- m.companies + 1;
              let i = loc_index l in
              m.loc_counts.(i) <- m.loc_counts.(i) + 1) )
  | Gen.Update_weight k ->
      ([ (sql (Gen.update_sql k), Text "updated 1") ], fun () -> bump_weight m k)
  | Gen.Txn_update (k, commit) ->
      ( [ (Gen.Begin, Text "BEGIN");
          (sql (Gen.update_sql k), Text "updated 1");
          (sql (Gen.path_sql k), path_expect m k);
          (if commit then (Gen.Commit, Text "COMMIT") else (Gen.Abort, Text "ABORT"))
        ],
        fun () -> if commit then bump_weight m k )
  | Gen.Update_engines c ->
      ( [ (sql (Gen.engines_sql c), Text (Printf.sprintf "updated %d" m.cyl_count.(c))) ],
        fun () ->
            Array.iteri
              (fun i (_, ec) ->
                if ec = c then begin
                  m.sizes.(i) <- m.sizes.(i) + 1;
                  m.size_sum <- m.size_sum + 1
                end)
              m.d.Gen.engines )
  | Gen.Company_by_name i ->
      let name, l = m.d.Gen.companies.(i) in
      ([ (sql (Gen.company_sql name), Multiset [ [ S l ] ]) ], ignore)
  | Gen.Query q -> ([ (sql (Gen.query_sql q), query_expect m q) ], ignore)

let plan m op =
  let steps, effect = plan_op m op in
  match m.sabotage with
  | None_ -> (steps, effect)
  | Perturb_expected -> (List.map (fun (s, e) -> (s, perturb e)) steps, effect)
  | Drop_ack -> (steps, ignore)

(* Checks run once the measured phase is over: extent sizes and sums
   equal the initial values plus every acknowledged effect. *)
let final_checks m (w : Gen.workload) =
  let companies = ("SELECT COUNT(*) FROM Company c", Multiset [ [ I m.companies ] ]) in
  match w with
  | Gen.Oltp ->
      [ companies;
        ( "SELECT COUNT(*), SUM(v.weight) FROM Vehicle v",
          Multiset [ [ I (Array.length m.weights); I (Array.fold_left ( + ) 0 m.weights) ] ] )
      ]
  | Gen.Olap | Gen.Htap ->
      [ companies; (Gen.query_sql Gen.Q_scan_engine, query_expect m Gen.Q_scan_engine) ]

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)

let rendered_float f = float_of_string (Printf.sprintf "%g" f)

let value_ok (got : Rows.v) (want : e) =
  match got, want with
  | Rows.Int a, I b -> a = b
  | Rows.Str a, S b -> a = b
  | (Rows.Float _ | Rows.Int _), F b ->
      let a = match got with Rows.Float a -> a | Rows.Int a -> float_of_int a | _ -> nan in
      let b = rendered_float b in
      Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs b)
  | _ -> false

(* Sort key for multiset comparison: exact for ints and strings, the
   rendered form for floats (whose values are then compared with a
   tolerance). *)
let key_of_got (v : Rows.v) =
  match v with
  | Rows.Int i -> string_of_int i
  | Rows.Float f -> Printf.sprintf "%g" f
  | Rows.Str s -> "s:" ^ s
  | Rows.Null -> "null"
  | Rows.Oid o -> "oid:" ^ o
  | Rows.Tuple _ -> "?"

let key_of_want = function
  | I i -> string_of_int i
  | F f -> Printf.sprintf "%g" f
  | S s -> "s:" ^ s

let sort_rows key rows =
  List.map (fun r -> (String.concat "\001" (List.map key r), r)) rows
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let rows_match got want =
  List.length got = List.length want
  && List.for_all2
       (fun g w -> List.length g = List.length w && List.for_all2 value_ok g w)
       (sort_rows key_of_got got) (sort_rows key_of_want want)

let sorted_on col rows =
  let keys = List.map (fun r -> List.nth r col) rows in
  let rec ok = function
    | a :: (b :: _ as rest) -> key_of_got a <= key_of_got b && ok rest
    | _ -> true
  in
  List.length rows = 0 || (List.for_all (fun r -> List.length r > col) rows && ok keys)

let describe = function
  | Rows rows ->
      let n = List.length rows in
      let shown = List.filteri (fun i _ -> i < 3) rows in
      Printf.sprintf "%d row(s) [%s%s]" n (String.concat "; " shown) (if n > 3 then "; ..." else "")
  | Ok_text s -> "ok: " ^ s
  | Err s -> "error: " ^ s
  | Aborted s -> "aborted: " ^ s
  | Busy s -> "busy: " ^ s
  | Other s -> s

let check (want : expect) (got : reply) : (unit, string) result =
  let bad () = Error ("unexpected reply: " ^ describe got) in
  match want, got with
  | Text t, Ok_text s -> if s = t then Ok () else bad ()
  | Prefix p, Ok_text s ->
      if String.length s >= String.length p && String.sub s 0 (String.length p) = p then Ok ()
      else bad ()
  | (Multiset rows | Ordered_on (_, rows)), Rows lines -> (
      match List.map (fun l -> Rows.values (Rows.parse l)) lines with
      | exception Rows.Bad m -> Error ("unparsable row: " ^ m)
      | parsed ->
          let order_ok = match want with Ordered_on (c, _) -> sorted_on c parsed | _ -> true in
          if not order_ok then Error ("rows out of ORDER BY order: " ^ describe got)
          else if rows_match parsed rows then Ok ()
          else bad ())
  | _ -> bad ()
