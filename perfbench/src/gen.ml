(* Inputs of every workload: the schema as MOODSQL statements, the
   objects to bulk-load, and the operation streams the clients send.
   Everything is drawn from [Rng] seeded by the command line, before the
   set-up clock starts. Reference ratios follow the paper's Table 13:
   each drivetrain is shared by two vehicles, each vehicle has its own
   company, and engines and drivetrains are one to one. *)

type workload = Oltp | Olap | Htap

let workload_of_string = function
  | "oltp" -> Some Oltp
  | "olap" -> Some Olap
  | "htap" -> Some Htap
  | _ -> None

let workload_name = function Oltp -> "oltp" | Olap -> "olap" | Htap -> "htap"

type vehicle = {
  id : int;
  weight : int;
  cls : string;  (* Vehicle, Automobile or JapaneseAuto *)
  dt : int;      (* drivetrain index *)
  co : int;      (* company index *)
}

type data = {
  engines : (int * int) array;          (* size, cylinders *)
  drivetrains : (int * string) array;   (* engine index, transmission *)
  companies : (string * string) array;  (* name, location *)
  vehicles : vehicle array;             (* vehicle i has id i *)
}

let locations =
  [| "Ankara"; "Munich"; "Tokyo"; "Detroit"; "Istanbul"; "Turin"; "Seoul"; "Lyon" |]

let vehicle_classes = [| "Vehicle"; "Automobile"; "JapaneseAuto" |]

(* Section 3.1 of the paper, as statements. *)
let schema_ddl =
  [ "CREATE CLASS Employee TUPLE (ssno Integer, name String(32), age Integer)";
    "CREATE CLASS Company TUPLE (name String(32), location String(32), president \
     REFERENCE (Employee))";
    "CREATE CLASS VehicleEngine TUPLE (size Integer, cylinders Integer)";
    "CREATE CLASS VehicleDriveTrain TUPLE (engine REFERENCE (VehicleEngine), \
     transmission String(32))";
    "CREATE CLASS Vehicle TUPLE (id Integer, weight Integer, drivetrain REFERENCE \
     (VehicleDriveTrain), company REFERENCE (Company)) METHODS: lbweight () Integer";
    "CREATE CLASS Automobile INHERITS FROM Vehicle";
    "CREATE CLASS JapaneseAuto INHERITS FROM Automobile";
    "DEFINE METHOD Vehicle::lbweight () Integer { return weight * 2; }"
  ]

let lbweight w = w * 2

let index_ddl = function
  | Oltp -> [ "CREATE BTREE INDEX ON Vehicle (id)"; "CREATE BTREE INDEX ON Company (name)" ]
  | Olap | Htap -> [ "CREATE BTREE INDEX ON Company (name)" ]

let pax_classes = function Oltp -> [] | Olap | Htap -> [ "Company"; "VehicleEngine" ]

(* 1/10 of Table 13 for oltp, 1/4 for olap and htap. *)
let sizes = function
  | Oltp -> (2_000, 1_000, 20_000)
  | Olap | Htap -> (5_000, 2_500, 50_000)

(* Values are drawn in exact proportions and then shuffled: the seed
   decides which object gets which value, not how many objects share
   it, so the work a query does hardly depends on the seed. *)
let shuffled rng n f =
  let a = Array.init n f in
  Rng.shuffle rng a;
  a

let generate rng w =
  let n_v, n_dt, n_co = sizes w in
  (* Location i has weight i + 1, so the per-location groups differ. *)
  let weights_total = Array.length locations * (Array.length locations + 1) / 2 in
  let loc_of_rank r =
    let rec go i acc =
      let acc = acc + ((i + 1) * n_co / weights_total) in
      if r < acc || i = Array.length locations - 1 then i else go (i + 1) acc
    in
    locations.(go 0 0)
  in
  let sizes_ = shuffled rng n_dt (fun i -> 1000 + (100 * (i mod 30))) in
  let cyls = shuffled rng n_dt (fun i -> 2 * (1 + (i mod 16))) in
  let engines = Array.init n_dt (fun i -> (sizes_.(i), cyls.(i))) in
  let trans = shuffled rng n_dt (fun i -> if i mod 2 = 0 then "AUTOMATIC" else "MANUAL") in
  let drivetrains = Array.init n_dt (fun i -> (i, trans.(i))) in
  let locs = shuffled rng n_co loc_of_rank in
  let companies = Array.init n_co (fun i -> (Printf.sprintf "Co-%06d" i, locs.(i))) in
  let dts = shuffled rng n_v (fun i -> i mod n_dt) in
  let cos = shuffled rng n_co Fun.id in
  let vweights = shuffled rng n_v (fun i -> 800 + (i mod 2200)) in
  let classes = shuffled rng n_v (fun i -> vehicle_classes.(i mod 3)) in
  let vehicles =
    Array.init n_v (fun i ->
        { id = i; weight = vweights.(i); cls = classes.(i); dt = dts.(i); co = cos.(i) })
  in
  (* One company is BMW: the maker of a vehicle with a two-cylinder
     engine when there is one, so Example 8.1 has an answer. *)
  let two_cyl =
    Array.to_list vehicles
    |> List.filter (fun v -> snd engines.(fst drivetrains.(v.dt)) = 2)
  in
  let bmw_vehicle =
    match two_cyl with
    | [] -> vehicles.(Rng.int rng n_v)
    | l -> List.nth l (Rng.int rng (List.length l))
  in
  companies.(bmw_vehicle.co) <- ("BMW", snd companies.(bmw_vehicle.co));
  { engines; drivetrains; companies; vehicles }

let cylinders_of d v = snd d.engines.(fst d.drivetrains.(v.dt))

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)

type cls =
  | Point_read
  | Path_read
  | Insert
  | Update
  | Txn
  | Path_query
  | Join_query
  | Agg_query
  | Scan_query

let all_classes =
  [ Point_read; Path_read; Insert; Update; Txn; Path_query; Join_query; Agg_query; Scan_query ]

let cls_name = function
  | Point_read -> "point_read"
  | Path_read -> "path_read"
  | Insert -> "insert"
  | Update -> "update"
  | Txn -> "txn"
  | Path_query -> "path_query"
  | Join_query -> "join_query"
  | Agg_query -> "agg_query"
  | Scan_query -> "scan_query"

let is_select = function
  | Point_read | Path_read | Path_query | Join_query | Agg_query | Scan_query -> true
  | Insert | Update | Txn -> false

(* The analytic queries. Parameters are drawn from the seed. *)
type query =
  | Q_path_bmw            (* Example 8.1 *)
  | Q_path_cyl            (* Example 8.2 *)
  | Q_path_loc of string * int
  | Q_join_rows           (* hash value join *)
  | Q_join_count          (* Grace hash under the default JOIN_MEM *)
  | Q_agg_location of int (* HAVING: groups larger than n *)
  | Q_agg_cylinders
  | Q_agg_lbweight of int
  | Q_scan_location of string
  | Q_scan_engine

let query_cls = function
  | Q_path_bmw | Q_path_cyl | Q_path_loc _ -> Path_query
  | Q_join_rows | Q_join_count -> Join_query
  | Q_agg_location _ | Q_agg_cylinders | Q_agg_lbweight _ -> Agg_query
  | Q_scan_location _ | Q_scan_engine -> Scan_query

let query_sql = function
  | Q_path_bmw ->
      "SELECT v.id FROM Vehicle v WHERE v.company.name = 'BMW' AND \
       v.drivetrain.engine.cylinders = 2"
  | Q_path_cyl -> "SELECT v.id FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 2"
  | Q_path_loc (l, w) ->
      Printf.sprintf
        "SELECT v.id FROM Vehicle v WHERE v.company.location = '%s' AND v.weight > %d" l w
  | Q_join_rows ->
      "SELECT v.id, e.size FROM Vehicle v, VehicleEngine e WHERE v.weight = e.size AND \
       e.cylinders = 2"
  | Q_join_count -> "SELECT COUNT(*) FROM Vehicle v, VehicleEngine e WHERE v.weight = e.size"
  | Q_agg_location n ->
      Printf.sprintf
        "SELECT c.location, COUNT(*) FROM Company c GROUP BY c.location HAVING COUNT(*) > \
         %d ORDER BY c.location"
        n
  | Q_agg_cylinders -> "SELECT e.cylinders, COUNT(*) FROM VehicleEngine e GROUP BY e.cylinders"
  | Q_agg_lbweight x ->
      Printf.sprintf "SELECT COUNT(*), SUM(v.weight) FROM Vehicle v WHERE v.lbweight() > %d" x
  | Q_scan_location l -> Printf.sprintf "SELECT COUNT(*) FROM Company c WHERE c.location = '%s'" l
  | Q_scan_engine -> "SELECT COUNT(*), SUM(e.size), AVG(e.size) FROM VehicleEngine e"

type op =
  | Point of int                      (* vehicle id *)
  | Path of int
  | New_company of string * string    (* name, location *)
  | Update_weight of int
  | Txn_update of int * bool          (* vehicle id, commit (false: ABORT) *)
  | Update_engines of int             (* cylinders *)
  | Company_by_name of int            (* company index *)
  | Query of query

let op_cls = function
  | Point _ | Company_by_name _ -> Point_read
  | Path _ -> Path_read
  | New_company _ -> Insert
  | Update_weight _ | Update_engines _ -> Update
  | Txn_update _ -> Txn
  | Query q -> query_cls q

let query_name = function
  | Q_path_bmw -> "path_bmw"
  | Q_path_cyl -> "path_cyl"
  | Q_path_loc _ -> "path_loc"
  | Q_join_rows -> "join_rows"
  | Q_join_count -> "join_count"
  | Q_agg_location _ -> "agg_location"
  | Q_agg_cylinders -> "agg_cylinders"
  | Q_agg_lbweight _ -> "agg_lbweight"
  | Q_scan_location _ -> "scan_location"
  | Q_scan_engine -> "scan_engine"

(* Operations of one shape do the same work up to their literals. *)
let op_shape = function Query q -> query_name q | op -> cls_name (op_cls op)

let point_sql k = Printf.sprintf "SELECT v.weight FROM Vehicle v WHERE v.id = %d" k

let path_sql k =
  Printf.sprintf
    "SELECT v.company.name, v.drivetrain.engine.cylinders FROM Vehicle v WHERE v.id = %d" k

let update_sql k = Printf.sprintf "UPDATE Vehicle v SET weight = v.weight + 1 WHERE v.id = %d" k

let insert_sql name loc = Printf.sprintf "new Company <'%s', '%s', NULL>" name loc

let engines_sql c =
  Printf.sprintf "UPDATE VehicleEngine e SET size = e.size + 1 WHERE e.cylinders = %d" c

let company_sql name = Printf.sprintf "SELECT c.location FROM Company c WHERE c.name = '%s'" name

(* The statements an operation sends, transaction brackets included. *)
type step = Sql of string | Begin | Commit | Abort

(* oltp: each of the two sessions draws Zipf(0.99) keys from its own
   half of the vehicle ids, so the sessions never write the same
   object and each one's reads are exactly predictable. *)
let oltp_stream rng d ~session ~length =
  let n = Array.length d.vehicles in
  let half = n / 2 in
  let base = session * half in
  let perm = Array.init half (fun i -> base + i) in
  Rng.shuffle rng perm;
  let cdf = Rng.zipf ~n:half ~theta:0.99 in
  let key () = perm.(Rng.zipf_draw rng cdf) in
  let txns = ref 0 in
  Array.init length (fun i ->
      let r = Rng.int rng 100 in
      if r < 50 then Point (key ())
      else if r < 65 then Path (key ())
      else if r < 80 then
        New_company (Printf.sprintf "S%d-%d" session i, Rng.pick rng locations)
      else if r < 90 then Update_weight (key ())
      else begin
        incr txns;
        Txn_update (key (), !txns mod 10 <> 0)
      end)

(* olap: the fixed suite, its four classes interleaved within a pass.
   Query parameters are constants so that the work per pass does not
   depend on the seed; the seed varies only the data. *)
let olap_suite d =
  let n_co = Array.length d.companies in
  [| Q_path_bmw;
     Q_join_rows;
     Q_agg_location (n_co / Array.length locations);
     Q_scan_location "Lyon";
     Q_path_cyl;
     Q_join_count;
     Q_agg_cylinders;
     Q_scan_engine;
     Q_path_loc ("Seoul", 2500);
     Q_agg_lbweight 4800
  |]

(* htap: one cycle of writes followed by reads over the PAX classes. *)
let htap_cycles rng d ~length =
  let n_co = Array.length d.companies in
  let scans = [ Query (Q_scan_location "Lyon"); Query Q_scan_engine ] in
  let agg = Query (Q_agg_location (n_co / Array.length locations)) in
  Array.init length (fun c ->
      List.init 6 (fun j -> New_company (Printf.sprintf "H%d-%d" c j, Rng.pick rng locations))
      @ List.init 2 (fun _ -> Update_engines (2 * (1 + Rng.int rng 16)))
      @ [ Company_by_name (Rng.int rng n_co) ]
      @ scans
      @ if c mod 4 = 3 then [ agg ] else [])
