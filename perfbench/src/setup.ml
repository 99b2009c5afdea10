(* Builds a workload's database through [Mood.Db]'s public functions and
   times each set-up phase. *)

module Db = Mood.Db
module Value = Mood_model.Value

type phases = {
  ddl_s : float;
  load_s : float;      (* bulk Db.insert *)
  index_s : float;     (* CREATE INDEX *)
  analyze_s : float;   (* ALTER CLASS ... SET LAYOUT PAX and ANALYZE *)
  pax_s : float;       (* building the PAX segments *)
}

let exec_ok db sql =
  match Db.exec db sql with
  | Ok _ -> ()
  | Error m -> failwith (Printf.sprintf "set-up statement failed: %s: %s" sql m)

let build w (d : Gen.data) =
  let now = Unix.gettimeofday in
  let db = Db.create () in
  let t0 = now () in
  List.iter (exec_ok db) Gen.schema_ddl;
  let t1 = now () in
  let insert cls fields = Db.insert db ~class_name:cls (Value.Tuple fields) in
  let engines =
    Array.map
      (fun (size, cyl) -> insert "VehicleEngine" [ ("size", Value.Int size); ("cylinders", Value.Int cyl) ])
      d.Gen.engines
  in
  let drivetrains =
    Array.map
      (fun (e, tr) ->
        insert "VehicleDriveTrain" [ ("engine", Value.Ref engines.(e)); ("transmission", Value.Str tr) ])
      d.Gen.drivetrains
  in
  let companies =
    Array.map
      (fun (name, loc) ->
        insert "Company"
          [ ("name", Value.Str name); ("location", Value.Str loc); ("president", Value.Null) ])
      d.Gen.companies
  in
  Array.iter
    (fun (v : Gen.vehicle) ->
      ignore
        (insert v.Gen.cls
           [ ("id", Value.Int v.Gen.id);
             ("weight", Value.Int v.Gen.weight);
             ("drivetrain", Value.Ref drivetrains.(v.Gen.dt));
             ("company", Value.Ref companies.(v.Gen.co))
           ]))
    d.Gen.vehicles;
  let t2 = now () in
  List.iter (exec_ok db) (Gen.index_ddl w);
  let t3 = now () in
  List.iter
    (fun c -> exec_ok db (Printf.sprintf "ALTER CLASS %s SET LAYOUT PAX" c))
    (Gen.pax_classes w);
  Db.analyze db;
  let t4 = now () in
  List.iter
    (fun c ->
      Option.iter Mood_column.Pax_store.materialize
        (Mood_catalog.Catalog.pax_store (Db.catalog db) c))
    (Gen.pax_classes w);
  let t5 = now () in
  ( db,
    { ddl_s = t1 -. t0; load_s = t2 -. t1; index_s = t3 -. t2; analyze_s = t4 -. t3; pax_s = t5 -. t4 } )
