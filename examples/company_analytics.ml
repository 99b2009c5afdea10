(* Analytics over the Company/Employee side of the schema: grouping,
   having, ordering, disjunctive queries (DNF -> UNION), parameterized
   methods, indexes, and the rollback of a failing statement.

   Run with: dune exec examples/company_analytics.exe *)

module Db = Mood.Db
module Qm = Mood_moodview.Query_manager
module Value = Mood_model.Value
module Prng = Mood_util.Prng

let run qm src =
  print_endline ("mood> " ^ src);
  print_endline (Qm.run qm src);
  print_newline ()

let () =
  let db = Db.create () in
  let qm = Qm.create db in
  Mood_workload.Vehicle.define_schema (Db.catalog db);

  (* Populate employees programmatically, with references to companies. *)
  let rng = Prng.create ~seed:2026 in
  let locations = [| "Ankara"; "Istanbul"; "Izmir" |] in
  let companies =
    Array.init 6 (fun i ->
        Db.insert db ~class_name:"Company"
          (Value.Tuple
             [ ("name", Value.Str (Printf.sprintf "Firm-%d" i));
               ("location", Value.Str locations.(i mod 3))
             ]))
  in
  Array.iteri
    (fun i company ->
      for j = 0 to 9 do
        let president = j = 0 in
        let e =
          Db.insert db ~class_name:"Employee"
            (Value.Tuple
               [ ("ssno", Value.Int ((100 * i) + j));
                 ("name", Value.Str (Printf.sprintf "emp-%d-%d" i j));
                 ("age", Value.Int (22 + Prng.int rng ~bound:40))
               ])
        in
        if president then
          ignore
            (Mood_catalog.Catalog.update_object (Db.catalog db) company
               (Value.Tuple
                  [ ("name", Value.Str (Printf.sprintf "Firm-%d" i));
                    ("location", Value.Str locations.(i mod 3));
                    ("president", Value.Ref e)
                  ]))
      done)
    companies;
  Db.analyze db;

  (* Parameterized method defined at run time. *)
  run qm "DEFINE METHOD Employee::older_than (limit Integer) Boolean { return age > limit; }";

  print_endline "-- Aggregates over the whole extent";
  run qm "SELECT COUNT(*), AVG(e.age), MIN(e.age), MAX(e.age) FROM Employee e";

  print_endline "-- Grouping companies by location (GROUP BY + HAVING + ORDER BY)";
  run qm
    "SELECT c.location, COUNT(*) FROM Company c GROUP BY c.location \
     HAVING COUNT(*) >= 2 ORDER BY c.location";

  print_endline "-- Path expression through a reference: presidents' ages";
  run qm "SELECT c.name, c.president.age FROM Company c WHERE c.president.age > 30 ORDER BY c.name";

  print_endline "-- Disjunction becomes a UNION of AND-term subplans (Section 7)";
  run qm "SELECT e.name FROM Employee e WHERE e.age < 25 OR e.age > 55 ORDER BY e.name";

  print_endline "-- Parameterized method in the predicate";
  run qm "SELECT e.name FROM Employee e WHERE e.older_than(58) ORDER BY e.name";

  print_endline "-- Named objects: a distinguished entry point (Section 3.2's fourth access mode)";
  run qm "NAME headquarters AS SELECT c FROM Company c WHERE c.name = 'Firm-0'";
  run qm "SELECT h.location, h.president.name FROM NAMED headquarters h";
  run qm
    "SELECT e.name FROM NAMED headquarters h, Employee e \
     WHERE e.age > h.president.age ORDER BY e.name";

  print_endline "-- An index changes the plan for selective equality queries";
  run qm "CREATE BTREE INDEX ON Employee (ssno)";
  Db.analyze db;
  print_endline (Db.explain db "SELECT e FROM Employee e WHERE e.ssno = 107");
  run qm "SELECT e.name FROM Employee e WHERE e.ssno = 107";

  print_endline "-- Transactions: a raise that fails midway is rolled back";
  (* A data write is a transaction of its own: the raise divides by
     zero at ssno 105, after the fifteen employees scanned before it
     got theirs, and the abort takes those back too. *)
  let ages () = Mood_executor.Executor.result_values (Db.query db "SELECT e.age FROM Employee e") in
  let before = ages () in
  run qm "UPDATE Employee e SET age = e.age + 1000 / (105 - e.ssno)";
  if ages () = before then print_endline "ages unchanged (rollback held)\n"
  else print_endline "ages changed: the rollback did not hold\n";

  print_endline "-- Updates and deletes through the kernel";
  run qm "UPDATE Employee e SET age = e.age + 1 WHERE e.age < 30";
  run qm "DELETE FROM Employee e WHERE e.age > 60";
  run qm "SELECT e FROM Employee e WHERE e.age > 60"
