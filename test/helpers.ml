(* Helpers shared by the test suites. *)

(* [contains s sub]: [sub] occurs in [s]. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Each query of [queries] answers the same rows (as a sorted multiset)
   under [SET SCAN_FORCE ROW] and [SET SCAN_FORCE VECTOR], and after
   the vectorized runs every page of [cls]'s PAX segment holds what a
   fresh build from the heap gives. Leaves the scan setting at
   DEFAULT. *)
let pax_matches_heap db ~cls queries =
  let module Db = Mood.Db in
  let module Catalog = Mood_catalog.Catalog in
  let set force =
    match Db.exec db ("SET SCAN_FORCE " ^ force) with
    | Ok _ -> ()
    | Error m -> Alcotest.fail m
  in
  let answer force src =
    set force;
    Db.query db src |> Mood_executor.Executor.result_values
    |> List.map Mood_model.Value.to_string |> List.sort String.compare
  in
  List.iter
    (fun src ->
      let row = answer "ROW" src in
      Alcotest.(check (list string)) (src ^ ": vector = row") row (answer "VECTOR" src))
    queries;
  set "DEFAULT";
  match Catalog.pax_store (Db.catalog db) cls with
  | Some ps ->
      Alcotest.(check (list string)) (cls ^ ": batches = a fresh build") []
        (Mood_sim.Scan_oracle.batch_mismatches ps (Catalog.own_extent (Db.catalog db) cls))
  | None -> Alcotest.failf "%s has no PAX segment" cls
