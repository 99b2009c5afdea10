(* Tests of the benchmark itself: the row parser and comparisons, the
   oracle's negative controls, and exact repetition of program counters
   on the single-connection workloads. *)

open Moodbench

let failures = ref 0

let test name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let verdict want lines = Oracle.check want (Oracle.Rows lines) = Ok ()

let parser_and_comparisons () =
  let open Oracle in

  test "tuple row" (verdict (Multiset [ [ I 12; S "Ankara" ] ]) [ "<v.id: 12, c.location: \"Ankara\">" ]);
  test "long and float"
    (verdict (Multiset [ [ I 3; I 7; F (7. /. 3.) ] ]) [ "<COUNT(*): 3, SUM(v.weight): 7L, AVG(v.weight): 2.33333>" ]);
  test "float beyond rendering precision is wrong"
    (not (verdict (Multiset [ [ F 2.5 ] ]) [ "<AVG(e.size): 2.50001>" ]));
  test "escaped string" (verdict (Multiset [ [ S "a\"b" ] ]) [ "<n: \"a\\\"b\">" ]);
  test "oid is parsed, not compared"
    (match Rows.parse "<v: <8:1>>" with Rows.Tuple [ (_, Rows.Oid _) ] -> true | _ -> false);
  test "multiset ignores order"
    (verdict (Multiset [ [ I 1 ]; [ I 2 ]; [ I 2 ] ]) [ "<v.id: 2>"; "<v.id: 1>"; "<v.id: 2>" ]);
  test "multiset counts duplicates" (not (verdict (Multiset [ [ I 1 ]; [ I 2 ] ]) [ "<v.id: 2>"; "<v.id: 1>"; "<v.id: 2>" ]));
  test "ORDER BY checked on the sort key"
    (verdict (Ordered_on (0, [ [ S "b"; I 1 ]; [ S "a"; I 2 ] ])) [ "<l: \"a\", n: 2>"; "<l: \"b\", n: 1>" ]);
  test "ORDER BY violation caught"
    (not (verdict (Ordered_on (0, [ [ S "b"; I 1 ]; [ S "a"; I 2 ] ])) [ "<l: \"b\", n: 1>"; "<l: \"a\", n: 2>" ]));
  test "ok text" (Oracle.check (Text "updated 3") (Ok_text "updated 3") = Ok ());
  test "error reply fails" (Oracle.check (Text "updated 3") (Err "boom") <> Ok ())

(* A short htap run over the wire: clean, then with the oracle's
   prediction perturbed, then with acknowledged writes dropped from the
   model. Each sabotage must surface as failed operations. *)
let negative_controls () =
  let inp = Inputs.make Gen.Htap 5 in
  let run sabotage = Wire_run.run ~passes:4 ?sabotage ~setups:1 ~seconds:1. inp in
  let clean = run None in
  test "htap clean run has no failures" (clean.Wire_run.tally.Runner.failed = 0);
  let perturbed = run (Some Oracle.Perturb_expected) in
  test "perturbed expected answers fail" (perturbed.Wire_run.tally.Runner.failed > 0);
  let dropped = run (Some Oracle.Drop_ack) in
  test "dropped acknowledged writes fail" (dropped.Wire_run.tally.Runner.failed > 0)

let families = [ "disk."; "buffer."; "scan."; "wal."; "mvcc."; "plan_cache."; "join." ]

let counted snap =
  List.filter
    (fun (k, _) -> List.exists (fun f -> String.length k > String.length f && String.sub k 0 (String.length f) = f) families)
    snap

(* olap and htap run on one connection, so the program's counters over
   the measured phase repeat exactly for a seed — over the wire and in
   the in-process replay. *)
let exact_counts () =
  List.iter
    (fun w ->
      let inp = Inputs.make w 3 in
      let wire () = counted (Wire_run.run ~passes:2 ~setups:1 ~seconds:1. inp).Wire_run.stats_delta in
      let replay () = counted (Replay.run ~traced:false inp).Replay.counters in
      let a = wire () and b = wire () in
      test (Gen.workload_name w ^ " wire counters repeat exactly") (a = b && a <> []);
      if a <> b then
        List.iter2
          (fun (k, x) (_, y) -> if x <> y then Printf.printf "    %s: %d vs %d\n" k x y)
          a b;
      let c = replay () and d = replay () in
      test (Gen.workload_name w ^ " replay counters repeat exactly") (c = d && c <> []);
      if c <> d then
        List.iter2
          (fun (k, x) (_, y) -> if x <> y then Printf.printf "    %s: %d vs %d\n" k x y)
          c d)
    [ Gen.Olap; Gen.Htap ]

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  parser_and_comparisons ();
  negative_controls ();
  exact_counts ();
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
