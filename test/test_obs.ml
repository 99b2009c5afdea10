(* The metrics registry: counters, histograms, pull sources,
   snapshot/diff semantics, and the disabled no-op path. *)

module Metrics = Mood_obs.Metrics

let snap_value snap name =
  match List.assoc_opt name snap with
  | Some v -> v
  | None -> Alcotest.failf "snapshot is missing %s" name

let test_counter_basics () =
  let t = Metrics.create () in
  let c = Metrics.counter t "stmt.select" in
  Alcotest.(check int) "starts at zero" 0 (Metrics.value c);
  Metrics.incr c;
  Metrics.incr c;
  Metrics.add c 5;
  Alcotest.(check int) "incr and add" 7 (Metrics.value c);
  (* interned: the same name is the same cell *)
  let c' = Metrics.counter t "stmt.select" in
  Metrics.incr c';
  Alcotest.(check int) "same name shares the cell" 8 (Metrics.value c);
  Alcotest.(check int) "snapshot agrees" 8
    (snap_value (Metrics.snapshot t) "stmt.select")

let test_disabled_freezes () =
  let t = Metrics.create () in
  let c = Metrics.counter t "e" in
  Metrics.incr c;
  Metrics.set_enabled t false;
  Alcotest.(check bool) "reports disabled" false (Metrics.enabled t);
  Metrics.incr c;
  Metrics.add c 100;
  Alcotest.(check int) "disabled increments dropped" 1 (Metrics.value c);
  Metrics.set_enabled t true;
  Metrics.incr c;
  Alcotest.(check int) "re-enabled counts again" 2 (Metrics.value c)

let test_source_and_diff () =
  let live = ref 10 in
  let t = Metrics.create () in
  Metrics.register_source t (fun () -> [ ("component.events", !live) ]);
  let c = Metrics.counter t "pushed" in
  Metrics.incr c;
  let s = Metrics.snapshot t in
  Alcotest.(check int) "source read at snapshot" 10 (snap_value s "component.events");
  Alcotest.(check int) "pushed counter present" 1 (snap_value s "pushed");
  live := 25;
  Alcotest.(check int) "source tracks the component" 25
    (snap_value (Metrics.snapshot t) "component.events");
  (* a baseline snapshot measures change without touching the component *)
  let before = Metrics.snapshot t in
  let since () = Metrics.diff ~before ~after:(Metrics.snapshot t) in
  Alcotest.(check int) "component untouched by snapshots" 25 !live;
  let d = since () in
  Alcotest.(check int) "source delta starts at zero" 0 (snap_value d "component.events");
  Alcotest.(check int) "counter delta starts at zero" 0 (snap_value d "pushed");
  live := 31;
  Alcotest.(check int) "delta since the baseline only" 6
    (snap_value (since ()) "component.events")

let test_snapshot_sorted_and_diff () =
  let t = Metrics.create () in
  Metrics.add (Metrics.counter t "zebra") 1;
  Metrics.add (Metrics.counter t "apple") 2;
  Metrics.add (Metrics.counter t "mango") 3;
  let before = Metrics.snapshot t in
  Alcotest.(check (list string))
    "sorted by key"
    [ "apple"; "mango"; "zebra" ]
    (List.map fst before);
  Metrics.add (Metrics.counter t "zebra") 4;
  Metrics.add (Metrics.counter t "newcomer") 9;
  let after = Metrics.snapshot t in
  let d = Metrics.diff ~before ~after in
  Alcotest.(check int) "unchanged key diffs to 0" 0 (snap_value d "apple");
  Alcotest.(check int) "grown key" 4 (snap_value d "zebra");
  Alcotest.(check int) "new key counts from 0" 9 (snap_value d "newcomer")

let test_histogram () =
  let t = Metrics.create () in
  let h = Metrics.histogram t "lat" in
  Metrics.observe h 0.00005;
  (* 50µs: first bucket *)
  Metrics.observe h 0.005;
  (* 5ms: le_10ms *)
  Metrics.observe h 50.;
  (* over every bound: only le_inf *)
  let s = Metrics.snapshot t in
  Alcotest.(check int) "count" 3 (snap_value s "lat.count");
  Alcotest.(check int) "le_100us" 1 (snap_value s "lat.le_100us");
  Alcotest.(check int) "le_1ms (cumulative)" 1 (snap_value s "lat.le_1ms");
  Alcotest.(check int) "le_10ms (cumulative)" 2 (snap_value s "lat.le_10ms");
  Alcotest.(check int) "le_inf holds everything" 3 (snap_value s "lat.le_inf");
  Alcotest.(check int) "sum in microseconds"
    (int_of_float (Float.round ((0.00005 +. 0.005 +. 50.) *. 1e6)))
    (snap_value s "lat.sum_us");
  (* disabled observations vanish *)
  Metrics.set_enabled t false;
  Metrics.observe h 1.;
  Metrics.set_enabled t true;
  Alcotest.(check int) "disabled observe dropped" 3
    (snap_value (Metrics.snapshot t) "lat.count")

let test_render () =
  let t = Metrics.create () in
  Metrics.add (Metrics.counter t "b") 2;
  Metrics.add (Metrics.counter t "a") 1;
  Alcotest.(check string) "one line per entry" "a 1\nb 2"
    (Metrics.render (Metrics.snapshot t))

let suites =
  [ ( "obs.metrics",
      [ Alcotest.test_case "counter basics" `Quick test_counter_basics;
        Alcotest.test_case "disabled is a no-op" `Quick test_disabled_freezes;
        Alcotest.test_case "sources and diff" `Quick test_source_and_diff;
        Alcotest.test_case "snapshot sort and diff" `Quick test_snapshot_sorted_and_diff;
        Alcotest.test_case "histogram buckets" `Quick test_histogram;
        Alcotest.test_case "render" `Quick test_render
      ] )
  ]
