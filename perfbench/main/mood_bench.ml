(* One workload of the MOOD benchmark, end to end:

     mood_bench --workload oltp|olap|htap --seed N --seconds S --trace 0|1

   Inputs are generated from the seed; the database is built and served
   by a forked server process; clients drive it over the wire and every
   reply is checked. The last line of standard output is one JSON object
   with the verdict and the metrics: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1 (which also replays
   the workload in-process with spans, and writes the spans and counters
   under perfbench/out). *)

open Moodbench

let usage () =
  prerr_endline
    "usage: mood_bench --workload oltp|olap|htap --seed N --seconds S --trace 0|1";
  exit 2

(* Set-ups per run; setup_s is their median. *)
let setups = 5

let write_counters path (wire : Wire_run.result) (tr : Replay.result) =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun (k, v) -> Printf.fprintf oc "wire %s %d\n" k v) wire.Wire_run.stats_delta;
      List.iter (fun (k, v) -> Printf.fprintf oc "replay %s %d\n" k v) tr.Replay.counters;
      List.iter
        (fun (l, s) -> Printf.fprintf oc "self_s %s %.6f\n" l s)
        (Tracer.self_times tr.Replay.tracer);
      List.iter
        (fun a ->
          Printf.fprintf oc "query %s est_s=%.6f modeled_io_s=%.6f wall_s=%.6f rows_examined=%d rows=%d\n"
            (Gen.query_name a.Replay.query) a.Replay.est_cost_s a.Replay.modeled_io_s a.Replay.wall_s
            a.Replay.rows_examined a.Replay.rows_returned)
        tr.Replay.analyses)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> parse ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  if List.exists (fun (k, _) -> not (List.mem k [ "--workload"; "--seed"; "--seconds"; "--trace" ])) opts
  then usage ();
  let opt k = List.assoc_opt k opts in
  let int k = Option.map (fun v -> match int_of_string_opt v with Some i -> i | None -> usage ()) (opt k) in
  let w = match Option.bind (opt "--workload") Gen.workload_of_string with Some w -> w | None -> usage () in
  let seed = match int "--seed" with Some s -> s | None -> usage () in
  let seconds = match int "--seconds" with Some s when s > 0 -> float_of_int s | _ -> usage () in
  let trace = match int "--trace" with Some 0 -> false | Some 1 -> true | _ -> usage () in
  let out = "perfbench/out" in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let inp = Inputs.make w seed in
  let wire = Wire_run.run ~setups ~seconds inp in
  Report.print_human wire;
  if not trace then begin
    let t = wire.Wire_run.tally in
    Report.print_result ~correct:(t.Runner.failed = 0) ~attempted:t.Runner.attempted
      ~failed:t.Runner.failed (Report.end_to_end wire)
  end
  else begin
    let untraced = Replay.run ~traced:false inp in
    let traced = Replay.run ~traced:true inp in
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    let base = Filename.concat out (Printf.sprintf "%s-seed%d" (Gen.workload_name w) seed) in
    Tracer.write traced.Replay.tracer (base ^ "-spans.jsonl");
    write_counters (base ^ "-counters.txt") wire traced;
    Printf.printf "spans and counters written to %s-*\n" base;
    let ts = [ wire.Wire_run.tally; untraced.Replay.tally; traced.Replay.tally ] in
    let sum f = List.fold_left (fun a t -> a + f t) 0 ts in
    let failed = sum (fun t -> t.Runner.failed) in
    List.iter
      (fun t -> List.iter (fun e -> Printf.printf "FAILED (replay) %s\n" e) (List.rev t.Runner.errors))
      [ untraced.Replay.tally; traced.Replay.tally ];
    Report.print_result ~correct:(failed = 0) ~attempted:(sum (fun t -> t.Runner.attempted)) ~failed
      (Report.per_layer ~wire ~traced ~untraced)
  end
