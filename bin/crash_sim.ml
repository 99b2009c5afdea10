(* Seeded simulation runner: the CI gate for recovery, replication,
   MVCC, value joins, 2PC, group commit and vectorized scans.

   For every phase in Mood_sim.Phases.all it runs MOOD_SIM_QUOTA
   seeded cycles (default 200, at least 1) from MOOD_SIM_SEED
   (default 1) and prints the summed counts. Then it runs the phase's
   negative control: sabotaged cycles from MOOD_SIM_SEED until the
   oracle catches one, at most Phase.control_bound of them. Every
   phase runs even after an earlier one fails. Any violation, or a
   control that catches nothing, exits 1; a malformed or out-of-range
   variable exits 2. Every violation prints its phase, seed and crash
   site, so the failure reproduces exactly with

     MOOD_SIM_QUOTA=1 MOOD_SIM_SEED=<seed> dune exec bin/crash_sim.exe *)

module Phase = Mood_sim.Phase

let env_int name default =
  match Sys.getenv_opt name with
  | None | Some "" -> default
  | Some s -> (
      match int_of_string_opt s with
      | Some n -> n
      | None ->
          Printf.eprintf "mood_sim: %s=%S is not an integer\n" name s;
          exit 2)

(* One phase: its clean sweep, then its negative control. [true] when
   both passed. *)
let run_phase ~quota ~base_seed (phase : Phase.t) =
  let report = Phase.run phase ~quota ~base_seed in
  Format.printf "@[<hov 2>mood_sim: %s, seeds %d..%d: %a@]@." phase.name base_seed
    (base_seed + quota - 1) Phase.pp_report report;
  List.iter
    (fun (seed, site, message) ->
      Format.printf "VIOLATION %s seed=%d crash=[%s]@.  %s@." phase.name seed site
        message)
    report.violations;
  let controlled =
    match Phase.control phase ~base_seed with
    | Some o ->
        Format.printf "mood_sim: %s negative control caught at seed %d: %d violation(s)@."
          phase.name o.seed (List.length o.violations);
        true
    | None ->
        Format.printf
          "%s ORACLE TOOTHLESS: sabotaged cycles at seeds %d..%d caught nothing@."
          (String.uppercase_ascii phase.name) base_seed
          (base_seed + Phase.control_bound - 1);
        false
  in
  report.violations = [] && controlled

let () =
  let quota = env_int "MOOD_SIM_QUOTA" 200 in
  if quota < 1 then begin
    Printf.eprintf "mood_sim: MOOD_SIM_QUOTA=%d, want at least 1\n" quota;
    exit 2
  end;
  let base_seed = env_int "MOOD_SIM_SEED" 1 in
  let passed =
    List.fold_left
      (fun passed phase -> run_phase ~quota ~base_seed phase && passed)
      true Mood_sim.Phases.all
  in
  if not passed then begin
    Format.printf
      "reproduce one: MOOD_SIM_QUOTA=1 MOOD_SIM_SEED=<seed> dune exec bin/crash_sim.exe@.";
    exit 1
  end
