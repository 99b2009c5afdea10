(* Running operations against a connection — the wire client or the
   in-process kernel — and checking every reply with the oracle. *)

type sample = {
  cls : Gen.cls;
  shape : string;  (* Gen.op_shape *)
  lat : float;   (* seconds from first send to final reply; infinity if failed *)
  pass : int;    (* olap pass / htap cycle; -1 for oltp *)
  finish : float;  (* wall-clock time of the final reply *)
}

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (* the first few failures, for the report *)
  lock : Mutex.t;
}

let tally () = { attempted = 0; failed = 0; errors = []; lock = Mutex.create () }

let count t ok what =
  Mutex.lock t.lock;
  t.attempted <- t.attempted + 1;
  (match ok with
  | Ok () -> ()
  | Error e ->
      t.failed <- t.failed + 1;
      if List.length t.errors < 5 then t.errors <- (what ^ ": " ^ e) :: t.errors);
  Mutex.unlock t.lock

(* Runs one operation's statements. A failed statement inside an open
   transaction is followed by ABORT so the session stays usable. The
   effect of the operation reaches the model only when every reply was
   the predicted one. Returns the latency and the verdict. *)
let run_op ~(exec : Gen.step -> Oracle.reply) model op =
  let steps, effect = Oracle.plan model op in
  let t0 = Unix.gettimeofday () in
  let rec go in_txn = function
    | [] -> Ok ()
    | (step, want) :: rest -> (
        let r = exec step in
        match Oracle.check want r with
        | Ok () ->
            let in_txn =
              match step with Gen.Begin -> true | Gen.Commit | Gen.Abort -> false | Gen.Sql _ -> in_txn
            in
            go in_txn rest
        | Error e ->
            (match step, r with
            | (Gen.Commit | Gen.Abort), _ | _, Oracle.Aborted _ -> ()
            | _ -> if in_txn then ignore (exec Gen.Abort));
            Error e)
  in
  let verdict = go false steps in
  let t1 = Unix.gettimeofday () in
  if verdict = Ok () then effect ();
  ((if verdict = Ok () then t1 -. t0 else infinity), t1, verdict)
