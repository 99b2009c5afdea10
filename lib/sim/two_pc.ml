(* Deterministic two-phase-commit simulation over three shard [Db.t]s.

   Keys are placed by [key mod 3]; each shard runs the harness schema.
   Global transactions run session transactions on the shards they
   touch. One that touched a single shard commits locally; one that
   touched several runs the router's protocol: a force-written
   allocation fence in the coordinator's [Decision_log], a PREPARE per
   leg ([Db.prepare_session_txn]), the force-written commit decision,
   then a DECIDE per leg ([Db.decide_txn]). A seeded fuse crashes the
   whole cluster at any of the protocol's intermediate sites, after
   which every shard loses its dirty frames and unpersisted log tail
   and runs [Db.recover]; the coordinator reopens its log, replays it,
   and decides each shard's in-doubt transactions ([Db.indoubt_txns]):
   a logged commit commits, anything else is presumed aborted. The
   union of the shards' contents must equal the oracle's committed
   bindings, whose commit point is the decision reaching the log.

   [sabotage] blows the fuse right after a durable commit decision and
   resolves every in-doubt gid as abort, ignoring the replayed log. *)

module Prng = Mood_util.Prng
module Db = Mood.Db
module Store = Mood_storage.Store
module Buffer_pool = Mood_storage.Buffer_pool
module Wal = Mood_storage.Wal
module Decision_log = Mood_shard.Decision_log

exception Crash of string

let shard_count = 3
let key_space = 60
let max_open_txns = 3

type leg = { l_shard : int; l_txn : Db.session_txn }
type gtxn = { g_id : int; mutable g_legs : leg list; mutable g_ops : int }

let cycle ~sabotage ~seed =
  let root = Prng.create ~seed in
  let p_work = Prng.split root in
  let p_fault = Prng.split root in
  let buffer_capacity = 4 + Prng.int p_fault ~bound:12 in
  let shards = Array.init shard_count (fun _ -> Harness.sim_db ~buffer_capacity) in
  let path = Filename.temp_file "mood_sim_2pc" ".log" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let dlog, _ = Decision_log.open_ ~path in
  let model = Model.create () in
  (* The fuse counts 2PC protocol sites, not workload steps: every
     intermediate state of the commit protocol is a reachable crash
     point. Under sabotage it is rigged to blow immediately after a
     commit decision turns durable, with every delivery still pending. *)
  let fuse =
    if sabotage then None
    else if Prng.bool p_fault then Some (ref (1 + Prng.int p_fault ~bound:60))
    else None
  in
  let site name =
    if sabotage then begin
      if name = "coord_after_decision" then raise (Crash name)
    end
    else
      match fuse with
      | Some n ->
          decr n;
          if !n <= 0 then raise (Crash name)
      | None -> ()
  in
  let step_budget = if sabotage then 600 else 1 + Prng.int p_fault ~bound:250 in
  let open_g : gtxn list ref = ref [] in
  let next_gid = ref 1 in
  let steps = ref 0 in
  let commits_1pc = ref 0 in
  let commits_2pc = ref 0 in
  let aborts = ref 0 in
  let deadlocks = ref 0 in
  let checkpoints = ref 0 in
  let leg_for g shard =
    match List.find_opt (fun l -> l.l_shard = shard) g.g_legs with
    | Some l -> l
    | None ->
        let leg = { l_shard = shard; l_txn = Db.begin_session_txn shards.(shard) } in
        g.g_legs <- leg :: g.g_legs;
        leg
  in
  let finish g = open_g := List.filter (fun o -> o != g) !open_g in
  let decide l ~gid ~commit =
    let want = if commit then `Committed else `Aborted in
    if Db.decide_txn shards.(l.l_shard) ~gid ~commit <> want then
      failwith (Printf.sprintf "shard %d: decide gid %d went astray" l.l_shard gid)
  in
  let do_abort g =
    List.iter (fun l -> Db.abort_session_txn shards.(l.l_shard) l.l_txn) g.g_legs;
    Model.abort model g.g_id;
    incr aborts;
    finish g
  in
  let do_commit g =
    match List.sort (fun a b -> compare a.l_shard b.l_shard) g.g_legs with
    | [] ->
        Model.commit model g.g_id;
        finish g
    | [ l ] ->
        (* Single shard touched: its local commit is the commit. *)
        let db = shards.(l.l_shard) in
        let ticket = Db.commit_session_txn_nodurable db l.l_txn in
        site (Printf.sprintf "part%d_before_commit_force" l.l_shard);
        ignore (Wal.force_group (Store.wal (Db.store db)) ticket);
        Model.commit model g.g_id;
        incr commits_1pc;
        finish g
    | legs ->
        let gid = !next_gid in
        incr next_gid;
        (* The allocation fence: the gid's verdict is abort until a
           commit decision supersedes it. *)
        Decision_log.append dlog ~gid ~commit:false;
        List.iter
          (fun l ->
            site (Printf.sprintf "part%d_before_prepare" l.l_shard);
            (match Db.prepare_session_txn shards.(l.l_shard) l.l_txn ~gid with
            | Ok () -> ()
            | Error m -> failwith m);
            site (Printf.sprintf "part%d_after_prepare" l.l_shard))
          legs;
        if Prng.int p_work ~bound:12 = 0 then begin
          (* Unanimous yes but the coordinator aborts anyway (client
             rollback after prepare); a crash mid-delivery leaves the
             rest in doubt, and the fence resolves them to abort. *)
          Model.abort model g.g_id;
          incr aborts;
          List.iter
            (fun l ->
              site (Printf.sprintf "part%d_in_abort_decide" l.l_shard);
              decide l ~gid ~commit:false)
            legs;
          finish g
        end
        else begin
          site "coord_before_decision";
          Decision_log.append dlog ~gid ~commit:true;
          (* Commit point: the decision is durable. Everything after
             this line — including a crash before any delivery — must
             still converge to a committed transaction. *)
          Model.commit model g.g_id;
          incr commits_2pc;
          site "coord_after_decision";
          List.iter
            (fun l ->
              site (Printf.sprintf "part%d_in_decide" l.l_shard);
              decide l ~gid ~commit:true)
            legs;
          finish g
        end
  in
  let random_data () =
    Printf.sprintf "v%d-%s"
      (Prng.int p_work ~bound:1000)
      (String.make (1 + Prng.int p_work ~bound:20) 'x')
  in
  let do_op g =
    let key = Prng.int p_work ~bound:key_space in
    let shard = key mod shard_count in
    let cls = Harness.class_of key in
    let leg = leg_for g shard in
    let stmt, mirror =
      match Model.find_live model key with
      | None ->
          let data = random_data () in
          ( Printf.sprintf "new %s <%d, '%s'>" cls key data,
            fun () -> Model.insert model ~txn:g.g_id ~key ~data )
      | Some _ when Prng.bool p_work ->
          let data = random_data () in
          ( Printf.sprintf "UPDATE %s s SET data = '%s' WHERE s.k = %d" cls data key,
            fun () -> Model.update model ~txn:g.g_id ~key ~data )
      | Some _ ->
          ( Printf.sprintf "DELETE FROM %s s WHERE s.k = %d" cls key,
            fun () -> Model.delete model ~txn:g.g_id ~key )
    in
    match Db.exec_in_txn shards.(shard) leg.l_txn stmt with
    | Ok _ ->
        g.g_ops <- g.g_ops + 1;
        mirror ()
    | Error Db.Txn_busy -> () (* held by another global transaction: skip *)
    | Error Db.Txn_deadlock ->
        incr deadlocks;
        do_abort g
    | Error (Db.Txn_fail m | Db.Txn_redirect m) -> failwith (stmt ^ ": " ^ m)
  in
  let crash_point = ref "op-budget" in
  let live =
    Harness.guard "workload" (fun () ->
        (try
           while true do
             if !steps >= step_budget then raise (Crash "op-budget");
             incr steps;
             if Prng.int p_work ~bound:25 = 0 then begin
               Db.checkpoint shards.(Prng.int p_work ~bound:shard_count);
               incr checkpoints
             end
             else begin
               if
                 !open_g = []
                 || List.length !open_g < max_open_txns && Prng.int p_work ~bound:4 = 0
               then begin
                 let g = { g_id = !next_gid; g_legs = []; g_ops = 0 } in
                 incr next_gid;
                 Model.begin_txn model g.g_id;
                 open_g := g :: !open_g
               end;
               let g = List.nth !open_g (Prng.int p_work ~bound:(List.length !open_g)) in
               if g.g_ops > 0 && Prng.int p_work ~bound:5 = 0 then
                 if Prng.int p_work ~bound:4 = 0 then do_abort g else do_commit g
               else do_op g
             end
           done
         with Crash point -> crash_point := point);
        [])
  in
  (* The cluster-wide crash: every shard loses dirty frames and its
     unpersisted log tail, the oracle discards every pending
     transaction. The decision log forced every append, so it loses
     nothing; the coordinator restarts by replaying it. *)
  Array.iter
    (fun db ->
      let store = Db.store db in
      ignore (Buffer_pool.crash (Store.buffer store));
      ignore (Wal.lose_unpersisted (Store.wal store)))
    shards;
  Decision_log.close dlog;
  Model.crash model;
  let indoubt = ref 0 in
  let resolved_commits = ref 0 in
  let resolved_aborts = ref 0 in
  let index_checks = ref 0 in
  let post =
    Harness.guard "recovery" (fun () ->
        let dlog, replayed = Decision_log.open_ ~path in
        Fun.protect ~finally:(fun () -> Decision_log.close dlog) @@ fun () ->
        (* Replay folds oldest first: a commit decision supersedes the
           gid's allocation fence. *)
        let committed gid =
          List.fold_left (fun acc (g, c) -> if g = gid then c else acc) false replayed
        in
        let per_shard =
          List.concat
            (List.mapi
               (fun s db ->
                 ignore (Db.recover db);
                 List.iter
                   (fun (gid, _) ->
                     incr indoubt;
                     let commit = (not sabotage) && committed gid in
                     match Db.decide_txn db ~gid ~commit with
                     | `Committed -> incr resolved_commits
                     | `Aborted -> incr resolved_aborts
                     | `Unknown -> failwith (Printf.sprintf "in-doubt gid %d unknown" gid))
                   (Db.indoubt_txns db);
                 incr index_checks;
                 let problems = Harness.check_indexes db in
                 let refused = Harness.probe_write db in
                 List.map (Printf.sprintf "shard %d: %s" s) (problems @ refused))
               (Array.to_list shards))
        in
        Harness.against_oracle "recovered shard union"
          (List.sort compare (List.concat_map Harness.contents (Array.to_list shards)))
          (Model.committed_bindings model)
        @ per_shard)
  in
  { Phase.seed;
    site = !crash_point;
    counts =
      [ ("steps", !steps);
        ("one-phase commits", !commits_1pc);
        ("two-phase commits", !commits_2pc);
        ("aborts", !aborts);
        ("deadlock victims", !deadlocks);
        ("checkpoints", !checkpoints);
        ("in-doubt", !indoubt);
        ("resolved commit", !resolved_commits);
        ("resolved abort", !resolved_aborts);
        ("index checks", !index_checks)
      ];
    violations = live @ post
  }

let phase = { Phase.name = "2pc"; cycle; caught = Phase.violated }
