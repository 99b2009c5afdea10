(* Deterministic multi-node two-phase-commit simulation.

   Three participant shards (each its own store/WAL/lock manager/table,
   keys placed by [key mod 3]) run a seeded workload of global
   transactions against one pure Model oracle. A transaction that
   touched a single shard commits with an ordinary log force; one that
   touched several runs 2PC: every leg force-writes a [Prepare], the
   coordinator force-writes a [Decision] to its own log (presumed
   abort: only commit decisions are logged), then delivers per-leg
   [Commit] records. A seeded fuse crashes the whole cluster at any of
   the protocol's intermediate sites — before/after a vote, before the
   decision, before the decision force, mid-delivery — after which
   every shard loses its dirty frames and unpersisted log tail,
   recovers through the ARIES-lite pass, and resolves its in-doubt
   transactions from the coordinator's durable decision log (absent
   gid = presumed aborted). The union of recovered shard contents must
   equal the oracle's committed bindings, whose commit point is the
   decision record reaching the coordinator's durable prefix.

   [sabotage] skips the decision-log replay and resolves every
   in-doubt transaction as presumed-abort — with the fuse forced to
   blow right after a durable commit decision, committed effects are
   wrongly undone and the oracle must notice, proving it has teeth. *)

module Prng = Mood_util.Prng
module Store = Mood_storage.Store
module Buffer_pool = Mood_storage.Buffer_pool
module Wal = Mood_storage.Wal
module Lock = Mood_storage.Lock_manager

exception Crash of string

let shard_count = 3
let key_space = 60
let max_open_txns = 3

(* One shard-local transaction of a global one: its lock-manager
   handle is also its WAL transaction id on that shard. *)
type leg = { l_shard : int; l_txn : Lock.txn; mutable l_keys : int list }
type gtxn = { g_id : int; mutable g_legs : leg list; mutable g_ops : int }

let cycle ~sabotage ~seed =
  let root = Prng.create ~seed in
  let p_work = Prng.split root in
  let p_fault = Prng.split root in
  let buffer_capacity = 4 + Prng.int p_fault ~bound:12 in
  let stores =
    Array.init shard_count (fun _ -> Store.create ~buffer_capacity ())
  in
  let wals = Array.map Store.wal stores in
  let locks = Array.map Store.locks stores in
  let tables = Array.map (fun store -> Table.create ~store ()) stores in
  let cps : Table.checkpoint option array = Array.make shard_count None in
  let coord = Wal.create () in
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
  let step_budget =
    if sabotage then 600 else 1 + Prng.int p_fault ~bound:250
  in
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
        let l_txn = Lock.begin_txn locks.(shard) in
        ignore (Wal.append wals.(shard) (Wal.Begin (Lock.txn_id l_txn)));
        let leg = { l_shard = shard; l_txn; l_keys = [] } in
        g.g_legs <- leg :: g.g_legs;
        leg
  in
  let release g =
    List.iter (fun l -> Lock.release_all locks.(l.l_shard) l.l_txn) g.g_legs;
    open_g := List.filter (fun o -> o != g) !open_g
  in
  let do_abort g =
    List.iter
      (fun l -> Table.abort tables.(l.l_shard) ~txn:(Lock.txn_id l.l_txn))
      g.g_legs;
    Model.abort model g.g_id;
    incr aborts;
    release g
  in
  let do_commit g =
    let legs =
      List.sort (fun a b -> compare a.l_shard b.l_shard) g.g_legs
    in
    match legs with
    | [] ->
        (* Read-free, write-free transaction: nothing to make durable. *)
        Model.commit model g.g_id;
        release g
    | [ l ] ->
        (* Single shard touched: ordinary one-phase commit. *)
        ignore (Wal.append wals.(l.l_shard) (Wal.Commit (Lock.txn_id l.l_txn)));
        site (Printf.sprintf "part%d_before_commit_force" l.l_shard);
        Wal.flush wals.(l.l_shard);
        Model.commit model g.g_id;
        incr commits_1pc;
        release g
    | legs ->
        let gid = g.g_id in
        List.iter
          (fun l ->
            site (Printf.sprintf "part%d_before_prepare" l.l_shard);
            ignore
              (Wal.append wals.(l.l_shard)
                 (Wal.Prepare { txn = Lock.txn_id l.l_txn; gid }));
            Wal.flush wals.(l.l_shard);
            site (Printf.sprintf "part%d_after_prepare" l.l_shard))
          legs;
        if Prng.int p_work ~bound:12 = 0 then begin
          (* Unanimous yes but the coordinator aborts anyway (client
             rollback after prepare). Presumed abort: no decision record,
             just Abort deliveries; a crash mid-delivery leaves the rest
             in-doubt and the absent gid resolves them to abort. *)
          Model.abort model g.g_id;
          incr aborts;
          List.iter
            (fun l ->
              site (Printf.sprintf "part%d_in_abort_decide" l.l_shard);
              Table.abort tables.(l.l_shard) ~txn:(Lock.txn_id l.l_txn);
              Wal.flush wals.(l.l_shard))
            legs;
          release g
        end
        else begin
          site "coord_before_decision";
          ignore (Wal.append coord (Wal.Decision { gid; commit = true }));
          site "coord_before_decision_force";
          Wal.flush coord;
          (* Commit point: the decision is durable. Everything after
             this line — including a crash before any delivery — must
             still converge to a committed transaction. *)
          Model.commit model g.g_id;
          incr commits_2pc;
          site "coord_after_decision";
          List.iter
            (fun l ->
              site (Printf.sprintf "part%d_in_decide" l.l_shard);
              ignore
                (Wal.append wals.(l.l_shard)
                   (Wal.Commit (Lock.txn_id l.l_txn)));
              Wal.flush wals.(l.l_shard))
            legs;
          release g
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
    let leg = leg_for g shard in
    let granted =
      if List.mem key leg.l_keys then `Ok
      else
        match
          Lock.acquire locks.(shard) leg.l_txn ("key:" ^ string_of_int key)
            Lock.Exclusive
        with
        | Lock.Granted ->
            leg.l_keys <- key :: leg.l_keys;
            `Ok
        | Lock.Would_block -> `Busy
        | Lock.Deadlock -> `Deadlock
    in
    match granted with
    | `Busy -> () (* held by another global transaction: skip this op *)
    | `Deadlock ->
        incr deadlocks;
        do_abort g
    | `Ok -> (
        g.g_ops <- g.g_ops + 1;
        let txn = Lock.txn_id leg.l_txn in
        match Model.find_live model key with
        | None ->
            let data = random_data () in
            Table.insert tables.(shard) ~txn ~key ~data;
            Model.insert model ~txn:g.g_id ~key ~data
        | Some _ ->
            if Prng.bool p_work then begin
              let data = random_data () in
              Table.update tables.(shard) ~txn ~key ~data;
              Model.update model ~txn:g.g_id ~key ~data
            end
            else begin
              Table.delete tables.(shard) ~txn ~key;
              Model.delete model ~txn:g.g_id ~key
            end)
  in
  let do_checkpoint () =
    let s = Prng.int p_work ~bound:shard_count in
    let active =
      List.concat_map
        (fun g ->
          List.filter_map
            (fun l ->
              if l.l_shard = s then Some (Lock.txn_id l.l_txn) else None)
            g.g_legs)
        !open_g
    in
    cps.(s) <- Some (Table.checkpoint tables.(s) ~active);
    incr checkpoints
  in
  let crash_point = ref "op-budget" in
  (try
     while true do
       if !steps >= step_budget then raise (Crash "op-budget");
       incr steps;
       if Prng.int p_work ~bound:25 = 0 then do_checkpoint ()
       else begin
         if
           !open_g = []
           || List.length !open_g < max_open_txns
              && Prng.int p_work ~bound:4 = 0
         then begin
           let g = { g_id = !next_gid; g_legs = []; g_ops = 0 } in
           incr next_gid;
           Model.begin_txn model g.g_id;
           open_g := g :: !open_g
         end;
         let g =
           List.nth !open_g (Prng.int p_work ~bound:(List.length !open_g))
         in
         if g.g_ops > 0 && Prng.int p_work ~bound:5 = 0 then
           if Prng.int p_work ~bound:4 = 0 then do_abort g else do_commit g
         else do_op g
       end
     done
   with Crash point -> crash_point := point);
  (* The cluster-wide crash: every shard loses dirty frames and its
     unpersisted log tail, the coordinator loses unpersisted decisions,
     the oracle discards every pending transaction. Commit points were
     applied to the model strictly after the matching force, so no
     limbo remains to resolve. *)
  Array.iter (fun store -> ignore (Buffer_pool.crash (Store.buffer store))) stores;
  Array.iter (fun wal -> ignore (Wal.lose_unpersisted wal)) wals;
  ignore (Wal.lose_unpersisted coord);
  Model.crash model;
  let durable_decisions = Wal.decisions coord in
  let indoubt = ref 0 in
  let resolved_commits = ref 0 in
  let resolved_aborts = ref 0 in
  let violations =
    try
      let union = ref [] in
      let checks = ref [] in
      for s = 0 to shard_count - 1 do
        let recovered, analysis =
          Table.recover ~wal:wals.(s) ~checkpoint:cps.(s) ()
        in
        (* In-doubt resolution: recovery redid the prepared effects;
           a durable commit decision keeps them (log the Commit), an
           absent gid is presumed aborted (compensate and log Abort).
           Sabotage ignores the decision log — the broken coordinator. *)
        Hashtbl.iter
          (fun txn gid ->
            incr indoubt;
            let commit =
              (not sabotage)
              && List.exists (fun (g, c) -> g = gid && c) durable_decisions
            in
            if commit then begin
              incr resolved_commits;
              ignore (Wal.append wals.(s) (Wal.Commit txn))
            end
            else begin
              incr resolved_aborts;
              List.iter (Table.apply_undo recovered)
                (Wal.undo_records wals.(s) txn);
              ignore (Wal.append wals.(s) (Wal.Abort txn))
            end)
          analysis.Wal.a_indoubt;
        Wal.flush wals.(s);
        union := Table.contents recovered @ !union;
        checks :=
          !checks
          @ List.map (Printf.sprintf "shard %d: %s" s) (Table.check recovered)
      done;
      let got = List.sort compare !union in
      let want = Model.committed_bindings model in
      let mismatch =
        if got = want then []
        else begin
          let render bindings =
            String.concat "; "
              (List.map (fun (k, d) -> Printf.sprintf "%d=%S" k d) bindings)
          in
          [ Printf.sprintf
              "recovered shard union diverges from oracle: recovered {%s} \
               oracle {%s}"
              (render got) (render want) ]
        end
      in
      mismatch @ !checks
    with e -> [ Printf.sprintf "recovery raised %s" (Printexc.to_string e) ]
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
        ("resolved abort", !resolved_aborts)
      ];
    violations
  }

let phase = { Phase.name = "2pc"; cycle; caught = Phase.violated }
