(* The untraced run: the server in a child process, driven over the wire
   by a closed loop of at most two connections. End-to-end metrics come
   only from here. *)

module Client = Mood_server.Client
module Wire = Mood_server.Wire

type conn = { c : Client.t; mutable busy_retries : int; mutable reply_bytes : int }

type result = {
  w : Gen.workload;
  samples : Runner.sample list;   (* measured phase only *)
  start : float;                  (* wall-clock start of the measured phase *)
  elapsed : float;                (* measured phase, seconds *)
  passes : int;                   (* olap passes / htap cycles measured *)
  tally : Runner.tally;           (* every checked operation of the run *)
  stats_delta : (string * int) list;
  busy_retries : int;
  reply_bytes : int;
  setups : Server_proc.ready list;
  final : Server_proc.final;
}

(* BUSY is admission control: back off and retry, up to a budget. *)
let busy_budget = 2_000

let exec conn step =
  let send () =
    match step with
    | Gen.Sql s -> Client.exec conn.c s
    | Gen.Begin -> Client.begin_txn conn.c
    | Gen.Commit -> Client.commit conn.c
    | Gen.Abort -> Client.abort conn.c
  in
  let rec go tries =
    match send () with
    | Wire.Busy _ when tries < busy_budget ->
        conn.busy_retries <- conn.busy_retries + 1;
        Thread.delay 0.0005;
        go (tries + 1)
    | r -> r
  in
  match go 0 with
  | exception Client.Disconnected -> Oracle.Other "disconnected"
  | exception Wire.Protocol_error m -> Oracle.Other ("protocol error: " ^ m)
  | Wire.Ok_result s ->
      conn.reply_bytes <- conn.reply_bytes + String.length s;
      Oracle.Ok_text s
  | Wire.Rows l ->
      conn.reply_bytes <- List.fold_left (fun a s -> a + String.length s) conn.reply_bytes l;
      Oracle.Rows l
  | Wire.Err s -> Oracle.Err s
  | Wire.Aborted s -> Oracle.Aborted s
  | Wire.Busy s -> Oracle.Busy s
  | _ -> Oracle.Other "unexpected response kind"

let stats_delta before after =
  List.map (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k before))) after

(* Runs and checks operations in order; returns their samples. *)
let drive conn model tally ~pass ops =
  List.rev_map
    (fun op ->
      let lat, finish, verdict = Runner.run_op ~exec:(exec conn) model op in
      Runner.count tally verdict (Gen.cls_name (Gen.op_cls op));
      { Runner.cls = Gen.op_cls op; shape = Gen.op_shape op; lat; pass; finish })
    ops

let run ?passes ?sabotage ~setups ~seconds (inp : Inputs.t) =
  let w = inp.Inputs.w in
  let earlier =
    List.init (setups - 1) (fun _ ->
        let h = Server_proc.spawn w inp.Inputs.d in
        ignore (Server_proc.stop h);
        h.Server_proc.ready)
  in
  let h = Server_proc.spawn w inp.Inputs.d in
  let port = h.Server_proc.ready.Server_proc.port in
  let connect () = { c = Client.connect ~port (); busy_retries = 0; reply_bytes = 0 } in
  let model = Oracle.create ?sabotage ~static:(w = Gen.Olap) inp.Inputs.d in
  let tally = Runner.tally () in
  let ctl = connect () in
  let rss_sent = ref false in
  let sample_rss () =
    if not !rss_sent then begin
      rss_sent := true;
      Server_proc.send h "RSS"
    end
  in
  let measured conns f =
    let before = Client.stats ctl.c in
    List.iter (fun (c : conn) -> c.busy_retries <- 0; c.reply_bytes <- 0) conns;
    Server_proc.send h "BEGIN";
    let t0 = Unix.gettimeofday () in
    let samples, passes = f t0 in
    let elapsed = Unix.gettimeofday () -. t0 in
    Server_proc.send h "END";
    sample_rss ();
    let after = Client.stats ctl.c in
    let sum g = List.fold_left (fun a (c : conn) -> a + g c) 0 conns in
    (samples, passes, t0, elapsed, stats_delta before after, sum (fun (c : conn) -> c.busy_retries),
     sum (fun (c : conn) -> c.reply_bytes))
  in
  let samples, passes, start, elapsed, delta, busy, bytes =
    match inp.Inputs.load with
    | Inputs.Sessions streams ->
        let conns = Array.map (fun _ -> connect ()) streams in
        let cursor = Array.make (Array.length streams) 0 in
        let session i ~more =
          let stream = streams.(i) in
          let samples = ref [] in
          while more () do
            let op = stream.(cursor.(i) mod Array.length stream) in
            cursor.(i) <- cursor.(i) + 1;
            samples := drive conns.(i) model tally ~pass:(-1) [ op ] @ !samples
          done;
          !samples
        in
        let in_threads f =
          let out = Array.make (Array.length streams) [] in
          let ths = Array.mapi (fun i _ -> Thread.create (fun () -> out.(i) <- f i) ()) streams in
          Array.iter Thread.join ths;
          List.concat (Array.to_list out)
        in
        ignore
          (in_threads (fun i ->
               let n = ref 0 in
               session i ~more:(fun () -> incr n; !n <= Inputs.warmup w)));
        let r =
          measured (Array.to_list conns) (fun t0 ->
              let deadline = t0 +. seconds in
              (in_threads (fun i -> session i ~more:(fun () -> Unix.gettimeofday () < deadline)), 0))
        in
        Array.iter (fun c -> Client.quit c.c) conns;
        r
    | Inputs.Passes ops_of ->
        let conn = connect () in
        let warm = Inputs.warmup w in
        for p = 0 to warm - 1 do
          ignore (drive conn model tally ~pass:p (ops_of p))
        done;
        measured [ conn ] (fun t0 ->
            let deadline = t0 +. seconds in
            let more p =
              match passes with Some n -> p < n | None -> Unix.gettimeofday () < deadline
            in
            let rec go p acc =
              if p = Inputs.rss_passes w then sample_rss ();
              if more p then
                go (p + 1) (drive conn model tally ~pass:p (ops_of (warm + p)) @ acc)
              else (acc, p)
            in
            go 0 [])
        |> fun r ->
        Client.quit conn.c;
        r
  in
  List.iter
    (fun (sql, want) ->
      Runner.count tally (Oracle.check want (exec ctl (Gen.Sql sql))) ("final check " ^ sql))
    (Oracle.final_checks model w);
  Client.quit ctl.c;
  let final = Server_proc.stop h in
  if final.Server_proc.audit <> "clean" then
    Runner.count tally (Error final.Server_proc.audit) "server shutdown audit";
  { w;
    samples;
    start;
    elapsed;
    passes;
    tally;
    stats_delta = delta;
    busy_retries = busy;
    reply_bytes = bytes;
    setups = earlier @ [ h.Server_proc.ready ];
    final
  }
