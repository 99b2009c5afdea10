type params = {
  block_size : int;
  btt : float;
  ebt : float;
  rot : float;
  seek : float;
}

(* Calibrated so 22000 * (s + r + btt) ~ 520.8 s, the paper's Table 16
   forward-traversal cost for path P2 (see DESIGN.md §4). *)
let default_params =
  { block_size = 4096; btt = 0.0033439; ebt = 0.0016719; rot = 0.00833; seek = 0.012 }

type counters = {
  seeks : int;
  random_reads : int;
  sequential_reads : int;
  writes : int;
  elapsed : float;
}

let zero_counters =
  { seeks = 0; random_reads = 0; sequential_reads = 0; writes = 0; elapsed = 0. }

exception Crash

(* A fault plan, armed by the crash-recovery harness: the disk counts
   down page writes (data pages and, when the WAL's persist hook is
   wired here, log records too) and raises [Crash] when the budget is
   exhausted. The in-flight write at the crash may additionally be
   recorded as torn — its durable image is garbage. *)
type fault = {
  mutable writes_until_crash : int;
  torn_page_prob : float;
  fault_prng : Mood_util.Prng.t;
}

type t = {
  mutable counters : counters;
  mutable fault : fault option;
  torn : (int * int, unit) Hashtbl.t;
}

let create () = { counters = zero_counters; fault = None; torn = Hashtbl.create 8 }

let inject_fault t ~crash_after_writes ?(torn_page_prob = 0.) ~prng () =
  if crash_after_writes <= 0 then invalid_arg "Disk.inject_fault: crash_after_writes <= 0";
  t.fault <-
    Some
      { writes_until_crash = crash_after_writes;
        torn_page_prob;
        fault_prng = prng
      }

let clear_fault t = t.fault <- None

let fault_armed t = t.fault <> None

let torn_pages t = Hashtbl.fold (fun k () acc -> k :: acc) t.torn []

let check_write_fault t page =
  match t.fault with
  | None -> ()
  | Some f ->
      f.writes_until_crash <- f.writes_until_crash - 1;
      if f.writes_until_crash <= 0 then begin
        (* The write in flight at the crash may be torn: the sector was
           partially overwritten, destroying the old image too. *)
        (match page with
        | Some key
          when f.torn_page_prob > 0.
               && Mood_util.Prng.float f.fault_prng ~bound:1. < f.torn_page_prob ->
            Hashtbl.replace t.torn key ()
        | Some _ | None -> ());
        raise Crash
      end

let read_random t =
  let p = default_params in
  let c = t.counters in
  t.counters <-
    { c with
      seeks = c.seeks + 1;
      random_reads = c.random_reads + 1;
      elapsed = c.elapsed +. p.seek +. p.rot +. p.btt
    }

let read_sequential t ~first =
  let p = default_params in
  let c = t.counters in
  let position = if first then p.seek +. p.rot else 0. in
  t.counters <-
    { c with
      seeks = (c.seeks + if first then 1 else 0);
      sequential_reads = c.sequential_reads + 1;
      elapsed = c.elapsed +. position +. p.ebt
    }

let write_page ?page t =
  check_write_fault t page;
  let p = default_params in
  let c = t.counters in
  t.counters <-
    { c with
      seeks = c.seeks + 1;
      writes = c.writes + 1;
      elapsed = c.elapsed +. p.seek +. p.rot +. p.btt
    };
  (* A completed write repairs any earlier tear of the same page. *)
  match page with Some key -> Hashtbl.remove t.torn key | None -> ()

let counters t = t.counters

let reset_counters t = t.counters <- zero_counters

let elapsed t = t.counters.elapsed

let with_measure t thunk =
  let before = t.counters in
  let result = thunk () in
  let after = t.counters in
  let during =
    { seeks = after.seeks - before.seeks;
      random_reads = after.random_reads - before.random_reads;
      sequential_reads = after.sequential_reads - before.sequential_reads;
      writes = after.writes - before.writes;
      elapsed = after.elapsed -. before.elapsed
    }
  in
  (result, during)

let pp_counters ppf c =
  Format.fprintf ppf
    "seeks=%d rnd=%d seq=%d writes=%d elapsed=%.3fs" c.seeks c.random_reads
    c.sequential_reads c.writes c.elapsed
