(* Everything a run sends, generated from the seed before any set-up. *)

type load =
  | Sessions of Gen.op array array  (* oltp: one stream per connection *)
  | Passes of (int -> Gen.op list)  (* olap pass / htap cycle number i *)

type t = { w : Gen.workload; d : Gen.data; load : load }

(* Warm-up before the measured phase: oltp operations per session, or
   olap passes / htap cycles (four cycles include one GROUP BY). *)
let warmup = function Gen.Oltp -> 200 | Gen.Olap -> 1 | Gen.Htap -> 4

(* Passes per throughput round: one olap pass, or four htap cycles so
   that every round holds one GROUP BY. *)
let round_passes = function Gen.Olap -> 1 | Gen.Htap -> 4 | Gen.Oltp -> 0

(* peak_rss_mb is sampled after this many measured passes (cycles), so
   that it reflects a fixed amount of work: htap's database and in-memory
   WAL grow with every write, and a faster run would otherwise read as
   using more memory. oltp samples at the end of the measured phase. *)
let rss_passes = function Gen.Olap -> 30 | Gen.Htap -> 200 | Gen.Oltp -> max_int

let make w seed =
  let rng = Rng.create seed in
  let d = Gen.generate rng w in
  let load =
    match w with
    | Gen.Oltp ->
        Sessions
          (Array.init 2 (fun session ->
               Gen.oltp_stream (Rng.split rng) d ~session ~length:50_000))
    | Gen.Olap ->
        let pass = Array.to_list (Array.map (fun q -> Gen.Query q) (Gen.olap_suite d)) in
        Passes (fun _ -> pass)
    | Gen.Htap ->
        let n = 2_000 in
        let cycles = Gen.htap_cycles rng d ~length:n in
        Passes (fun i -> cycles.(i mod n))
  in
  { w; d; load }
