module Disk = Mood_storage.Disk
module Combinat = Mood_util.Combinat

type params = { disk : Disk.params; cpu_cost : float }

let default_params = { disk = Disk.default_params; cpu_cost = 5e-3 }

let seqcost p b =
  if b <= 0 then 0. else p.disk.Disk.seek +. p.disk.Disk.rot +. (float_of_int b *. p.disk.Disk.ebt)

let rndcost p b =
  if b <= 0. then 0. else b *. (p.disk.Disk.seek +. p.disk.Disk.rot +. p.disk.Disk.btt)

let indcost p (ix : Stats.index_stats) ~k =
  if k <= 0 then 0.
  else begin
    let fanout = 2. *. float_of_int ix.Stats.order *. log 2. in
    let leaves = float_of_int ix.Stats.leaves in
    let pages = ref 0. in
    let r = ref (float_of_int k) in
    for i = 1 to ix.Stats.levels do
      let n = leaves /. (fanout ** float_of_int (i - 2)) in
      let m = leaves /. (fanout ** float_of_int (i - 1)) in
      let hit =
        Combinat.c_approx
          ~n:(int_of_float (Float.max 1. n))
          ~m:(int_of_float (Float.max 1. m))
          ~r:(int_of_float (Float.max 1. (Float.round !r)))
      in
      pages := !pages +. Float.of_int (int_of_float (ceil hit));
      r := hit
    done;
    rndcost p !pages
  end

let rngxcost p (ix : Stats.index_stats) ~fract =
  let fract = Float.max 0. (Float.min 1. fract) in
  fract *. float_of_int ix.Stats.leaves *. (p.disk.Disk.seek +. p.disk.Disk.rot +. p.disk.Disk.btt)

(* Decompression: dictionary / RLE decode is a CPU sweep over the
   encoded bytes, far below the per-comparison CPUCOST — one CPUCOST
   unit buys ~1 KB of decoding. *)
let deccost p ~bytes =
  if bytes <= 0 then 0. else float_of_int bytes /. 1024. *. p.cpu_cost
