(* Order statistics computed by the benchmark itself. Percentiles are
   nearest-rank over the sorted sample; a failed operation enters as
   [infinity]. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let percentile xs p = percentile_sorted (sorted xs) p

let median xs = percentile xs 50.
