(* The benchmark's own seeded generator (SplitMix64), so that inputs
   depend only on the seed and this file, never on the program under
   test. *)

type t = { mutable s : int64 }

let next t =
  t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
  let z = t.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  let t = { s = Int64.of_int seed } in
  ignore (next t);
  t

(* An independent stream derived from this one. *)
let split t = { s = next t }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int";
  Int64.to_int (Int64.shift_right_logical (next t) 2) mod bound

let float t = Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.

let pick t a = a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Zipf(theta) over ranks 0..n-1 by inverse CDF. *)
type zipf = float array

let zipf ~n ~theta =
  let w = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** theta)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw t (cdf : zipf) =
  let u = float t in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo
