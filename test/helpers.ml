(* Helpers shared by the test suites. *)

(* [contains s sub]: [sub] occurs in [s]. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0
