type outcome = {
  seed : int;
  site : string;
  counts : (string * int) list;
  violations : string list;
}

type t = {
  name : string;
  cycle : sabotage:bool -> seed:int -> outcome;
  caught : outcome -> bool;
}

let violated (o : outcome) = o.violations <> []

let count counts name =
  match List.assoc_opt name counts with
  | Some n -> n
  | None -> invalid_arg ("Phase.count: no count named " ^ name)

type report = {
  cycles : int;
  counts : (string * int) list;
  violations : (int * string * string) list;
}

let sum totals counts =
  if totals = [] then counts
  else List.map2 (fun (name, a) (_, b) -> (name, a + b)) totals counts

let run ?(sabotage = false) phase ~quota ~base_seed =
  let rec go i totals found =
    if i >= quota then { cycles = i; counts = totals; violations = List.rev found }
    else
      let (o : outcome) = phase.cycle ~sabotage ~seed:(base_seed + i) in
      go (i + 1) (sum totals o.counts)
        (List.fold_left (fun acc m -> (o.seed, o.site, m) :: acc) found o.violations)
  in
  go 0 [] []

let control_bound = 50

let control phase ~base_seed =
  let rec go i =
    if i >= control_bound then None
    else
      let o = phase.cycle ~sabotage:true ~seed:(base_seed + i) in
      if phase.caught o then Some o else go (i + 1)
  in
  go 0

let pp_report ppf (r : report) =
  Format.fprintf ppf "%d cycles:" r.cycles;
  List.iter (fun (name, n) -> Format.fprintf ppf "@ %d %s," n name) r.counts;
  Format.fprintf ppf "@ %d violations" (List.length r.violations)
