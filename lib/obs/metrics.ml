(* Instance-based metrics registry. Counters/histograms hold a pointer
   to the registry's shared enabled cell so a disabled registry costs
   one bool load per event. Sources are pulled at snapshot time, which
   lets pre-existing component counters (buffer pool, disk, plan
   cache, ...) participate in snapshot/diff semantics without being
   writable from here. *)

type shared = { mutable on : bool }

type counter = { c_name : string; mutable c_value : int; c_shared : shared }

type histogram = {
  h_name : string;
  h_counts : int array;   (* one per bound, plus overflow at the end *)
  mutable h_count : int;
  mutable h_sum : float;  (* seconds *)
  h_shared : shared;
}

type t = {
  shared : shared;
  counters : (string, counter) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
  mutable sources : (unit -> (string * int) list) list;
}

type snapshot = (string * int) list

let create ?(enabled = true) () =
  { shared = { on = enabled };
    counters = Hashtbl.create 32;
    histograms = Hashtbl.create 8;
    sources = []
  }

let set_enabled t b = t.shared.on <- b
let enabled t = t.shared.on

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = { c_name = name; c_value = 0; c_shared = t.shared } in
      Hashtbl.replace t.counters name c;
      c

let incr c = if c.c_shared.on then c.c_value <- c.c_value + 1
let add c n = if c.c_shared.on then c.c_value <- c.c_value + n
let value c = c.c_value

(* Every histogram's upper bounds, seconds, ascending: a latency
   ladder from 100µs to 10s. *)
let bounds = [| 0.0001; 0.001; 0.01; 0.1; 1.; 10. |]

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
      let h =
        { h_name = name;
          h_counts = Array.make (Array.length bounds + 1) 0;
          h_count = 0;
          h_sum = 0.;
          h_shared = t.shared
        }
      in
      Hashtbl.replace t.histograms name h;
      h

let observe h v =
  if h.h_shared.on then begin
    let n = Array.length bounds in
    let i = ref 0 in
    while !i < n && v > bounds.(!i) do
      i := !i + 1
    done;
    h.h_counts.(!i) <- h.h_counts.(!i) + 1;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v
  end

let register_source t f = t.sources <- f :: t.sources

let micros s = int_of_float (Float.round (s *. 1e6))

let bound_label b =
  (* "le_100us" / "le_10ms" / "le_1s": stable, shell-friendly keys *)
  let us = micros b in
  if us mod 1_000_000 = 0 then Printf.sprintf "le_%ds" (us / 1_000_000)
  else if us mod 1_000 = 0 then Printf.sprintf "le_%dms" (us / 1_000)
  else Printf.sprintf "le_%dus" us

let histogram_rows h =
  let rows = ref [] in
  let cum = ref 0 in
  Array.iteri
    (fun i n ->
      cum := !cum + n;
      if i < Array.length bounds then
        rows := (h.h_name ^ "." ^ bound_label bounds.(i), !cum) :: !rows)
    h.h_counts;
  (h.h_name ^ ".count", h.h_count)
  :: (h.h_name ^ ".sum_us", micros h.h_sum)
  :: (h.h_name ^ ".le_inf", h.h_count)
  :: !rows

let snapshot t : snapshot =
  let rows = ref [] in
  Hashtbl.iter (fun _ c -> rows := (c.c_name, c.c_value) :: !rows) t.counters;
  Hashtbl.iter (fun _ h -> rows := histogram_rows h @ !rows) t.histograms;
  List.iter (fun source -> rows := source () @ !rows) t.sources;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !rows

let diff ~before ~after =
  List.map
    (fun (name, v) ->
      match List.assoc_opt name before with
      | Some b -> (name, v - b)
      | None -> (name, v))
    after

let render (s : snapshot) =
  String.concat "\n" (List.map (fun (name, v) -> Printf.sprintf "%s %d" name v) s)
