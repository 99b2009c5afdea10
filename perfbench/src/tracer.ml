(* In-memory spans recorded by the benchmark around its calls into each
   layer's public functions. Spans are written out once, at the end. A
   span's layer is its name up to the first '.'; a layer's self time is
   the time its spans cover minus what their child spans cover. *)

type span = {
  id : int;
  name : string;
  parent : int;       (* -1 for a root *)
  op : int;           (* operation id shared by the spans of one operation *)
  start : float;
  mutable stop : float;
}

type t = { mutable spans : span list; mutable next : int; mutable stack : span list }

let create () = { spans = []; next = 0; stack = [] }

let with_span t ~op name f =
  let parent = match t.stack with s :: _ -> s.id | [] -> -1 in
  let s = { id = t.next; name; parent; op; start = Unix.gettimeofday (); stop = 0. } in
  t.next <- t.next + 1;
  t.stack <- s :: t.stack;
  let finish () =
    s.stop <- Unix.gettimeofday ();
    t.stack <- List.tl t.stack;
    t.spans <- s :: t.spans
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

let clear t = t.spans <- []

let spans t = List.rev t.spans

let layer name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let duration s = s.stop -. s.start

(* Self seconds per layer. Children of one span never overlap (calls are
   sequential), so the covered part is the sum of their durations. *)
let self_times t =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.replace children s.parent (duration s +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    t.spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own = duration s -. Option.value ~default:0. (Hashtbl.find_opt children s.id) in
      let l = layer s.name in
      Hashtbl.replace acc l (own +. Option.value ~default:0. (Hashtbl.find_opt acc l)))
    t.spans;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] |> List.sort compare

let write t path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"name\": %S, \"parent\": %d, \"op\": %d, \"start_us\": %.3f, \"end_us\": %.3f}\n"
            s.id s.name s.parent s.op (s.start *. 1e6) (s.stop *. 1e6))
        (spans t))
