module Value = Mood_model.Value
module Mtype = Mood_model.Mtype
module Oid = Mood_model.Oid
module Stats = Mood_cost.Stats
module Btree = Mood_storage.Btree

let float_view = Value.as_float

(* Per-attribute accumulators. *)
type attr_acc = {
  mutable values : Value.t list;
  mutable non_null : int;
  mutable total : int;
  mutable ref_targets : Oid.t list;
  mutable ref_links : int;
}

let fresh_acc () =
  { values = []; non_null = 0; total = 0; ref_targets = []; ref_links = 0 }

let refs_of = function
  | Value.Ref o -> [ o ]
  | Value.Set xs | Value.List xs ->
      List.filter_map (function Value.Ref o -> Some o | _ -> None) xs
  | Value.Null | Value.Int _ | Value.Long _ | Value.Float _ | Value.Str _
  | Value.Char _ | Value.Bool _ | Value.Tuple _ ->
      []

(* A B+-tree's Table 9 entry. *)
let index_entry (s : Btree.stats) =
  { Stats.order = s.Btree.order;
    levels = s.Btree.levels;
    leaves = s.Btree.leaves;
    key_size = s.Btree.key_size;
    unique = s.Btree.unique
  }

let register_index stats catalog ~class_name ~attr =
  match Catalog.find_index catalog ~class_name ~attr with
  | Some (Catalog.Btree_index bt) ->
      Stats.set_index stats ~cls:class_name ~attr (index_entry (Btree.stats bt))
  | Some (Catalog.Hash_index _) | None -> ()

let compute catalog =
  let stats = Stats.create () in
  let classes = Catalog.all_classes catalog in
  List.iter
    (fun (info : Catalog.class_info) ->
      if info.Catalog.kind = Catalog.Class then begin
        let name = info.Catalog.class_name in
        let attrs = Catalog.attributes catalog name in
        let accs = List.map (fun (attr, ty) -> (attr, ty, fresh_acc ())) attrs in
        let cardinality = ref 0 in
        (* Deep extent: own objects plus descendants'. *)
        let scan_class cls =
          let ext = Catalog.own_extent catalog cls in
          Mood_storage.Extent.fold ext ~init:() ~f:(fun () _slot value ->
              incr cardinality;
              List.iter
                (fun (attr, _ty, acc) ->
                  acc.total <- acc.total + 1;
                  match Value.tuple_get value attr with
                  | Some Value.Null | None -> ()
                  | Some v ->
                      acc.non_null <- acc.non_null + 1;
                      let refs = refs_of v in
                      if refs = [] then acc.values <- v :: acc.values
                      else begin
                        acc.ref_targets <- refs @ acc.ref_targets;
                        acc.ref_links <- acc.ref_links + List.length refs
                      end)
                accs)
        in
        List.iter scan_class (name :: Catalog.descendants catalog name);
        (* Class-level statistics: pages and sizes of the deep extent. *)
        let nbpages, size_sum, size_n =
          List.fold_left
            (fun (pages, sum, n) cls ->
              let ext = Catalog.own_extent catalog cls in
              ( pages + Mood_storage.Extent.page_count ext,
                sum
                +. (Mood_storage.Extent.mean_object_size ext
                   *. float_of_int (Mood_storage.Extent.count ext)),
                n + Mood_storage.Extent.count ext ))
            (0, 0., 0)
            (name :: Catalog.descendants catalog name)
        in
        Stats.set_class stats name
          { Stats.cardinality = !cardinality;
            nbpages = max 1 nbpages;
            obj_size = (if size_n = 0 then 0 else int_of_float (size_sum /. float_of_int size_n))
          };
        List.iter
          (fun (attr, ty, acc) ->
            if Mtype.is_atomic ty then begin
              let distinct = List.sort_uniq Value.compare acc.values in
              let numerics = List.filter_map float_view acc.values in
              let width_of = function
                | Value.Str s -> float_of_int (String.length s)
                | Value.Char _ | Value.Bool _ -> 1.
                | _ -> 8.
              in
              let avg_width =
                match acc.values with
                | [] -> float_of_int (Mtype.byte_size ty)
                | vs ->
                    List.fold_left (fun s v -> s +. width_of v) 0. vs
                    /. float_of_int (List.length vs)
              in
              let max_value = List.fold_left (fun m v -> match m with None -> Some v | Some m -> Some (Float.max m v)) None numerics in
              let min_value = List.fold_left (fun m v -> match m with None -> Some v | Some m -> Some (Float.min m v)) None numerics in
              Stats.set_attr stats ~cls:name ~attr
                { Stats.dist = List.length distinct;
                  max_value;
                  min_value;
                  notnull =
                    (if acc.total = 0 then 1.
                     else float_of_int acc.non_null /. float_of_int acc.total);
                  avg_width
                }
            end
            else begin
              match Mtype.referenced_class ty with
              | Some target ->
                  let distinct_targets = List.sort_uniq Oid.compare acc.ref_targets in
                  let fan =
                    if acc.total = 0 then 0.
                    else float_of_int acc.ref_links /. float_of_int acc.total
                  in
                  Stats.set_ref stats ~cls:name ~attr
                    { Stats.target; fan; totref = List.length distinct_targets }
              | None -> ()
            end)
          accs;
        (* Index statistics (Table 9). *)
        List.iter
          (fun (attr, _ty) -> register_index stats catalog ~class_name:name ~attr)
          attrs;
        List.iter
          (fun (cls, path, px) ->
            if String.equal cls name then
              Stats.set_index stats ~cls:name ~attr:("#path:" ^ String.concat "." path)
                (index_entry (Mood_storage.Join_index.Path.stats px)))
          (Catalog.path_indexes catalog);
        List.iter
          (fun (attr, _ty) ->
            match Catalog.find_join_index catalog ~class_name:name ~attr with
            | Some jx ->
                Stats.set_index stats ~cls:name ~attr:("#join:" ^ attr)
                  (index_entry (Mood_storage.Join_index.Binary.forward_stats jx))
            | None -> ())
          attrs
      end)
    classes;
  stats
