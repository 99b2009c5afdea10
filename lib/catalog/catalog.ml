module Mtype = Mood_model.Mtype
module Value = Mood_model.Value
module Oid = Mood_model.Oid
module Store = Mood_storage.Store
module Extent = Mood_storage.Extent
module Btree = Mood_storage.Btree
module Hash = Mood_storage.Hash_index
module Join_index = Mood_storage.Join_index
module Version_store = Mood_storage.Version_store
module Heap_file = Mood_storage.Heap_file
module Wal = Mood_storage.Wal
module Pax_store = Mood_column.Pax_store

exception Schema_error of string

let schema_error fmt = Format.kasprintf (fun msg -> raise (Schema_error msg)) fmt

type kind = Class | Type_only

type method_signature = {
  method_name : string;
  parameters : (string * Mtype.t) list;
  return_type : Mtype.t;
}

type class_info = {
  class_id : int;
  class_name : string;
  kind : kind;
  own_attributes : (string * Mtype.t) list;
  superclasses : string list;
}

type index =
  | Btree_index of Oid.t Btree.t
  | Hash_index of Oid.t Hash.t

type layout = Row | Pax

type entry = {
  id : int;
  name : string;
  ekind : kind;
  mutable attrs : (string * Mtype.t) list;
  mutable supers : string list;
  mutable subs : string list;
  mutable meths : method_signature list;
  extent : Extent.t option;
  mutable elayout : layout;
  mutable pax : Pax_store.t option;
      (* the derived columnar mirror, attached iff [elayout = Pax] *)
}

type t = {
  st : Store.t;
  by_name : (string, entry) Hashtbl.t;
  by_id : (int, entry) Hashtbl.t;
  mutable order : string list; (* reverse definition order *)
  mutable next_id : int;
  indexes : (string * string, index) Hashtbl.t; (* (class, attr) *)
  join_indexes : (string * string, Join_index.Binary.t) Hashtbl.t;
  path_indexes : (string * string list, Join_index.Path.t) Hashtbl.t;
  stale_paths : (string * string list, unit) Hashtbl.t;
      (* path indexes a write has outdated since they were built: not
         planned until [refresh_path_indexes] rebuilds them *)
  mutable system_ready : bool;
  mutable epoch : int;
      (* bumped on every schema or index change: consumers (plan
         caches, the effective-attribute memo) key on it *)
  attrs_memo : (string, (string * Mtype.t) list) Hashtbl.t;
}

let store t = t.st

let epoch t = t.epoch

let bump_epoch t =
  t.epoch <- t.epoch + 1;
  Hashtbl.reset t.attrs_memo

(* ------------------------------------------------------------------ *)
(* Lookup                                                              *)

let entry_opt t name = Hashtbl.find_opt t.by_name name

let entry t name =
  match entry_opt t name with
  | Some e -> e
  | None -> schema_error "unknown class or type %S" name

let info_of_entry e =
  { class_id = e.id;
    class_name = e.name;
    kind = e.ekind;
    own_attributes = e.attrs;
    superclasses = e.supers
  }

let find_class t name = Option.map info_of_entry (entry_opt t name)

let class_of_id t id = Option.map info_of_entry (Hashtbl.find_opt t.by_id id)

let type_id t name = (entry t name).id

let type_name t id =
  match Hashtbl.find_opt t.by_id id with
  | Some e -> e.name
  | None -> schema_error "unknown type id %d" id

let all_classes t = List.rev_map (fun n -> info_of_entry (entry t n)) t.order

(* Effective attributes: superclasses left to right (each contributing
   its own effective list), then own; first occurrence of a name wins,
   conflicting types are a schema error. Memoized per class; the memo is
   cleared whenever the schema epoch advances. *)
let rec effective_attrs t name =
  match Hashtbl.find_opt t.attrs_memo name with
  | Some attrs -> attrs
  | None ->
      let e = entry t name in
      let merge acc (attr, ty) =
        match List.assoc_opt attr acc with
        | None -> acc @ [ (attr, ty) ]
        | Some existing when Mtype.equal existing ty -> acc
        | Some _ ->
            schema_error "class %s inherits attribute %s with conflicting types" name attr
      in
      let inherited = List.concat_map (fun s -> effective_attrs t s) e.supers in
      let attrs = List.fold_left merge [] (inherited @ e.attrs) in
      Hashtbl.replace t.attrs_memo name attrs;
      attrs

let attributes t name = effective_attrs t name

let attribute_type t ~class_name ~attr = List.assoc_opt attr (attributes t class_name)

let same_signature a b =
  String.equal a.method_name b.method_name
  && List.length a.parameters = List.length b.parameters
  && List.for_all2 (fun (_, x) (_, y) -> Mtype.equal x y) a.parameters b.parameters

let rec effective_methods t name =
  let e = entry t name in
  let inherited = List.concat_map (fun s -> effective_methods t s) e.supers in
  let overridden m = List.exists (fun own -> same_signature own m) e.meths in
  e.meths @ List.filter (fun m -> not (overridden m)) inherited

let methods t name =
  (* Deduplicate diamonds: keep first occurrence of a signature. *)
  let rec dedup seen = function
    | [] -> []
    | m :: rest ->
        if List.exists (same_signature m) seen then dedup seen rest
        else m :: dedup (m :: seen) rest
  in
  dedup [] (effective_methods t name)

let own_methods t name = (entry t name).meths

let find_method t ~class_name ~method_name =
  List.find_opt (fun m -> String.equal m.method_name method_name) (methods t class_name)

(* ------------------------------------------------------------------ *)
(* Hierarchy                                                           *)

let superclasses t name = (entry t name).supers

let subclasses t name = (entry t name).subs

let descendants t name =
  let seen = Hashtbl.create 8 in
  let rec walk acc n =
    List.fold_left
      (fun acc sub ->
        if Hashtbl.mem seen sub then acc
        else begin
          Hashtbl.replace seen sub ();
          walk (sub :: acc) sub
        end)
      acc (entry t n).subs
  in
  List.rev (walk [] name)

let is_subclass_of t ~sub ~super =
  let rec up n = String.equal n super || List.exists up (entry t n).supers in
  up sub

(* ------------------------------------------------------------------ *)
(* System catalog persistence (Figure 2.2)                             *)

let moods_type = "MoodsType"
let moods_attribute = "MoodsAttribute"
let moods_function = "MoodsFunction"
let moods_name = "MoodsName"

let system_extent t name =
  match (entry t name).extent with
  | Some ext -> ext
  | None -> assert false

let persist_type_row t e =
  if t.system_ready then begin
    let row =
      Value.Tuple
        [ ("typeId", Value.Int e.id);
          ("typeName", Value.Str e.name);
          ("isClass", Value.Bool (e.ekind = Class));
          ("superclasses", Value.List (List.map (fun s -> Value.Str s) e.supers))
        ]
    in
    ignore (Extent.insert (system_extent t moods_type) row)
  end

let persist_attribute_row t e (attr, ty) =
  if t.system_ready then begin
    let row =
      Value.Tuple
        [ ("ownerTypeId", Value.Int e.id);
          ("attrName", Value.Str attr);
          ("attrType", Value.Str (Mtype.to_string ty))
        ]
    in
    ignore (Extent.insert (system_extent t moods_attribute) row)
  end

let persist_function_row t e m =
  if t.system_ready then begin
    let params =
      List.map (fun (p, ty) -> Value.Str (p ^ " " ^ Mtype.to_string ty)) m.parameters
    in
    let row =
      Value.Tuple
        [ ("ownerTypeId", Value.Int e.id);
          ("functionName", Value.Str m.method_name);
          ("returnType", Value.Str (Mtype.to_string m.return_type));
          ("parameters", Value.List params)
        ]
    in
    ignore (Extent.insert (system_extent t moods_function) row)
  end

(* ------------------------------------------------------------------ *)
(* Schema definition                                                   *)

let check_referenced_classes t name attrs =
  let rec check_ty = function
    | Mtype.Reference target ->
        if not (Hashtbl.mem t.by_name target) && not (String.equal target name) then
          schema_error "class %s references unknown class %s" name target
    | Mtype.Set ty | Mtype.List ty -> check_ty ty
    | Mtype.Tuple fields -> List.iter (fun (_, ty) -> check_ty ty) fields
    | Mtype.Basic _ -> ()
  in
  List.iter (fun (_, ty) -> check_ty ty) attrs

let attach_pax t e =
  match e.extent with
  | None -> ()
  | Some ext ->
      e.pax <-
        Some (Pax_store.create ~store:t.st ~extent:ext ~attrs:(effective_attrs t e.name))

let detach_pax e =
  match e.pax with
  | None -> ()
  | Some p ->
      Pax_store.detach p;
      e.pax <- None

let define_class t ~name ?(kind = Class) ?(superclasses = []) ?(attributes = [])
    ?(methods = []) ?(layout = Row) () =
  if Hashtbl.mem t.by_name name then schema_error "class %s already defined" name;
  List.iter
    (fun s -> if not (Hashtbl.mem t.by_name s) then schema_error "unknown superclass %s" s)
    superclasses;
  check_referenced_classes t name attributes;
  let id = t.next_id in
  t.next_id <- id + 1;
  let extent = if kind = Class then Some (Extent.create ~store:t.st ()) else None in
  let e =
    { id;
      name;
      ekind = kind;
      attrs = attributes;
      supers = superclasses;
      subs = [];
      meths = methods;
      extent;
      elayout = layout;
      pax = None
    }
  in
  Hashtbl.replace t.by_name name e;
  Hashtbl.replace t.by_id id e;
  t.order <- name :: t.order;
  List.iter
    (fun s ->
      let se = entry t s in
      se.subs <- se.subs @ [ name ])
    superclasses;
  (* Validate multiple-inheritance merge eagerly. *)
  ignore (effective_attrs t name);
  if layout = Pax then attach_pax t e;
  persist_type_row t e;
  List.iter (persist_attribute_row t e) attributes;
  List.iter (persist_function_row t e) methods;
  bump_epoch t;
  info_of_entry e

let system_class_names = [ moods_type; moods_attribute; moods_function; moods_name ]

let drop_class t name =
  let e = entry t name in
  if List.mem name system_class_names then schema_error "cannot drop system class %s" name;
  if e.subs <> [] then
    schema_error "cannot drop %s: it has subclasses (%s)" name (String.concat ", " e.subs);
  Hashtbl.iter
    (fun other_name other ->
      if other_name <> name then begin
        let rec mentions = function
          | Mtype.Reference target -> String.equal target name
          | Mtype.Set ty | Mtype.List ty -> mentions ty
          | Mtype.Tuple fields -> List.exists (fun (_, ty) -> mentions ty) fields
          | Mtype.Basic _ -> false
        in
        if List.exists (fun (_, ty) -> mentions ty) other.attrs then
          schema_error "cannot drop %s: class %s references it" name other_name
      end)
    t.by_name;
  (match e.extent with
  | Some ext when Extent.count ext > 0 ->
      schema_error "cannot drop %s: its extent holds %d object(s)" name (Extent.count ext)
  | Some _ | None -> ());
  detach_pax e;
  (* detach from the hierarchy and the symbol tables *)
  List.iter
    (fun super ->
      let se = entry t super in
      se.subs <- List.filter (fun s -> s <> name) se.subs)
    e.supers;
  Hashtbl.remove t.by_name name;
  Hashtbl.remove t.by_id e.id;
  t.order <- List.filter (fun n -> n <> name) t.order;
  (* drop the class's indexes *)
  let doomed tbl =
    Hashtbl.fold (fun ((cls, _) as key) _ acc -> if cls = name then key :: acc else acc) tbl []
  in
  List.iter (Hashtbl.remove t.indexes) (doomed t.indexes);
  List.iter (Hashtbl.remove t.join_indexes) (doomed t.join_indexes);
  let doomed_paths =
    Hashtbl.fold
      (fun ((cls, _) as key) _ acc -> if cls = name then key :: acc else acc)
      t.path_indexes []
  in
  List.iter (Hashtbl.remove t.path_indexes) doomed_paths;
  List.iter (Hashtbl.remove t.stale_paths) doomed_paths;
  (* remove the persisted catalog rows (Figure 2.2) *)
  let delete_rows extent_name ~owner_field =
    let ext = system_extent t extent_name in
    let victims =
      Extent.fold ext ~init:[] ~f:(fun acc slot row ->
          match Value.tuple_get row owner_field with
          | Some (Value.Int id) when id = e.id -> slot :: acc
          | Some (Value.Str n) when String.equal n name -> slot :: acc
          | Some _ | None -> acc)
    in
    List.iter (fun slot -> ignore (Extent.delete ext slot)) victims
  in
  delete_rows moods_type ~owner_field:"typeId";
  delete_rows moods_attribute ~owner_field:"ownerTypeId";
  delete_rows moods_function ~owner_field:"ownerTypeId";
  bump_epoch t

(* ------------------------------------------------------------------ *)
(* Page layout                                                         *)

let layout t name = (entry t name).elayout

let pax_store t name = (entry t name).pax

let set_layout t name layout =
  let e = entry t name in
  if e.ekind <> Class then schema_error "%s is a type, not a class: it has no layout" name;
  if e.elayout <> layout then begin
    e.elayout <- layout;
    (match layout with Pax -> attach_pax t e | Row -> detach_pax e);
    bump_epoch t
  end

(* Effective attributes feed the PAX schema, so a schema change on a
   class re-derives the segment of every PAX descendant (self
   included). Call after [bump_epoch]: the attribute memo must be
   cold. *)
let refresh_pax_schemas t name =
  List.iter
    (fun c ->
      let e = entry t c in
      match e.pax with
      | Some p -> Pax_store.refresh_schema p ~attrs:(effective_attrs t c)
      | None -> ())
    (name :: descendants t name)

let add_method t ~class_name m =
  let e = entry t class_name in
  if List.exists (same_signature m) e.meths then
    schema_error "method %s.%s already defined with this signature" class_name m.method_name;
  e.meths <- e.meths @ [ m ];
  persist_function_row t e m;
  bump_epoch t

let drop_method t ~class_name ~method_name =
  let e = entry t class_name in
  if not (List.exists (fun m -> String.equal m.method_name method_name) e.meths) then
    schema_error "class %s has no own method %s" class_name method_name;
  e.meths <- List.filter (fun m -> not (String.equal m.method_name method_name)) e.meths;
  bump_epoch t

let add_attribute t ~class_name attr ty =
  let e = entry t class_name in
  if List.mem_assoc attr (attributes t class_name) then
    schema_error "class %s already has attribute %s" class_name attr;
  check_referenced_classes t class_name [ (attr, ty) ];
  e.attrs <- e.attrs @ [ (attr, ty) ];
  persist_attribute_row t e (attr, ty);
  bump_epoch t;
  refresh_pax_schemas t class_name

let drop_attribute t ~class_name attr =
  let e = entry t class_name in
  if not (List.mem_assoc attr e.attrs) then
    schema_error "class %s has no own attribute %s" class_name attr;
  e.attrs <- List.remove_assoc attr e.attrs;
  bump_epoch t;
  refresh_pax_schemas t class_name

let rename_attribute t ~class_name ~old_name ~new_name =
  let e = entry t class_name in
  if not (List.mem_assoc old_name e.attrs) then
    schema_error "class %s has no own attribute %s" class_name old_name;
  if List.mem_assoc new_name (attributes t class_name) then
    schema_error "class %s already has attribute %s" class_name new_name;
  e.attrs <-
    List.map (fun (n, ty) -> ((if String.equal n old_name then new_name else n), ty)) e.attrs;
  bump_epoch t;
  refresh_pax_schemas t class_name

let resolve_path t ~class_name ~path =
  let rec walk current = function
    | [] -> Some []
    | attr :: rest -> begin
        match attribute_type t ~class_name:current ~attr with
        | None -> None
        | Some ty -> begin
            match rest with
            | [] -> Some [ (current, ty) ]
            | _ :: _ -> begin
                match Mtype.referenced_class ty with
                | None -> None
                | Some next -> begin
                    match walk next rest with
                    | None -> None
                    | Some tail -> Some ((current, ty) :: tail)
                  end
              end
          end
      end
  in
  if Hashtbl.mem t.by_name class_name then walk class_name path else None

(* ------------------------------------------------------------------ *)
(* Objects                                                             *)

let own_extent t name =
  match (entry t name).extent with
  | Some ext -> ext
  | None -> schema_error "%s is a type, not a class: it has no extent" name

(* Normalizes a tuple to the class's effective attribute list: declared
   order, missing attributes Null, the first binding of a duplicated
   field kept, unknown attributes rejected. Attribute lists are short,
   so both directions of the name matching walk the lists. *)
let normalize t class_name value =
  let attrs = attributes t class_name in
  let fields =
    match value with
    | Value.Tuple fields -> fields
    | _ -> schema_error "objects of class %s must be tuples" class_name
  in
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n attrs) then schema_error "class %s has no attribute %s" class_name n)
    fields;
  Value.Tuple
    (List.map
       (fun (n, ty) ->
         let v = Option.value ~default:Value.Null (List.assoc_opt n fields) in
         if not (Value.type_check v ty) then
           schema_error "attribute %s.%s: value %s does not conform to %s" class_name n
             (Value.to_string v) (Mtype.to_string ty);
         (n, v))
       attrs)

(* Classes (self included) whose declared indexes cover instances of
   [name]: all ancestors. *)
let rec ancestors_and_self t name =
  let e = entry t name in
  name :: List.concat_map (fun s -> ancestors_and_self t s) e.supers

let covering_indexes t class_name =
  ancestors_and_self t class_name
  |> List.sort_uniq String.compare
  |> List.concat_map (fun c ->
         Hashtbl.fold
           (fun (cls, attr) ix acc -> if String.equal cls c then (attr, ix) :: acc else acc)
           t.indexes [])

let covering_join_indexes t class_name =
  ancestors_and_self t class_name
  |> List.sort_uniq String.compare
  |> List.concat_map (fun c ->
         Hashtbl.fold
           (fun (cls, attr) jx acc ->
             if String.equal cls c then (attr, jx) :: acc else acc)
           t.join_indexes [])

let index_insert ix key oid =
  match ix with
  | Btree_index bt -> Btree.insert bt ~key oid
  | Hash_index h -> Hash.insert h ~key oid

let index_delete ix key oid =
  match ix with
  | Btree_index bt -> ignore (Btree.delete bt ~key (fun o -> Oid.equal o oid))
  | Hash_index h -> ignore (Hash.delete h ~key (fun o -> Oid.equal o oid))

let refs_of_value v =
  match v with
  | Value.Ref oid -> [ oid ]
  | Value.Set xs | Value.List xs ->
      List.filter_map (function Value.Ref o -> Some o | _ -> None) xs
  | Value.Null | Value.Int _ | Value.Long _ | Value.Float _ | Value.Str _
  | Value.Char _ | Value.Bool _ | Value.Tuple _ ->
      []

let add_index_entries t class_name oid value =
  List.iter
    (fun (attr, ix) ->
      match Value.tuple_get value attr with
      | Some v when v <> Value.Null -> index_insert ix v oid
      | Some _ | None -> ())
    (covering_indexes t class_name);
  List.iter
    (fun (attr, jx) ->
      match Value.tuple_get value attr with
      | Some v ->
          List.iter (fun target -> Join_index.Binary.add jx ~c:oid ~d:target) (refs_of_value v)
      | None -> ())
    (covering_join_indexes t class_name)

let index_has ix key oid =
  let postings =
    match ix with
    | Btree_index bt -> Btree.search bt ~key
    | Hash_index h -> Hash.search h ~key
  in
  List.exists (Oid.equal oid) postings

(* The classes whose instances a path index reads: the head class, each
   class a step of the path references, and their subclasses. *)
let path_classes t (class_name, path) =
  match resolve_path t ~class_name ~path with
  | None -> []
  | Some steps -> List.concat_map (fun (c, _) -> c :: descendants t c) steps

(* A write to an instance of [class_name] can change what every path
   index through the class maps, so each such index goes stale — the
   optimizer stops planning it ([find_path_index]) until
   [refresh_path_indexes] rebuilds it — and one epoch bump retires the
   plans that probe it. Nothing to do when every path index is stale
   already, or there is none. *)
let stale_path_indexes t class_name =
  if Hashtbl.length t.path_indexes > Hashtbl.length t.stale_paths then begin
    let hit =
      Hashtbl.fold
        (fun key _ acc ->
          if (not (Hashtbl.mem t.stale_paths key)) && List.mem class_name (path_classes t key)
          then key :: acc
          else acc)
        t.path_indexes []
    in
    if hit <> [] then begin
      List.iter (fun key -> Hashtbl.replace t.stale_paths key ()) hit;
      bump_epoch t
    end
  end

(* Index maintenance after a write took the object's value from [old]
   to [next] ([None] = absent: an INSERT has no [old], a DELETE no
   [next]). Only attributes whose value changed are touched: an
   unchanged key's posting is the live one. New postings and join-index
   edges go in at once, unless the index already holds them — the
   removal of the same pair may still be pending (a key that goes
   A -> B -> A inside one transaction).

   Old postings and edges are removed through the version store so
   snapshot readers can still reach superseded versions via the index
   (the executor rechecks indexed predicates against the view-resolved
   value, filtering the resulting false positives). The removal runs
   once every snapshot that could need them has closed — immediately
   when none is open — and is dropped if the writing transaction
   aborts. When it runs it re-reads the object's current heap value and
   keeps every posting and edge that value still has. *)
let reindex_object t ?txn class_name ext oid ~old ~next =
  stale_path_indexes t class_name;
  let field v attr = Option.bind v (fun v -> Value.tuple_get v attr) in
  let key v attr =
    match field v attr with Some k when k <> Value.Null -> Some k | Some _ | None -> None
  in
  let refs v attr = match field v attr with Some v -> refs_of_value v | None -> [] in
  let changed (attr, _) = not (Option.equal Value.equal (field old attr) (field next attr)) in
  let indexes = List.filter changed (covering_indexes t class_name)
  and join_indexes = List.filter changed (covering_join_indexes t class_name) in
  List.iter
    (fun (attr, ix) ->
      match key next attr with
      | Some k when not (index_has ix k oid) -> index_insert ix k oid
      | Some _ | None -> ())
    indexes;
  List.iter
    (fun (attr, jx) ->
      let linked = Join_index.Binary.forward jx ~c:oid in
      List.iter
        (fun d -> if not (List.exists (Oid.equal d) linked) then Join_index.Binary.add jx ~c:oid ~d)
        (refs next attr))
    join_indexes;
  if indexes <> [] || join_indexes <> [] then
    Version_store.defer_removal (Store.versions t.st) ?txn (fun () ->
        let current = Extent.raw_get ext (Oid.slot oid) in
        List.iter
          (fun (attr, ix) ->
            match key old attr with
            | Some k when not (Option.equal Value.equal (key current attr) (Some k)) ->
                index_delete ix k oid
            | Some _ | None -> ())
          indexes;
        List.iter
          (fun (attr, jx) ->
            let kept = refs current attr in
            List.iter
              (fun d ->
                if not (List.exists (Oid.equal d) kept) then
                  ignore (Join_index.Binary.remove jx ~c:oid ~d))
              (refs old attr))
          join_indexes)

let insert_object t ?txn ~class_name value =
  let e = entry t class_name in
  let normalized = normalize t class_name value in
  let ext = own_extent t class_name in
  let slot = Extent.insert ext ?txn normalized in
  let oid = Oid.make ~class_id:e.id ~slot in
  add_index_entries t class_name oid normalized;
  stale_path_indexes t class_name;
  oid

let get_object t oid =
  match Hashtbl.find_opt t.by_id (Oid.class_id oid) with
  | None -> None
  | Some e -> begin
      match e.extent with
      | None -> None
      | Some ext -> Extent.get ext (Oid.slot oid)
    end

let class_of_object t oid = class_of_id t (Oid.class_id oid)

let update_object t ?txn oid value =
  match Hashtbl.find_opt t.by_id (Oid.class_id oid) with
  | None -> false
  | Some e -> begin
      match e.extent with
      | None -> false
      | Some ext -> begin
          match Extent.get ext (Oid.slot oid) with
          | None -> false
          | Some old ->
              let normalized = normalize t e.name value in
              let ok = Extent.update ext ?txn ~slot:(Oid.slot oid) normalized in
              if ok then
                reindex_object t ?txn e.name ext oid ~old:(Some old) ~next:(Some normalized);
              ok
        end
    end

let delete_object t ?txn oid =
  match Hashtbl.find_opt t.by_id (Oid.class_id oid) with
  | None -> false
  | Some e -> begin
      match e.extent with
      | None -> false
      | Some ext -> begin
          match Extent.get ext (Oid.slot oid) with
          | None -> false
          | Some old ->
              let ok = Extent.delete ext ?txn (Oid.slot oid) in
              if ok then reindex_object t ?txn e.name ext oid ~old:(Some old) ~next:None;
              ok
        end
    end

(* The class whose own extent is heap file [file]. *)
let entry_of_file t file =
  List.find_map
    (fun name ->
      match (entry t name).extent with
      | Some ext when Heap_file.file_id (Extent.heap ext) = file -> Some (entry t name, ext)
      | Some _ | None -> None)
    t.order

let extent_of_file t file = Option.map snd (entry_of_file t file)

type image = Before | After

(* The one way a logged image goes back into its slot: redo puts the
   [After] image (recovery, the replica's apply), undo the [Before]
   image (recovery's losers, the replica bootstrap's scrub, a live
   abort). An INSERT's before-image and a DELETE's after-image are the
   slot's absence. Putting an image the slot already holds changes
   nothing, so a rerun converges. With [reindex] the indexes follow the
   slot through [reindex_object], as after any other write; recovery
   and the replica rebuild theirs instead. *)
let put_image t ~reindex image record =
  let put file payload ~present =
    match entry_of_file t file with
    | None -> ()
    | Some (e, ext) ->
        let slot, value = Extent.decode payload in
        let next = if present then Some value else None in
        let old = if reindex then Extent.raw_get ext slot else None in
        (match next with
        | Some v -> if not (Extent.update ext ~slot v) then Extent.insert_at ext ~slot v
        | None -> ignore (Extent.delete ext slot));
        if reindex then reindex_object t e.name ext (Oid.make ~class_id:e.id ~slot) ~old ~next
  in
  match (image, record) with
  | After, Wal.Insert { file; payload; _ } -> put file payload ~present:true
  | Before, Wal.Insert { file; payload; _ } -> put file payload ~present:false
  | After, Wal.Update { file; after; _ } -> put file after ~present:true
  | Before, (Wal.Update { file; before; _ } | Wal.Delete { file; before; _ }) ->
      put file before ~present:true
  | After, Wal.Delete { file; before; _ } -> put file before ~present:false
  | _, (Wal.Begin _ | Wal.Commit _ | Wal.Abort _ | Wal.Checkpoint _ | Wal.Prepare _
       | Wal.Decision _) ->
      ()

let classes_in_scope t ~every ~minus name =
  let base = if every then name :: descendants t name else [ name ] in
  let excluded =
    List.concat_map (fun m -> m :: descendants t m) minus
    |> List.sort_uniq String.compare
  in
  List.filter (fun c -> not (List.mem c excluded)) base

let extent_oids t ?(every = true) ?(minus = []) name =
  classes_in_scope t ~every ~minus name
  |> List.concat_map (fun c ->
         let e = entry t c in
         match e.extent with
         | None -> []
         | Some ext ->
             List.map (fun slot -> Oid.make ~class_id:e.id ~slot) (Extent.slots ext))

let scan_extent t ~every ?(minus = []) name ~f =
  List.iter
    (fun c ->
      let e = entry t c in
      match e.extent with
      | None -> ()
      | Some ext -> Extent.scan ext ~f:(fun slot v -> f (Oid.make ~class_id:e.id ~slot) v))
    (classes_in_scope t ~every ~minus name)

(* ------------------------------------------------------------------ *)
(* Indexes                                                             *)

let create_index t ~class_name ~attr ~kind ?(unique = false) () =
  let ty =
    match attribute_type t ~class_name ~attr with
    | Some ty -> ty
    | None -> schema_error "class %s has no attribute %s" class_name attr
  in
  if not (Mtype.is_atomic ty) then
    schema_error "cannot build a conventional index on non-atomic attribute %s.%s"
      class_name attr;
  if Hashtbl.mem t.indexes (class_name, attr) then
    schema_error "index on %s.%s already exists" class_name attr;
  let ix =
    match kind with
    | `Btree ->
        Btree_index (Store.new_btree t.st ~unique ~key_size:(Mtype.byte_size ty) ())
    | `Hash -> Hash_index (Store.new_hash_index t.st ())
  in
  (* Backfill from the deep extent: the index covers subclasses. *)
  List.iter
    (fun oid ->
      match get_object t oid with
      | Some v -> begin
          match Value.tuple_get v attr with
          | Some key when key <> Value.Null -> index_insert ix key oid
          | Some _ | None -> ()
        end
      | None -> ())
    (extent_oids t class_name);
  Hashtbl.replace t.indexes (class_name, attr) ix;
  bump_epoch t;
  ix

let drop_index t ~class_name ~attr =
  if Hashtbl.mem t.indexes (class_name, attr) then begin
    Hashtbl.remove t.indexes (class_name, attr);
    bump_epoch t;
    true
  end
  else false

let find_index t ~class_name ~attr =
  let rec search = function
    | [] -> None
    | c :: rest -> begin
        match Hashtbl.find_opt t.indexes (c, attr) with
        | Some ix -> Some ix
        | None -> search rest
      end
  in
  search (List.sort_uniq String.compare (ancestors_and_self t class_name))

let indexes_list t =
  Hashtbl.fold
    (fun (cls, attr) ix acc ->
      let kind = match ix with Btree_index _ -> `Btree | Hash_index _ -> `Hash in
      (cls, attr, kind) :: acc)
    t.indexes []
  |> List.sort compare

let create_join_index t ~class_name ~attr =
  begin
    match attribute_type t ~class_name ~attr with
    | Some ty when Mtype.referenced_class ty <> None -> ()
    | Some _ -> schema_error "%s.%s is not a reference attribute" class_name attr
    | None -> schema_error "class %s has no attribute %s" class_name attr
  end;
  if Hashtbl.mem t.join_indexes (class_name, attr) then
    schema_error "join index on %s.%s already exists" class_name attr;
  let jx = Store.new_binary_join_index t.st in
  List.iter
    (fun oid ->
      match get_object t oid with
      | Some v -> begin
          match Value.tuple_get v attr with
          | Some field ->
              List.iter (fun d -> Join_index.Binary.add jx ~c:oid ~d) (refs_of_value field)
          | None -> ()
        end
      | None -> ())
    (extent_oids t class_name);
  Hashtbl.replace t.join_indexes (class_name, attr) jx;
  bump_epoch t;
  jx

let find_join_index t ~class_name ~attr =
  let rec search = function
    | [] -> None
    | c :: rest -> begin
        match Hashtbl.find_opt t.join_indexes (c, attr) with
        | Some jx -> Some jx
        | None -> search rest
      end
  in
  search (List.sort_uniq String.compare (ancestors_and_self t class_name))

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)

(* Follows a path of reference attributes from a stored object to the
   set of terminal attribute values. *)
let rec follow_path t value = function
  | [] -> [ value ]
  | attr :: rest -> begin
      match Value.tuple_get value attr with
      | None -> []
      | Some field ->
          let targets = refs_of_value field in
          if targets = [] then
            (* Atomic terminal (or null). *)
            if rest = [] && field <> Value.Null then [ field ] else []
          else
            List.concat_map
              (fun oid ->
                match get_object t oid with
                | Some next -> follow_path t next rest
                | None -> [])
              targets
    end

(* A path index built from the data: each head of the class's deep
   extent under every terminal value its path reaches. *)
let build_path_index t ~class_name ~path =
  let px = Store.new_path_index t.st ~path in
  List.iter
    (fun head ->
      match get_object t head with
      | Some v ->
          List.iter (fun terminal -> Join_index.Path.add px ~terminal ~head) (follow_path t v path)
      | None -> ())
    (extent_oids t class_name);
  px

let create_path_index t ~class_name ~path =
  begin
    match resolve_path t ~class_name ~path with
    | Some _ -> ()
    | None -> schema_error "path %s.%s does not type-check" class_name (String.concat "." path)
  end;
  if Hashtbl.mem t.path_indexes (class_name, path) then
    schema_error "path index on %s.%s already exists" class_name (String.concat "." path);
  let px = build_path_index t ~class_name ~path in
  Hashtbl.replace t.path_indexes (class_name, path) px;
  bump_epoch t;
  px

let find_path_index t ~class_name ~path =
  if Hashtbl.mem t.stale_paths (class_name, path) then None
  else Hashtbl.find_opt t.path_indexes (class_name, path)

let refresh_path_indexes t =
  if Hashtbl.length t.stale_paths > 0 then begin
    Hashtbl.iter
      (fun ((class_name, path) as key) () ->
        Hashtbl.replace t.path_indexes key (build_path_index t ~class_name ~path))
      t.stale_paths;
    Hashtbl.reset t.stale_paths;
    bump_epoch t
  end

let path_indexes t =
  Hashtbl.fold (fun (cls, path) px acc -> (cls, path, px) :: acc) t.path_indexes []

(* ------------------------------------------------------------------ *)
(* Bootstrap                                                           *)

(* ------------------------------------------------------------------ *)
(* Named objects                                                       *)

let name_slot t name =
  let found = ref None in
  Extent.scan (system_extent t moods_name) ~f:(fun slot row ->
      match Value.tuple_get row "objectName" with
      | Some (Value.Str n) when String.equal n name -> found := Some (slot, row)
      | Some _ | None -> ());
  !found

let name_object t ~name oid =
  if name_slot t name <> None then schema_error "object name %S already in use" name;
  if get_object t oid = None then
    schema_error "cannot name %s: no such object" (Oid.to_string oid);
  ignore
    (Extent.insert (system_extent t moods_name)
       (Value.Tuple
          [ ("objectName", Value.Str name);
            ("classId", Value.Int (Oid.class_id oid));
            ("slot", Value.Int (Oid.slot oid))
          ]))

let named_object t name =
  match name_slot t name with
  | Some (_, row) -> begin
      match Value.tuple_get row "classId", Value.tuple_get row "slot" with
      | Some (Value.Int class_id), Some (Value.Int slot) ->
          Some (Oid.make ~class_id ~slot)
      | _, _ -> None
    end
  | None -> None

let drop_name t name =
  match name_slot t name with
  | Some (slot, _) -> Extent.delete (system_extent t moods_name) slot
  | None -> false

let named_objects t =
  let out = ref [] in
  Extent.scan (system_extent t moods_name) ~f:(fun _ row ->
      match
        ( Value.tuple_get row "objectName",
          Value.tuple_get row "classId",
          Value.tuple_get row "slot" )
      with
      | Some (Value.Str n), Some (Value.Int class_id), Some (Value.Int slot) ->
          out := (n, Oid.make ~class_id ~slot) :: !out
      | _, _, _ -> ());
  List.sort (fun (a, _) (b, _) -> String.compare a b) !out

let system_class_attrs = function
  | "MoodsType" ->
      [ ("typeId", Mtype.Basic Mtype.Integer);
        ("typeName", Mtype.Basic (Mtype.String 64));
        ("isClass", Mtype.Basic Mtype.Boolean);
        ("superclasses", Mtype.List (Mtype.Basic (Mtype.String 64)))
      ]
  | "MoodsAttribute" ->
      [ ("ownerTypeId", Mtype.Basic Mtype.Integer);
        ("attrName", Mtype.Basic (Mtype.String 64));
        ("attrType", Mtype.Basic (Mtype.String 128))
      ]
  | "MoodsFunction" ->
      [ ("ownerTypeId", Mtype.Basic Mtype.Integer);
        ("functionName", Mtype.Basic (Mtype.String 64));
        ("returnType", Mtype.Basic (Mtype.String 128));
        ("parameters", Mtype.List (Mtype.Basic (Mtype.String 128)))
      ]
  | "MoodsName" ->
      [ ("objectName", Mtype.Basic (Mtype.String 64));
        ("classId", Mtype.Basic Mtype.Integer);
        ("slot", Mtype.Basic Mtype.Integer)
      ]
  | other -> invalid_arg ("not a system class: " ^ other)

let create ~store =
  let t =
    { st = store;
      by_name = Hashtbl.create 64;
      by_id = Hashtbl.create 64;
      order = [];
      next_id = 0;
      indexes = Hashtbl.create 16;
      join_indexes = Hashtbl.create 16;
      path_indexes = Hashtbl.create 16;
      stale_paths = Hashtbl.create 4;
      system_ready = false;
      epoch = 0;
      attrs_memo = Hashtbl.create 64
    }
  in
  let declare name =
    ignore (define_class t ~name ~attributes:(system_class_attrs name) ())
  in
  List.iter declare system_class_names;
  t.system_ready <- true;
  (* Self-description: the system classes appear in their own extents. *)
  List.iter
    (fun name ->
      let e = entry t name in
      persist_type_row t e;
      List.iter (persist_attribute_row t e) e.attrs)
    system_class_names;
  t

(* ------------------------------------------------------------------ *)
(* Backup / restore support                                            *)

let replace_extent_contents t name contents =
  let ext = own_extent t name in
  Extent.clear ext;
  List.iter (fun (slot, value) -> Extent.insert_at ext ~slot value) contents

let rebuild_indexes t =
  (* The rebuilt structures replace the ones queued removal closures
     point into; the fresh backfill reflects current heap state, so the
     queue is moot as well as dangerous. *)
  Version_store.clear_removals (Store.versions t.st);
  let backfill_index cls attr ix =
    List.iter
      (fun oid ->
        match get_object t oid with
        | Some v -> begin
            match Value.tuple_get v attr with
            | Some key when key <> Value.Null -> index_insert ix key oid
            | Some _ | None -> ()
          end
        | None -> ())
      (extent_oids t cls)
  in
  let index_keys = Hashtbl.fold (fun key ix acc -> (key, ix) :: acc) t.indexes [] in
  List.iter
    (fun ((cls, attr), old_ix) ->
      let fresh =
        match old_ix with
        | Btree_index old ->
            let s = Btree.stats old in
            Btree_index
              (Store.new_btree t.st ~order:s.Btree.order ~unique:s.Btree.unique
                 ~key_size:s.Btree.key_size ())
        | Hash_index _ -> Hash_index (Store.new_hash_index t.st ())
      in
      backfill_index cls attr fresh;
      Hashtbl.replace t.indexes (cls, attr) fresh)
    index_keys;
  let join_keys = Hashtbl.fold (fun key _ acc -> key :: acc) t.join_indexes [] in
  List.iter
    (fun (cls, attr) ->
      let jx = Store.new_binary_join_index t.st in
      List.iter
        (fun oid ->
          match get_object t oid with
          | Some v -> begin
              match Value.tuple_get v attr with
              | Some field ->
                  List.iter
                    (fun d -> Join_index.Binary.add jx ~c:oid ~d)
                    (refs_of_value field)
              | None -> ()
            end
          | None -> ())
        (extent_oids t cls);
      Hashtbl.replace t.join_indexes (cls, attr) jx)
    join_keys;
  let path_keys = Hashtbl.fold (fun key _ acc -> key :: acc) t.path_indexes [] in
  List.iter
    (fun ((class_name, path) as key) ->
      Hashtbl.replace t.path_indexes key (build_path_index t ~class_name ~path))
    path_keys;
  Hashtbl.reset t.stale_paths;
  bump_epoch t

(* Every secondary index against the data it covers: the structure's
   own invariants, then exactly one posting for each non-null
   (value, object) pair of the class's deep extent and no other. The
   heap is read raw, so the equality is exact only while no snapshot
   is open — until the last one closes, superseded postings stay for
   it. *)
let validate_indexes t =
  let indexes =
    List.sort (fun (a, _) (b, _) -> compare a b)
      (Hashtbl.fold (fun key ix acc -> (key, ix) :: acc) t.indexes [])
  in
  List.concat_map
    (fun ((cls, attr), ix) ->
      let bad fmt = Printf.ksprintf (Printf.sprintf "index %s(%s): %s" cls attr) fmt in
      let structural, search, entries =
        match ix with
        | Btree_index bt ->
            (Btree.validate bt, (fun key -> Btree.search bt ~key), (Btree.stats bt).Btree.entries)
        | Hash_index h -> (Hash.validate h, (fun key -> Hash.search h ~key), Hash.entries h)
      in
      let pairs =
        List.concat_map
          (fun c ->
            let e = entry t c in
            match e.extent with
            | None -> []
            | Some ext ->
                List.filter_map
                  (fun slot ->
                    match Option.bind (Extent.raw_get ext slot) (fun v -> Value.tuple_get v attr) with
                    | Some k when k <> Value.Null -> Some (k, Oid.make ~class_id:e.id ~slot)
                    | Some _ | None -> None)
                  (Extent.slots ext))
          (classes_in_scope t ~every:true ~minus:[] cls)
      in
      List.map (bad "%s") structural
      @ List.filter_map
          (fun (k, oid) ->
            match List.length (List.filter (Oid.equal oid) (search k)) with
            | 1 -> None
            | n -> Some (bad "%d postings of %s under %s, want 1" n (Oid.to_string oid) (Value.to_string k)))
          pairs
      @
      if entries = List.length pairs then []
      else [ bad "%d postings for %d indexed values" entries (List.length pairs) ])
    indexes

let render_system_catalog t =
  let buf = Buffer.create 512 in
  let dump name =
    Buffer.add_string buf (name ^ ":\n");
    Extent.scan (system_extent t name) ~f:(fun slot v ->
        Buffer.add_string buf (Printf.sprintf "  [%d] %s\n" slot (Value.to_string v)))
  in
  dump moods_type;
  dump moods_attribute;
  dump moods_function;
  Buffer.contents buf
