module Value = Mood_model.Value
module Mtype = Mood_model.Mtype
module Oid = Mood_model.Oid
module Catalog = Mood_catalog.Catalog
module Store = Mood_storage.Store
module Lock = Mood_storage.Lock_manager

exception Mood_exception of { class_name : string; function_name : string; message : string }

let mood_exception ~class_name ~function_name fmt =
  Format.kasprintf
    (fun message -> raise (Mood_exception { class_name; function_name; message }))
    fmt

type native_fn =
  deref:(Oid.t -> Value.t option) ->
  self:Value.t ->
  args:Value.t list ->
  Value.t

type body = Moodc of string | Native of native_fn

type compiled = C_moodc of Moodc.code * string (* lowered body + original source *) | C_native of native_fn

type shared_object = {
  class_name : string;
  mutable functions : (string * compiled) list; (* signature key -> compiled *)
  mutable version : int;
}

type t = {
  catalog : Catalog.t;
  deref : Oid.t -> Value.t option;  (* the kernel's dereference, handed to every body *)
  shared_objects : (string, shared_object) Hashtbl.t;
  mutable generation : int;  (* bumped by every [define] and [drop] *)
  mutable load_count : int;
}

(* A method bound for one receiver class: the body late binding chose,
   and the receiver's class, which its errors name. *)
type binding = { b_class : string; b_body : compiled }

(* (receiver class id, function name, argument count) *)
module Binding_key = struct
  type t = { cls : int; fn : string; nargs : int }

  let equal a b = a.cls = b.cls && a.nargs = b.nargs && String.equal a.fn b.fn

  let hash k = (((Hashtbl.hash k.fn * 31) + k.cls) * 31) + k.nargs
end

module Bindings = Hashtbl.Make (Binding_key)

type scope = {
  cache : (string, compiled * int) Hashtbl.t; (* signature key -> (fn, version) *)
  bindings : binding Bindings.t;
  (* the Function Manager's generation and the catalog epoch the
     bindings were made under *)
  mutable bound_generation : int;
  mutable bound_epoch : int;
}

let create ~catalog =
  { catalog;
    deref = Catalog.get_object catalog;
    shared_objects = Hashtbl.create 16;
    generation = 0;
    load_count = 0
  }

let signature_key ~class_name ~function_name ~param_types =
  Printf.sprintf "%s::%s(%s)" class_name function_name
    (String.concat "," (List.map Mtype.to_string param_types))

(* Whether [key] is a signature of [class_name::function_name], whatever
   its parameter types. *)
let signs ~class_name ~function_name key =
  String.starts_with ~prefix:(Printf.sprintf "%s::%s(" class_name function_name) key

let shared_object t class_name =
  match Hashtbl.find_opt t.shared_objects class_name with
  | Some so -> so
  | None ->
      let so = { class_name; functions = []; version = 0 } in
      Hashtbl.replace t.shared_objects class_name so;
      so

let so_resource class_name = "shared_object:" ^ class_name

(* Exclusive lock around a shared-object rebuild: "the shared library of
   the class will be unavailable only during the time it takes to write
   the new function". *)
let with_so_lock t class_name f =
  let locks = Store.locks (Catalog.store t.catalog) in
  let txn = Lock.begin_txn locks in
  match Lock.acquire locks txn (so_resource class_name) with
  | Lock.Granted ->
      let finish () = Lock.release_all locks txn in
      begin
        try
          let result = f () in
          finish ();
          result
        with e ->
          finish ();
          raise e
      end
  | Lock.Would_block | Lock.Deadlock ->
      Lock.release_all locks txn;
      mood_exception ~class_name ~function_name:"<define>"
        "shared object of %s is locked by another writer" class_name

let compile_body ~class_name ~function_name ~params body =
  match body with
  | Native fn -> C_native fn
  | Moodc source -> begin
      let processed = Moodc.preprocess source in
      try C_moodc (Moodc.compile ~params processed, source)
      with Moodc.Parse_error msg ->
        mood_exception ~class_name ~function_name "compilation failed: %s" msg
    end

let define t ~class_name ~(signature : Catalog.method_signature) body =
  let key =
    signature_key ~class_name ~function_name:signature.Catalog.method_name
      ~param_types:(List.map snd signature.Catalog.parameters)
  in
  let params = List.map fst signature.Catalog.parameters in
  let compiled =
    compile_body ~class_name ~function_name:signature.Catalog.method_name ~params body
  in
  with_so_lock t class_name (fun () ->
      let so = shared_object t class_name in
      (* Register the signature in the catalog unless already declared. *)
      let declared =
        List.exists
          (fun (m : Catalog.method_signature) ->
            String.equal m.Catalog.method_name signature.Catalog.method_name
            && List.length m.Catalog.parameters = List.length signature.Catalog.parameters
            && List.for_all2
                 (fun (_, a) (_, b) -> Mtype.equal a b)
                 m.Catalog.parameters signature.Catalog.parameters)
          (Catalog.methods t.catalog class_name)
      in
      if not declared then Catalog.add_method t.catalog ~class_name signature;
      so.functions <- (key, compiled) :: List.remove_assoc key so.functions;
      so.version <- so.version + 1;
      t.generation <- t.generation + 1)

let drop t ~class_name ~function_name =
  with_so_lock t class_name (fun () ->
      let so = shared_object t class_name in
      let survivors =
        List.filter (fun (key, _) -> not (signs ~class_name ~function_name key)) so.functions
      in
      if List.length survivors = List.length so.functions then
        mood_exception ~class_name ~function_name "function not found in shared object";
      so.functions <- survivors;
      so.version <- so.version + 1;
      t.generation <- t.generation + 1;
      Catalog.drop_method t.catalog ~class_name ~method_name:function_name)

let enter_scope t =
  { cache = Hashtbl.create 8;
    bindings = Bindings.create 8;
    bound_generation = t.generation;
    bound_epoch = Catalog.epoch t.catalog
  }

let exit_scope _t scope =
  Hashtbl.reset scope.cache;
  Bindings.reset scope.bindings

(* Resolve the owning class of a method: the first class in MRO order
   (self, then superclasses left-to-right, recursively) whose shared
   object defines the signature key for that class. *)
let rec resolve t class_name function_name =
  let try_class cls =
    match Catalog.find_class t.catalog cls with
    | None -> None
    | Some _ ->
        let so = shared_object t cls in
        List.find_opt (fun (key, _) -> signs ~class_name:cls ~function_name key) so.functions
        |> Option.map (fun (key, compiled) -> (key, compiled, so.version))
  in
  match try_class class_name with
  | Some hit -> Some hit
  | None ->
      List.find_map
        (fun super -> resolve t super function_name)
        (Catalog.superclasses t.catalog class_name)

let signature_of t class_name function_name =
  Catalog.find_method t.catalog ~class_name ~method_name:function_name

let load t ~scope ~class_name ~function_name =
  match resolve t class_name function_name with
  | None ->
      mood_exception ~class_name ~function_name
        "signature not found in CATALOG for class %s" class_name
  | Some (key, compiled, version) -> begin
      (* Scope cache: opened shared objects stay loaded until the scope
         changes; a rebuilt shared object (newer version) is reloaded. *)
      match Hashtbl.find_opt scope.cache key with
      | Some (cached, v) when v = version -> cached
      | Some _ | None ->
          t.load_count <- t.load_count + 1;
          Hashtbl.replace scope.cache key (compiled, version);
          compiled
    end

let check_arity t ~class_name ~function_name ~nargs =
  match signature_of t class_name function_name with
  | Some m ->
      let expected = List.length m.Catalog.parameters in
      if expected <> nargs then
        mood_exception ~class_name ~function_name "expected %d argument(s), got %d"
          expected nargs
  | None -> ()

(* The scope's bindings, emptied first when a [define] or [drop] or a
   schema change has happened since they were made: each could change
   what a signature resolves to. *)
let bindings t scope =
  let epoch = Catalog.epoch t.catalog in
  if scope.bound_generation <> t.generation || scope.bound_epoch <> epoch then begin
    Bindings.reset scope.bindings;
    scope.bound_generation <- t.generation;
    scope.bound_epoch <- epoch
  end;
  scope.bindings

(* A binding miss: the paper's control flow, once per scope and
   receiver class. *)
let bind t ~scope (key : Binding_key.t) ~class_name =
  check_arity t ~class_name ~function_name:key.fn ~nargs:key.nargs;
  let b = { b_class = class_name; b_body = load t ~scope ~class_name ~function_name:key.fn } in
  Bindings.replace scope.bindings key b;
  b

let call t b ~function_name ~self ~args =
  let class_name = b.b_class in
  try
    match b.b_body with
    | C_native fn -> fn ~deref:t.deref ~self ~args
    | C_moodc (code, _) -> Moodc.exec code { Moodc.deref = t.deref; self; args }
  with
  | Mood_model.Operand.Type_error msg ->
      mood_exception ~class_name ~function_name "run-time error: %s" msg
  | Division_by_zero ->
      mood_exception ~class_name ~function_name "run-time error: division by zero"
  | Failure msg -> mood_exception ~class_name ~function_name "signal: %s" msg

let key ~cls ~function_name ~args =
  { Binding_key.cls; fn = function_name; nargs = List.length args }

let invoke_on_value t ~scope ~class_name ~self ~function_name ~args =
  (* An unknown class has no id; its miss fails in the catalog. *)
  let cls =
    match Catalog.find_class t.catalog class_name with Some info -> info.Catalog.class_id | None -> -1
  in
  let key = key ~cls ~function_name ~args in
  let b =
    match Bindings.find_opt (bindings t scope) key with
    | Some b -> b
    | None -> bind t ~scope key ~class_name
  in
  call t b ~function_name ~self ~args

let no_class ~function_name oid =
  mood_exception ~class_name:"?" ~function_name "object %s has no class" (Oid.to_string oid)

let invoke_stored t ~scope ~self ~value ~function_name ~args =
  let key = key ~cls:(Oid.class_id self) ~function_name ~args in
  let b =
    match Bindings.find_opt (bindings t scope) key with
    | Some b -> b
    | None -> begin
        match Catalog.class_of_object t.catalog self with
        | Some info -> bind t ~scope key ~class_name:info.Catalog.class_name
        | None -> no_class ~function_name self
      end
  in
  call t b ~function_name ~self:value ~args

let invoke t ~scope ~self ~function_name ~args =
  match Catalog.get_object t.catalog self with
  | Some value -> invoke_stored t ~scope ~self ~value ~function_name ~args
  | None -> begin
      match Catalog.class_of_object t.catalog self with
      | None -> no_class ~function_name self
      | Some info ->
          mood_exception ~class_name:info.Catalog.class_name ~function_name
            "object %s not found" (Oid.to_string self)
    end

let invoke_interpreted t ~self ~function_name ~args =
  match Catalog.class_of_object t.catalog self with
  | None -> no_class ~function_name self
  | Some info -> begin
      let class_name = info.Catalog.class_name in
      match resolve t class_name function_name with
      | None ->
          mood_exception ~class_name ~function_name "signature not found in CATALOG for class %s"
            class_name
      | Some (_, C_native _, _) ->
          mood_exception ~class_name ~function_name "native function cannot be interpreted"
      | Some (_, C_moodc (_, source), _) -> begin
          match Catalog.get_object t.catalog self with
          | None ->
              mood_exception ~class_name ~function_name "object %s not found"
                (Oid.to_string self)
          | Some value ->
              let params =
                match signature_of t class_name function_name with
                | Some m -> List.map fst m.Catalog.parameters
                | None -> []
              in
              let env = { Moodc.deref = t.deref; self = value; args } in
              begin
                try Moodc.interpret ~params (Moodc.preprocess source) env with
                | Mood_model.Operand.Type_error msg ->
                    mood_exception ~class_name ~function_name "run-time error: %s" msg
                | Moodc.Parse_error msg ->
                    mood_exception ~class_name ~function_name "parse error: %s" msg
              end
        end
    end

let moodc_sources t =
  Hashtbl.fold
    (fun class_name so acc ->
      List.fold_left
        (fun acc (key, compiled) ->
          match compiled with
          | C_native _ -> acc
          | C_moodc (_, source) -> begin
              (* key = "Class::name(types)": recover the function name *)
              match String.index_opt key ':' with
              | Some i when i + 2 <= String.length key ->
                  let rest = String.sub key (i + 2) (String.length key - i - 2) in
                  let name =
                    match String.index_opt rest '(' with
                    | Some j -> String.sub rest 0 j
                    | None -> rest
                  in
                  (class_name, name, source) :: acc
              | Some _ | None -> acc
            end)
        acc so.functions)
    t.shared_objects []
  |> List.sort compare

let loads t = t.load_count

let cached scope = Hashtbl.length scope.cache
