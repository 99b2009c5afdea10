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

type compiled = C_moodc of Moodc.ast * string (* ast + original source *) | C_native of native_fn

type shared_object = {
  class_name : string;
  mutable functions : (string * compiled) list; (* signature key -> compiled *)
  mutable version : int;
}

type t = {
  catalog : Catalog.t;
  shared_objects : (string, shared_object) Hashtbl.t;
  mutable load_count : int;
  mutable next_scope : int;
}

type scope = {
  id : int;
  cache : (string, compiled * int) Hashtbl.t; (* signature key -> (fn, version) *)
}

let create ~catalog =
  { catalog; shared_objects = Hashtbl.create 16; load_count = 0; next_scope = 0 }

let signature_key ~class_name ~function_name ~param_types =
  Printf.sprintf "%s::%s(%s)" class_name function_name
    (String.concat "," (List.map Mtype.to_string param_types))

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
      so.version <- so.version + 1)

let drop t ~class_name ~function_name =
  with_so_lock t class_name (fun () ->
      let so = shared_object t class_name in
      let prefix = Printf.sprintf "%s::%s(" class_name function_name in
      let survivors =
        List.filter
          (fun (key, _) -> not (String.length key >= String.length prefix
                                && String.equal (String.sub key 0 (String.length prefix)) prefix))
          so.functions
      in
      if List.length survivors = List.length so.functions then
        mood_exception ~class_name ~function_name "function not found in shared object";
      so.functions <- survivors;
      so.version <- so.version + 1;
      Catalog.drop_method t.catalog ~class_name ~method_name:function_name)

let enter_scope t =
  let id = t.next_scope in
  t.next_scope <- id + 1;
  { id; cache = Hashtbl.create 8 }

let exit_scope _t scope = Hashtbl.reset scope.cache

(* Resolve the owning class of a method: the first class in MRO order
   (self, then superclasses left-to-right, recursively) whose shared
   object defines the signature key for that class. *)
let rec resolve t class_name function_name nargs =
  let try_class cls =
    match Catalog.find_class t.catalog cls with
    | None -> None
    | Some _ ->
        let so = shared_object t cls in
        let found =
          List.find_opt
            (fun (key, _) ->
              let prefix = Printf.sprintf "%s::%s(" cls function_name in
              String.length key >= String.length prefix
              && String.equal (String.sub key 0 (String.length prefix)) prefix)
            so.functions
        in
        Option.map (fun (key, compiled) -> (cls, key, compiled, so.version)) found
  in
  match try_class class_name with
  | Some hit -> Some hit
  | None ->
      let rec first_some = function
        | [] -> None
        | super :: rest -> begin
            match resolve t super function_name nargs with
            | Some hit -> Some hit
            | None -> first_some rest
          end
      in
      first_some (Catalog.superclasses t.catalog class_name)

let signature_of t class_name function_name =
  Catalog.find_method t.catalog ~class_name ~method_name:function_name

let load t ~scope ~class_name ~function_name ~nargs =
  match resolve t class_name function_name nargs with
  | None ->
      mood_exception ~class_name ~function_name
        "signature not found in CATALOG for class %s" class_name
  | Some (owner, key, compiled, version) -> begin
      (* Scope cache: opened shared objects stay loaded until the scope
         changes; a rebuilt shared object (newer version) is reloaded. *)
      match Hashtbl.find_opt scope.cache key with
      | Some (cached, v) when v = version -> cached
      | Some _ | None ->
          t.load_count <- t.load_count + 1;
          ignore owner;
          Hashtbl.replace scope.cache key (compiled, version);
          compiled
    end

let check_arity t ~class_name ~function_name ~args =
  match signature_of t class_name function_name with
  | Some m ->
      let expected = List.length m.Catalog.parameters in
      if expected <> List.length args then
        mood_exception ~class_name ~function_name "expected %d argument(s), got %d"
          expected (List.length args)
  | None -> ()

let run_compiled t ~class_name ~function_name compiled ~self ~args =
  let deref oid = Catalog.get_object t.catalog oid in
  try
    match compiled with
    | C_native fn -> fn ~deref ~self ~args
    | C_moodc (ast, _) -> Moodc.run ast { Moodc.deref; self; args }
  with
  | Mood_model.Operand.Type_error msg ->
      mood_exception ~class_name ~function_name "run-time error: %s" msg
  | Division_by_zero ->
      mood_exception ~class_name ~function_name "run-time error: division by zero"
  | Failure msg -> mood_exception ~class_name ~function_name "signal: %s" msg

let invoke_on_value t ~scope ~class_name ~self ~function_name ~args =
  check_arity t ~class_name ~function_name ~args;
  let compiled =
    load t ~scope ~class_name ~function_name ~nargs:(List.length args)
  in
  run_compiled t ~class_name ~function_name compiled ~self ~args

let invoke t ~scope ~self ~function_name ~args =
  match Catalog.class_of_object t.catalog self with
  | None ->
      mood_exception ~class_name:"?" ~function_name "object %s has no class"
        (Oid.to_string self)
  | Some info -> begin
      match Catalog.get_object t.catalog self with
      | None ->
          mood_exception ~class_name:info.Catalog.class_name ~function_name
            "object %s not found" (Oid.to_string self)
      | Some value ->
          invoke_on_value t ~scope ~class_name:info.Catalog.class_name ~self:value
            ~function_name ~args
    end

let invoke_interpreted t ~self ~function_name ~args =
  match Catalog.class_of_object t.catalog self with
  | None ->
      mood_exception ~class_name:"?" ~function_name "object %s has no class"
        (Oid.to_string self)
  | Some info -> begin
      let class_name = info.Catalog.class_name in
      match resolve t class_name function_name (List.length args) with
      | None ->
          mood_exception ~class_name ~function_name "signature not found in CATALOG for class %s"
            class_name
      | Some (_, _, C_native _, _) ->
          mood_exception ~class_name ~function_name "native function cannot be interpreted"
      | Some (owner, _, C_moodc (_, source), _) -> begin
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
              ignore owner;
              let deref oid = Catalog.get_object t.catalog oid in
              let env = { Moodc.deref; self = value; args } in
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
