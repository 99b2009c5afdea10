module Mtype = Mood_model.Mtype
module Catalog = Mood_catalog.Catalog
module Table = Mood_util.Text_table

let class_presentation db name =
  let catalog = Mood.Db.catalog db in
  match Catalog.find_class catalog name with
  | None -> Printf.sprintf "unknown class %s" name
  | Some info ->
      let buf = Buffer.create 256 in
      let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
      pr "Class Presentation\n";
      pr "  Type Name  %s\n" info.Catalog.class_name;
      pr "  Type Id    %d\n" info.Catalog.class_id;
      pr "  Class Type %s\n"
        (match info.Catalog.kind with
        | Catalog.Class -> "User Class"
        | Catalog.Type_only -> "User Type");
      pr "  Superclasses: %s\n" (String.concat ", " info.Catalog.superclasses);
      pr "  Subclasses:   %s\n" (String.concat ", " (Catalog.subclasses catalog name));
      pr "  Methods:\n";
      List.iter
        (fun (m : Catalog.method_signature) ->
          pr "    %s (%s) %s\n" m.Catalog.method_name
            (String.concat ", "
               (List.map
                  (fun (p, ty) -> p ^ " " ^ Mtype.to_string ty)
                  m.Catalog.parameters))
            (Mtype.to_string m.Catalog.return_type))
        (Catalog.methods catalog name);
      pr "  Attributes:\n";
      let table = Table.create ~header:[ "FIELD NAME"; "DATA TYPE" ] in
      List.iter
        (fun (attr, ty) -> Table.add_row table [ attr; Mtype.to_string ty ])
        (Catalog.attributes catalog name);
      Buffer.add_string buf (Table.render table);
      Buffer.add_char buf '\n';
      Buffer.contents buf

let schema_browser db =
  let catalog = Mood.Db.catalog db in
  let user_classes =
    List.filter
      (fun (info : Catalog.class_info) ->
        not (List.mem info.Catalog.class_name Catalog.system_class_names))
      (Catalog.all_classes catalog)
  in
  let nodes = List.map (fun (i : Catalog.class_info) -> i.Catalog.class_name) user_classes in
  let edges =
    List.concat_map
      (fun (i : Catalog.class_info) ->
        List.filter_map
          (fun super -> if List.mem super nodes then Some (super, i.Catalog.class_name) else None)
          i.Catalog.superclasses)
      user_classes
  in
  Dag_layout.render { Dag_layout.nodes; edges }

(* ------------------------------------------------------------------ *)
(* C++ import (the cfront substitute)                                  *)

type cpp_class = {
  cpp_name : string;
  cpp_bases : string list;
  cpp_fields : (string * Mtype.t) list;
  cpp_methods : Catalog.method_signature list;
}

exception Cpp_parse_error of string

let cpp_error fmt = Format.kasprintf (fun m -> raise (Cpp_parse_error m)) fmt

(* Tokenizer: identifiers, punctuation, numbers. Comments stripped. *)
let tokenize source =
  let n = String.length source in
  let out = ref [] in
  let i = ref 0 in
  let is_word c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
  in
  while !i < n do
    let c = source.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && source.[!i + 1] = '/' then
      while !i < n && source.[!i] <> '\n' do
        incr i
      done
    else if c = '/' && !i + 1 < n && source.[!i + 1] = '*' then begin
      i := !i + 2;
      while !i + 1 < n && not (source.[!i] = '*' && source.[!i + 1] = '/') do
        incr i
      done;
      i := !i + 2
    end
    else if is_word c then begin
      let start = !i in
      while !i < n && is_word source.[!i] do
        incr i
      done;
      out := String.sub source start (!i - start) :: !out
    end
    else begin
      out := String.make 1 c :: !out;
      incr i
    end
  done;
  List.rev !out

let base_type = function
  | "int" -> Some (Mtype.Basic Mtype.Integer)
  | "long" -> Some (Mtype.Basic Mtype.Long_integer)
  | "float" | "double" -> Some (Mtype.Basic Mtype.Float)
  | "char" -> Some (Mtype.Basic Mtype.Char)
  | "bool" -> Some (Mtype.Basic Mtype.Boolean)
  | _ -> None

let parse_cpp source =
  let toks = ref (tokenize source) in
  let peek () = match !toks with [] -> None | t :: _ -> Some t in
  let advance () = match !toks with [] -> () | _ :: rest -> toks := rest in
  let expect t =
    match peek () with
    | Some u when String.equal t u -> advance ()
    | Some u -> cpp_error "expected %S, found %S" t u
    | None -> cpp_error "expected %S at end of input" t
  in
  let ident () =
    match peek () with
    | Some t when String.length t > 0 && (t.[0] = '_' || (t.[0] >= 'A' && t.[0] <= 'z')) ->
        advance ();
        t
    | Some t -> cpp_error "expected identifier, found %S" t
    | None -> cpp_error "expected identifier at end of input"
  in
  let classes = ref [] in
  let rec parse_classes () =
    match peek () with
    | None -> ()
    | Some "class" ->
        advance ();
        let name = ident () in
        let bases = ref [] in
        if peek () = Some ":" then begin
          advance ();
          let rec base_list () =
            (match peek () with
            | Some ("public" | "private" | "protected" | "virtual") -> advance ()
            | _ -> ());
            bases := !bases @ [ ident () ];
            if peek () = Some "," then begin
              advance ();
              base_list ()
            end
          in
          base_list ()
        end;
        expect "{";
        let fields = ref [] and methods = ref [] in
        let rec members () =
          match peek () with
          | Some "}" -> advance ()
          | Some ("public" | "private" | "protected") ->
              advance ();
              expect ":";
              members ()
          | Some type_word -> begin
              advance ();
              let ty, target =
                match base_type type_word with
                | Some ty -> (ty, None)
                | None -> (Mtype.Reference type_word, Some type_word)
              in
              let is_pointer = peek () = Some "*" in
              if is_pointer then advance ();
              let member_name = ident () in
              begin
                match peek () with
                | Some "(" ->
                    (* method declaration *)
                    advance ();
                    let params = ref [] in
                    let rec param_list () =
                      match peek () with
                      | Some ")" -> advance ()
                      | Some p_type -> begin
                          advance ();
                          let p_ty =
                            match base_type p_type with
                            | Some ty -> ty
                            | None -> Mtype.Reference p_type
                          in
                          if peek () = Some "*" then advance ();
                          let p_name = ident () in
                          params := !params @ [ (p_name, p_ty) ];
                          match peek () with
                          | Some "," ->
                              advance ();
                              param_list ()
                          | _ -> param_list ()
                        end
                      | None -> cpp_error "unterminated parameter list"
                    in
                    param_list ();
                    expect ";";
                    let return_type =
                      match target, is_pointer with
                      | Some cls, true -> Mtype.Reference cls
                      | Some cls, false -> Mtype.Reference cls
                      | None, _ -> ty
                    in
                    methods :=
                      !methods
                      @ [ { Catalog.method_name = member_name;
                            parameters = !params;
                            return_type
                          }
                        ];
                    members ()
                | Some "[" ->
                    (* char name[32] → String(32) *)
                    advance ();
                    let len =
                      match peek () with
                      | Some digits -> begin
                          advance ();
                          match int_of_string_opt digits with
                          | Some n -> n
                          | None -> cpp_error "bad array length %S" digits
                        end
                      | None -> cpp_error "unterminated array declarator"
                    in
                    expect "]";
                    expect ";";
                    let ty =
                      match ty with
                      | Mtype.Basic Mtype.Char -> Mtype.Basic (Mtype.String len)
                      | other -> Mtype.List other
                    in
                    fields := !fields @ [ (member_name, ty) ];
                    members ()
                | Some ";" ->
                    advance ();
                    let field_ty =
                      if is_pointer then
                        Mtype.Reference (match target with Some t -> t | None -> type_word)
                      else ty
                    in
                    fields := !fields @ [ (member_name, field_ty) ];
                    members ()
                | Some other -> cpp_error "unexpected %S after member %s" other member_name
                | None -> cpp_error "unexpected end of input in class %s" name
              end
            end
          | None -> cpp_error "unterminated class %s" name
        in
        members ();
        (match peek () with Some ";" -> advance () | _ -> ());
        classes :=
          !classes
          @ [ { cpp_name = name; cpp_bases = !bases; cpp_fields = !fields; cpp_methods = !methods } ];
        parse_classes ()
    | Some other -> cpp_error "expected 'class', found %S" other
  in
  parse_classes ();
  !classes

let import_cpp db source =
  let catalog = Mood.Db.catalog db in
  let parsed = parse_cpp source in
  List.map
    (fun c ->
      ignore
        (Catalog.define_class catalog ~name:c.cpp_name ~superclasses:c.cpp_bases
           ~attributes:c.cpp_fields ~methods:c.cpp_methods ());
      c.cpp_name)
    parsed

let rec cpp_of_type ty =
  match ty with
  | Mtype.Basic Mtype.Integer -> ("int", "")
  | Mtype.Basic Mtype.Long_integer -> ("long", "")
  | Mtype.Basic Mtype.Float -> ("double", "")
  | Mtype.Basic Mtype.Char -> ("char", "")
  | Mtype.Basic Mtype.Boolean -> ("bool", "")
  | Mtype.Basic (Mtype.String n) -> ("char", Printf.sprintf "[%d]" n)
  | Mtype.Reference cls -> (cls ^ "*", "")
  | Mtype.Set inner | Mtype.List inner ->
      let base, _ = cpp_of_type inner in
      (base ^ "*", "[]")
  | Mtype.Tuple _ -> ("struct", "")

let export_cpp db name =
  let catalog = Mood.Db.catalog db in
  match Catalog.find_class catalog name with
  | None -> Printf.sprintf "// unknown class %s\n" name
  | Some info ->
      let buf = Buffer.create 256 in
      let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
      let bases =
        match info.Catalog.superclasses with
        | [] -> ""
        | supers -> " : " ^ String.concat ", " (List.map (fun s -> "public " ^ s) supers)
      in
      pr "class %s%s {\npublic:\n" name bases;
      List.iter
        (fun (attr, ty) ->
          let base, suffix = cpp_of_type ty in
          pr "  %s %s%s;\n" base attr suffix)
        info.Catalog.own_attributes;
      List.iter
        (fun (m : Catalog.method_signature) ->
          let ret, _ = cpp_of_type m.Catalog.return_type in
          pr "  %s %s(%s);\n" ret m.Catalog.method_name
            (String.concat ", "
               (List.map
                  (fun (p, ty) ->
                    let base, suffix = cpp_of_type ty in
                    base ^ " " ^ p ^ suffix)
                  m.Catalog.parameters)))
        (Catalog.own_methods catalog name);
      pr "};\n";
      Buffer.contents buf
