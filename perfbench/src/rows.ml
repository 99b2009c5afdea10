(* Parser for rendered result rows as the server sends them, e.g.
   [<v.id: 12, c.location: "Ankara">], [<SUM(v.weight): 7L>]
   or a bare value. Object references ([<8:1>]) are recognised but never
   compared. *)

type v =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Oid of string
  | Tuple of (string * v) list

exception Bad of string

let parse (s : string) : v =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let fail what = raise (Bad (Printf.sprintf "%s at %d in %S" what !pos s)) in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let is_digit c = c >= '0' && c <= '9' in
  let rec value () =
    match peek () with
    | '<' -> angle ()
    | '"' -> Str (string_lit ())
    | _ -> atom ()
  and angle () =
    incr pos;
    (* <volume:page> is an OID; tuples always put a space after ':' *)
    let start = !pos in
    let i = ref start in
    while !i < n && is_digit s.[!i] do incr i done;
    if !i > start && !i < n && s.[!i] = ':' && !i + 1 < n && is_digit s.[!i + 1] then begin
      let j = ref (!i + 1) in
      while !j < n && is_digit s.[!j] do incr j done;
      if !j < n && s.[!j] = '>' then begin
        pos := !j + 1;
        Oid (String.sub s start (!j - start))
      end
      else fields ()
    end
    else fields ()
  and fields () =
    let rec go acc =
      let start = !pos in
      while !pos + 1 < n && not (s.[!pos] = ':' && s.[!pos + 1] = ' ') do incr pos done;
      if !pos + 1 >= n then fail "unterminated tuple label";
      let label = String.sub s start (!pos - start) in
      pos := !pos + 2;
      let x = value () in
      match peek () with
      | ',' ->
          incr pos;
          expect ' ';
          go ((label, x) :: acc)
      | '>' ->
          incr pos;
          Tuple (List.rev ((label, x) :: acc))
      | _ -> fail "expected ',' or '>'"
    in
    go []
  and string_lit () =
    incr pos;
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          let c = peek () in
          incr pos;
          (match c with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | c when is_digit c ->
              if !pos + 2 > n then fail "bad escape";
              let code = int_of_string (String.make 1 c ^ String.sub s !pos 2) in
              pos := !pos + 2;
              Buffer.add_char b (Char.chr code)
          | c -> Buffer.add_char b c);
          go ()
      | '\000' when !pos >= n -> fail "unterminated string"
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  and atom () =
    let start = !pos in
    while !pos < n && s.[!pos] <> ',' && s.[!pos] <> '>' do incr pos done;
    let tok = String.sub s start (!pos - start) in
    match tok with
    | "NULL" -> Null
    | "" -> fail "empty value"
    | _ -> (
        let body =
          if tok.[String.length tok - 1] = 'L' then String.sub tok 0 (String.length tok - 1)
          else tok
        in
        match int_of_string_opt body with
        | Some i -> Int i
        | None -> (
            match float_of_string_opt tok with
            | Some f -> Float f
            | None -> fail ("unknown value " ^ tok)))
  in
  let x = value () in
  if !pos <> n then fail "trailing input";
  x

(* The row's values left to right, labels dropped. *)
let values = function Tuple fields -> List.map snd fields | x -> [ x ]
