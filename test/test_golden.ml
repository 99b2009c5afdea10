(* Golden bytes for the on-disk and on-wire formats: the heap-record
   codec, one PAX page per minipage kind, a WAL update record, a
   replication batch and a wire frame. The expected hex was taken from
   the byte-at-a-time codecs these formats started with; an encoder
   rewrite must reproduce it exactly, or pages and logs written before
   it would stop decoding. Every mismatch of a group is reported in one
   failure, with the actual hex. *)

module Value = Mood_model.Value
module Oid = Mood_model.Oid
module Codec = Mood_model.Codec
module Pax = Mood_column.Pax
module Batch = Mood_column.Batch
module Wal = Mood_storage.Wal
module Heap_file = Mood_storage.Heap_file
module Rcodec = Mood_repl.Codec
module Wire = Mood_server.Wire

let hex s =
  String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

let unhex h =
  String.init (String.length h / 2) (fun i -> Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let check_group group cases =
  let bad =
    List.filter_map
      (fun (name, bytes, want) ->
        let got = hex bytes in
        if String.equal got want then None
        else Some (Printf.sprintf "%s:\n  want %s\n  got  %s" name want got))
      cases
  in
  if bad <> [] then Alcotest.failf "%s golden bytes differ:\n%s" group (String.concat "\n" bad)

(* ------------------------------------------------------------------ *)
(* Heap-record codec                                                   *)

let quiet_nan = Int64.float_of_bits 0x7FF8_0000_0000_0000L

let codec_cases =
  [ ("Int 0", Value.Int 0, "010000000000000000");
    ("Int -1", Value.Int (-1), "01ffffffffffffffff");
    ("Int max_int", Value.Int max_int, "013fffffffffffffff");
    ("Int min_int", Value.Int min_int, "01c000000000000000");
    ("Long max", Value.Long Int64.max_int, "027fffffffffffffff");
    ("Long min", Value.Long Int64.min_int, "028000000000000000");
    ("Float -0.", Value.Float (-0.), "038000000000000000");
    ("Float infinity", Value.Float infinity, "037ff0000000000000");
    ("Float nan", Value.Float quiet_nan, "037ff8000000000000");
    ("Str with NULs", Value.Str "a\000b\000\255", "04000000000000000561006200ff");
    ("Char", Value.Char 'z', "057a");
    ("Bool true", Value.Bool true, "0601");
    ("Bool false", Value.Bool false, "0600");
    ("Ref", Value.Ref (Oid.make ~class_id:3 ~slot:70000), "0a00000000000000030000000000011170");
    ( "nested",
      Value.Tuple
        [ ("name", Value.Str "BMW");
          ("tags", Value.set [ Value.Int 2; Value.Int 1 ]);
          ( "hist",
            Value.List [ Value.Float 1.5; Value.Null; Value.Ref (Oid.make ~class_id:1 ~slot:2) ]
          );
          ("inner", Value.Tuple [ ("c", Value.Char 'x') ])
        ],
      "07000000000000000400000000000000046e616d65040000000000000003424d\
       5700000000000000047461677308000000000000000201000000000000000101\
       0000000000000002000000000000000468697374090000000000000003033ff8\
       000000000000000a000000000000000100000000000000020000000000000005\
       696e6e65720700000000000000010000000000000001630578" )
  ]

let test_codec () =
  check_group "Codec.encode"
    (List.map (fun (name, v, want) -> (name, Codec.encode v, want)) codec_cases);
  (* The golden bytes decode to the value they were taken from. *)
  List.iter
    (fun (name, v, want) ->
      if Value.compare (Codec.decode (unhex want)) v <> 0 then
        Alcotest.failf "Codec.decode of golden %s gave %s" name
          (Value.to_string (Codec.decode (unhex want))))
    codec_cases

(* ------------------------------------------------------------------ *)
(* PAX pages: one single-attribute page per minipage kind, each with
   NULL cells                                                          *)

let pax_page kind hints cells =
  let schema = [| ("a", kind) |] in
  let rows = Array.of_list (List.map (fun v -> Value.Tuple [ ("a", v) ]) cells) in
  let slots = Array.init (Array.length rows) (fun i -> 3 * i) in
  ((kind, cells), Pax.encode_page ~schema ~hints ~slots ~rows)

let pax_cases =
  let i n = Value.Int n and f x = Value.Float x and s x = Value.Str x in
  [ ( "int plain",
      pax_page Pax.KInt [] [ i 0; i (-1); Value.Null; i max_int; i min_int; i 42 ],
      "50415831c29e53a8000000060000000100000000060000000000000000000000\
       00000000000300000000000000060000000000000009000000000000000c0000\
       00000000000f000000000601040000000000000000ffffffffffffffff000000\
       00000000003fffffffffffffffc000000000000000000000000000002a" );
    ( "int rle",
      pax_page Pax.KInt []
        [ i 7; i 7; i 7; Value.Null; i 7; i 7; i 9; i 9; i 9; i 9 ],
      "50415831d54e4b500000000a00000001000000000a0000000000000000000000\
       00000000000300000000000000060000000000000009000000000000000c0000\
       00000000000f0000000000000012000000000000001500000000000000180000\
       00000000001b010000000a010800000000040000000300000000000000070000\
       0001000000000000000000000002000000000000000700000004000000000000\
       0009" );
    ( "float",
      pax_page Pax.KFloat [] [ f 1.5; Value.Null; f (-0.); f infinity; f quiet_nan ],
      "50415831032efc49000000050000000100000000050000000000000000000000\
       00000000000300000000000000060000000000000009000000000000000c0200\
       00000501023ff8000000000000000000000000000080000000000000007ff000\
       00000000007ff8000000000000" );
    ( "str plain",
      pax_page Pax.KStr [ ("a", Pax.No_dict) ] [ s "ab"; Value.Null; s ""; s "a\000c" ],
      "50415831f2b61c8e000000040000000100000000040000000000000000000000\
       0000000000030000000000000006000000000000000903000000040102000000\
       026162000000000000000000000003610063" );
    ( "str dict",
      pax_page Pax.KStr [ ("a", Pax.Prefer_dict) ]
        [ s "x"; s "y"; Value.Null; s "x"; s "x"; s "y" ],
      "50415831f4aec8f9000000060000000100000000060000000000000000000000\
       00000000000300000000000000060000000000000009000000000000000c0000\
       00000000000f0400000006010400000002000000017800000001790000000000\
       00000100000000000000000000000000000001" );
    ( "generic",
      pax_page Pax.KOther []
        [ Value.Long 5L; Value.Null; Value.set [ Value.Int 1 ]; Value.Bool true ],
      "50415831e2303c33000000040000000100000000040000000000000000000000\
       0000000000030000000000000006000000000000000905000000040102000000\
       0902000000000000000500000001000000001208000000000000000101000000\
       0000000001000000020601" )
  ]

let test_pax () =
  check_group "Pax.encode_page" (List.map (fun (name, (_, page), want) -> (name, page, want)) pax_cases);
  (* The golden pages decode to the cells and slots they were taken from. *)
  List.iter
    (fun (name, ((kind, cells), _), want) ->
      let b = Pax.decode_page ~schema:[| ("a", kind) |] (unhex want) in
      let col = snd b.Batch.columns.(0) in
      List.iteri
        (fun r v ->
          if Value.compare (Batch.cell col r) v <> 0 || b.Batch.slots.(r) <> 3 * r then
            Alcotest.failf "Pax.decode_page of golden %s: row %d gave %s" name r
              (Value.to_string (Batch.cell col r)))
        cells)
    pax_cases

(* ------------------------------------------------------------------ *)
(* Log and wire framing                                                *)

let update =
  Wal.Update
    { txn = 70000;
      file = 12;
      rid = { Heap_file.page = 258; slot = 9 };
      before = "old\000";
      after = "new\255bytes"
    }

let test_wal_and_wire () =
  check_group "log and wire"
    [ ( "Wal.Update",
        Wal.encode_record update,
        "55000111700000000c0000010200000009000000046f6c6400000000096e6577\
         ff6279746573" );
      ( "Rcodec batch",
        Rcodec.encode_batch
          { Rcodec.b_term = 3;
            b_last_lsn = 0x01020304;
            b_sent_us = 1_700_000_000_123_456;
            b_records = [ (17, update) ]
          },
        "42000000030102030400060a2418202240000000010000001100000026550001\
         11700000000c0000010200000009000000046f6c6400000000096e6577ff6279\
         746573" );
      ( "Wire repl_pull",
        Bytes.to_string (Wire.encode_request (Wire.Repl_pull { term = 5; after = 0xFFFFFFFF })),
        "000000094c00000005ffffffff" )
    ]

let suites =
  [ ( "golden",
      [ Alcotest.test_case "codec bytes" `Quick test_codec;
        Alcotest.test_case "pax page bytes" `Quick test_pax;
        Alcotest.test_case "wal and wire bytes" `Quick test_wal_and_wire
      ] )
  ]
