(* Golden bytes for the on-disk and on-wire formats: the heap-record
   codec, a WAL update record, a replication batch and a wire frame.
   The expected hex was taken from the byte-at-a-time codecs these
   formats started with; an encoder rewrite must reproduce it exactly,
   or pages and logs written before it would stop decoding. Every mismatch of a group is reported in one
   failure, with the actual hex. *)

module Value = Mood_model.Value
module Oid = Mood_model.Oid
module Codec = Mood_model.Codec
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
        Alcotest.test_case "wal and wire bytes" `Quick test_wal_and_wire
      ] )
  ]
