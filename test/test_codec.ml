(* Unit and property tests for the wire codec. *)

module Wire = Grid_codec.Wire

let roundtrip_uint n =
  Wire.decode (Wire.encode (fun e -> Wire.Encoder.uint e n)) Wire.Decoder.uint

let roundtrip_int n =
  Wire.decode (Wire.encode (fun e -> Wire.Encoder.int e n)) Wire.Decoder.int

let test_uint_edges () =
  List.iter
    (fun n -> Alcotest.(check int) (string_of_int n) n (roundtrip_uint n))
    [ 0; 1; 127; 128; 129; 16383; 16384; 1 lsl 30; max_int ]

let test_uint_negative_rejected () =
  Alcotest.check_raises "negative uint" (Invalid_argument "Wire.Encoder.uint: negative")
    (fun () -> ignore (Wire.encode (fun e -> Wire.Encoder.uint e (-1))))

let test_uint_overflow_rejected () =
  (* Nine bytes whose last payload bit lands in the sign: a valid zigzag
     [int] (min_int), but no non-negative [uint]. *)
  let sign_bit = String.make 8 '\xff' ^ "\x7f" in
  Alcotest.(check bool) "overflowing uint is a Decode_error" true
    (match Wire.decode sign_bit Wire.Decoder.uint with
    | _ -> false
    | exception Wire.Decode_error _ -> true);
  Alcotest.(check int) "same bytes as a zigzag int" min_int
    (Wire.decode sign_bit Wire.Decoder.int);
  Alcotest.(check bool) "ten-byte varint too long" true
    (match Wire.decode (String.make 9 '\x80' ^ "\x01") Wire.Decoder.int with
    | _ -> false
    | exception Wire.Decode_error _ -> true)

let test_int_edges () =
  List.iter
    (fun n -> Alcotest.(check int) (string_of_int n) n (roundtrip_int n))
    [ 0; 1; -1; 63; -64; 64; -65; max_int; min_int; max_int - 1; min_int + 1 ]

let test_varint_compactness () =
  let len n = String.length (Wire.encode (fun e -> Wire.Encoder.uint e n)) in
  Alcotest.(check int) "small is 1 byte" 1 (len 100);
  Alcotest.(check int) "128 is 2 bytes" 2 (len 128);
  Alcotest.(check bool) "zigzag small negatives compact" true
    (String.length (Wire.encode (fun e -> Wire.Encoder.int e (-3))) = 1)

let test_int64_roundtrip () =
  List.iter
    (fun v ->
      Alcotest.(check int64) (Int64.to_string v) v
        (Wire.decode (Wire.encode (fun e -> Wire.Encoder.int64 e v)) Wire.Decoder.int64))
    [ 0L; 1L; -1L; Int64.max_int; Int64.min_int; 0xDEADBEEFL ]

let test_float_roundtrip () =
  List.iter
    (fun v ->
      Alcotest.(check (float 0.0)) (Float.to_string v) v
        (Wire.decode (Wire.encode (fun e -> Wire.Encoder.float e v)) Wire.Decoder.float))
    [ 0.0; -0.0; 1.5; -3.25; Float.max_float; Float.min_float; infinity; neg_infinity ];
  Alcotest.(check bool) "nan roundtrips" true
    (Float.is_nan
       (Wire.decode (Wire.encode (fun e -> Wire.Encoder.float e Float.nan)) Wire.Decoder.float))

let test_string_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) "string" s
        (Wire.decode (Wire.encode (fun e -> Wire.Encoder.string e s)) Wire.Decoder.string))
    [ ""; "a"; String.make 1000 'z'; "\x00\xff\x80 binary" ]

let test_truncated_string () =
  let encoded = Wire.encode (fun e -> Wire.Encoder.string e "hello") in
  let truncated = String.sub encoded 0 (String.length encoded - 2) in
  Alcotest.(check bool) "truncation raises" true
    (match Wire.decode truncated Wire.Decoder.string with
    | _ -> false
    | exception Wire.Decode_error _ -> true)

let test_trailing_bytes () =
  let encoded = Wire.encode (fun e -> Wire.Encoder.uint e 5) ^ "junk" in
  Alcotest.(check bool) "trailing raises" true
    (match Wire.decode encoded Wire.Decoder.uint with
    | _ -> false
    | exception Wire.Decode_error _ -> true)

let test_bad_bool () =
  Alcotest.(check bool) "bad bool raises" true
    (match Wire.decode "\x02" Wire.Decoder.bool with
    | _ -> false
    | exception Wire.Decode_error _ -> true)

let test_option_list_array () =
  let enc =
    Wire.encode (fun e ->
        Wire.Encoder.option e (Wire.Encoder.uint e) (Some 7);
        Wire.Encoder.option e (Wire.Encoder.uint e) None;
        Wire.Encoder.list e (Wire.Encoder.int e) [ 1; -2; 3 ];
        Wire.Encoder.array e (Wire.Encoder.string e) [| "a"; "bb" |])
  in
  Wire.decode enc (fun d ->
      Alcotest.(check (option int)) "some" (Some 7) (Wire.Decoder.option d Wire.Decoder.uint);
      Alcotest.(check (option int)) "none" None (Wire.Decoder.option d Wire.Decoder.uint);
      Alcotest.(check (list int)) "list" [ 1; -2; 3 ] (Wire.Decoder.list d Wire.Decoder.int);
      Alcotest.(check (array string)) "array" [| "a"; "bb" |]
        (Wire.Decoder.array d Wire.Decoder.string))

let test_crc_known_vector () =
  (* The canonical CRC-32 check value. *)
  Alcotest.(check int32) "crc32(123456789)" 0xCBF43926l (Wire.crc32 "123456789")

let test_crc_empty () = Alcotest.(check int32) "crc32 of empty" 0l (Wire.crc32 "")

let test_with_check_crc () =
  let body = "some payload \x00\xff" in
  Alcotest.(check string) "roundtrip" body (Wire.check_crc (Wire.with_crc body));
  let corrupted = Bytes.of_string (Wire.with_crc body) in
  Bytes.set corrupted 2 'X';
  Alcotest.(check bool) "corruption detected" true
    (match Wire.check_crc (Bytes.to_string corrupted) with
    | _ -> false
    | exception Wire.Decode_error _ -> true);
  Alcotest.(check bool) "too short detected" true
    (match Wire.check_crc "ab" with
    | _ -> false
    | exception Wire.Decode_error _ -> true)

(* The trailer is the check value, little-endian; a body inside a larger
   buffer checks in place, with error positions counted from its start. *)
let test_crc_in_place () =
  Alcotest.(check string) "trailer bytes" "123456789\x26\x39\xf4\xcb"
    (Wire.with_crc "123456789");
  Alcotest.(check int) "crc32_sub = crc32" 0xCBF43926 (Wire.crc32_sub "xx123456789y" 2 9);
  let buf = "hdr" ^ Wire.with_crc "body" ^ "tail" in
  Alcotest.(check string) "sub-range body" "body" (Wire.check_crc_sub buf 3 8);
  Alcotest.(check bool) "mismatch at the trailer" true
    (match Wire.check_crc_sub buf 2 8 with
    | _ -> false
    | exception Wire.Decode_error { pos; _ } -> pos = 4)

(* CRC-32 catches every single-bit error: flipping any one bit of a framed
   body, trailer included, must fail the check. *)
let test_crc_bit_flips () =
  let framed = Wire.with_crc "replica state \x00\x7f\xff" in
  for i = 0 to (String.length framed * 8) - 1 do
    let b = Bytes.of_string framed in
    Bytes.set b (i / 8) (Char.chr (Char.code framed.[i / 8] lxor (1 lsl (i mod 8))));
    match Wire.check_crc (Bytes.to_string b) with
    | _ -> Alcotest.failf "flip of bit %d not detected" i
    | exception Wire.Decode_error _ -> ()
  done

(* The CRC runs on native ints: a checksum over 4 KiB allocates at most
   its boxed result, not a box per byte. *)
let test_crc_allocation () =
  let s = String.init 4096 (fun i -> Char.chr (i land 0xFF)) in
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let w = words (fun () -> ignore (Sys.opaque_identity (Wire.crc32 s))) in
  if w > 8. then Alcotest.failf "crc32 over 4 KiB allocated %.0f words" w;
  let w = words (fun () -> ignore (Sys.opaque_identity (Wire.crc32_sub s 0 4096))) in
  if w > 8. then Alcotest.failf "crc32_sub over 4 KiB allocated %.0f words" w

(* Property tests *)

let prop_uint_roundtrip =
  QCheck2.Test.make ~name:"uint roundtrip" ~count:500
    QCheck2.Gen.(map abs int)
    (fun n -> n < 0 || roundtrip_uint n = n)

let prop_int_roundtrip =
  QCheck2.Test.make ~name:"int roundtrip" ~count:500 QCheck2.Gen.int (fun n ->
      roundtrip_int n = n)

let prop_string_roundtrip =
  QCheck2.Test.make ~name:"string roundtrip" ~count:300 QCheck2.Gen.string (fun s ->
      Wire.decode (Wire.encode (fun e -> Wire.Encoder.string e s)) Wire.Decoder.string = s)

let prop_mixed_roundtrip =
  QCheck2.Test.make ~name:"mixed record roundtrip" ~count:300
    QCheck2.Gen.(quad int string bool (list (pair int string)))
    (fun (n, s, b, l) ->
      let enc =
        Wire.encode (fun e ->
            Wire.Encoder.int e n;
            Wire.Encoder.string e s;
            Wire.Encoder.bool e b;
            Wire.Encoder.list e
              (fun (i, str) ->
                Wire.Encoder.int e i;
                Wire.Encoder.string e str)
              l)
      in
      Wire.decode enc (fun d ->
          let n' = Wire.Decoder.int d in
          let s' = Wire.Decoder.string d in
          let b' = Wire.Decoder.bool d in
          let l' =
            Wire.Decoder.list d (fun d ->
                let i = Wire.Decoder.int d in
                let str = Wire.Decoder.string d in
                (i, str))
          in
          (n', s', b', l') = (n, s, b, l)))

let prop_crc_roundtrip =
  QCheck2.Test.make ~name:"with_crc/check_crc roundtrip" ~count:300 QCheck2.Gen.string
    (fun s -> Wire.check_crc (Wire.with_crc s) = s)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "codec.varint",
      [
        Alcotest.test_case "uint edges" `Quick test_uint_edges;
        Alcotest.test_case "uint rejects negative" `Quick test_uint_negative_rejected;
        Alcotest.test_case "uint overflow is a decode error" `Quick
          test_uint_overflow_rejected;
        Alcotest.test_case "int edges" `Quick test_int_edges;
        Alcotest.test_case "compactness" `Quick test_varint_compactness;
      ] );
    ( "codec.scalars",
      [
        Alcotest.test_case "int64" `Quick test_int64_roundtrip;
        Alcotest.test_case "float" `Quick test_float_roundtrip;
        Alcotest.test_case "string" `Quick test_string_roundtrip;
        Alcotest.test_case "option/list/array" `Quick test_option_list_array;
      ] );
    ( "codec.errors",
      [
        Alcotest.test_case "truncated string" `Quick test_truncated_string;
        Alcotest.test_case "trailing bytes" `Quick test_trailing_bytes;
        Alcotest.test_case "bad bool" `Quick test_bad_bool;
      ] );
    ( "codec.crc",
      [
        Alcotest.test_case "known vector" `Quick test_crc_known_vector;
        Alcotest.test_case "empty" `Quick test_crc_empty;
        Alcotest.test_case "frame roundtrip + corruption" `Quick test_with_check_crc;
        Alcotest.test_case "in place" `Quick test_crc_in_place;
        Alcotest.test_case "single-bit flips detected" `Quick test_crc_bit_flips;
        Alcotest.test_case "4 KiB allocates a few words" `Quick test_crc_allocation;
      ] );
    ( "codec.properties",
      qcheck
        [
          prop_uint_roundtrip;
          prop_int_roundtrip;
          prop_string_roundtrip;
          prop_mixed_roundtrip;
          prop_crc_roundtrip;
        ] );
  ]
