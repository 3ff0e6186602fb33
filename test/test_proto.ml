open Dapper_proto

let check = Alcotest.check

(* [v] as the lone varint field of a message, tag 1: the key byte 0x08,
   then [v]'s varint. *)
let varint_message v = Proto.encode [ Proto.v_int 1 v ]

(* [v] survives a message round trip as a varint of exactly the bytes
   after the key. *)
let varint_roundtrips v =
  match Proto.decode (varint_message v) with
  | [ { Proto.tag = 1; payload = Proto.Varint v' } ] -> Int64.equal v v'
  | _ -> false

let test_varint_boundaries () =
  List.iter
    (fun v -> check Alcotest.bool (Printf.sprintf "varint %Ld" v) true (varint_roundtrips v))
    [ 0L; 1L; 127L; 128L; 300L; 16383L; 16384L; Int64.max_int; -1L; Int64.min_int ]

let test_varint_sizes () =
  let size v = String.length (varint_message v) - 1 in
  check Alcotest.int "0 is 1 byte" 1 (size 0L);
  check Alcotest.int "127 is 1 byte" 1 (size 127L);
  check Alcotest.int "128 is 2 bytes" 2 (size 128L);
  check Alcotest.int "-1 is 10 bytes" 10 (size (-1L))

let test_truncated_varint () =
  check Alcotest.bool "truncated" true
    (match Proto.decode "\x08\x80\x80" with
     | exception Proto.Decode_error _ -> true
     | _ -> false)

let test_message_roundtrip () =
  let fields =
    [ Proto.v_int 1 42L; Proto.v_fix 2 0xDEADBEEFL; Proto.v_str 3 "hello";
      Proto.v_msg 4 [ Proto.v_int 1 7L ]; Proto.v_int 5 (-1L) ]
  in
  let decoded = Proto.decode (Proto.encode fields) in
  check Alcotest.bool "int" true (Proto.get_int decoded 1 = 42L);
  check Alcotest.bool "fix" true (Proto.get_fix decoded 2 = 0xDEADBEEFL);
  check Alcotest.string "str" "hello" (Proto.get_str decoded 3);
  check Alcotest.bool "nested" true (Proto.get_int (Proto.get_msg decoded 4) 1 = 7L);
  check Alcotest.bool "negative varint" true (Proto.get_int decoded 5 = -1L)

let test_repeated_fields () =
  let fields = [ Proto.v_int 7 1L; Proto.v_int 7 2L; Proto.v_int 7 3L ] in
  let decoded = Proto.decode (Proto.encode fields) in
  check Alcotest.bool "all ints, in order" true (decoded = fields);
  check Alcotest.bool "first of the repeated tag" true (Proto.get_int decoded 7 = 1L);
  check Alcotest.bool "missing tag raises" true
    (match Proto.get_int decoded 9 with
     | exception Proto.Decode_error _ -> true
     | _ -> false)

let test_wrong_wire_type () =
  let decoded = Proto.decode (Proto.encode [ Proto.v_str 1 "x" ]) in
  check Alcotest.bool "raises" true
    (match Proto.get_int decoded 1 with
     | exception Proto.Decode_error _ -> true
     | _ -> false)

let test_truncated_message () =
  let bytes = Proto.encode [ Proto.v_str 1 "hello world" ] in
  let cut = String.sub bytes 0 (String.length bytes - 3) in
  check Alcotest.bool "raises" true
    (match Proto.decode cut with
     | exception Proto.Decode_error _ -> true
     | _ -> false)

(* A delimited field whose length varint is 2^62 or -1 wraps negative
   as an int; decoding must reject it with [Decode_error], never let
   [String.sub] raise [Invalid_argument]. One case per input. *)
let hostile_delimited_lengths =
  List.map
    (fun (what, bytes) ->
      Alcotest.test_case ("hostile delimited " ^ what) `Quick (fun () ->
          check Alcotest.bool what true
            (match Proto.decode bytes with
             | exception Proto.Decode_error _ -> true
             | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
             | _ -> false)))
    [ ("length 2^62", "\x0a\x80\x80\x80\x80\x80\x80\x80\x80\x40");
      ("length -1", "\x0a" ^ String.make 9 '\xff' ^ "\x01") ]

(* Int64 generator weighted toward the boundaries where the 7-bit
   groups and the sign bit interact. *)
let gen_boundary_int64 =
  QCheck.Gen.(
    oneof
      [ oneofl
          [ 0L; 1L; -1L; 127L; 128L; -128L; 16383L; 16384L; Int64.max_int;
            Int64.min_int; Int64.add Int64.min_int 1L; Int64.sub Int64.max_int 1L ];
        (* values straddling each varint length boundary 2^(7k) +/- 1 *)
        ( pair (int_range 1 9) (int_range (-1) 1) >>= fun (k, d) ->
          oneofl [ 1L; -1L ] >>= fun sign ->
          return (Int64.mul sign (Int64.add (Int64.shift_left 1L (7 * k)) (Int64.of_int d))) );
        map Int64.of_int small_signed_int;
        int64 ])

let arb_boundary_int64 = QCheck.make ~print:Int64.to_string gen_boundary_int64

let qcheck_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip at Int64 boundaries" ~count:500
    arb_boundary_int64
    varint_roundtrips

let qcheck_field_roundtrip =
  QCheck.Test.make ~name:"proto field list roundtrip" ~count:300
    QCheck.(
      small_list
        (pair (int_range 1 200)
           (oneof
              [ map (fun v -> `I v) int64;
                map (fun v -> `F v) int64;
                map (fun s -> `S s) (string_of_size (QCheck.Gen.int_range 0 40)) ])))
    (fun spec ->
      let fields =
        List.map
          (fun (tag, payload) ->
            match payload with
            | `I v -> Proto.v_int tag v
            | `F v -> Proto.v_fix tag v
            | `S s -> Proto.v_str tag s)
          spec
      in
      Proto.decode (Proto.encode fields) = fields)

let suites =
  [ ( "proto",
      [ Alcotest.test_case "varint boundaries" `Quick test_varint_boundaries;
        Alcotest.test_case "varint sizes" `Quick test_varint_sizes;
        Alcotest.test_case "truncated varint" `Quick test_truncated_varint;
        Alcotest.test_case "message roundtrip" `Quick test_message_roundtrip;
        Alcotest.test_case "repeated fields" `Quick test_repeated_fields;
        Alcotest.test_case "wrong wire type" `Quick test_wrong_wire_type;
        Alcotest.test_case "truncated message" `Quick test_truncated_message;
        QCheck_alcotest.to_alcotest qcheck_varint_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_field_roundtrip ]
      @ hostile_delimited_lengths ) ]
