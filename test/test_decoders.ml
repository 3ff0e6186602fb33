(* Decoder mutation suite: every decoder that reads untrusted bytes is
   fed fixed-seed mutants of well-formed input (a flipped byte, a
   truncation, a length word inflated with 0xFF) and may only answer
   with a value or its own typed error — never another exception. *)

open Dapper_machine
open Dapper_criu
module Link = Dapper_codegen.Link
module Proto = Dapper_proto.Proto
module Rng = Dapper_util.Rng
module Log = Dapper_replay.Log

let seed = 2024L
let mutants_per_input = 3000

let mutate rng s =
  let n = String.length s in
  let i = Rng.int rng n in
  match Rng.int rng 3 with
  | 0 ->
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 + Rng.int rng 255)));
    (Printf.sprintf "byte %d flipped" i, Bytes.to_string b)
  | 1 -> (Printf.sprintf "truncated to %d bytes" i, String.sub s 0 i)
  | _ ->
    let b = Bytes.of_string s in
    Bytes.fill b i (min 4 (n - i)) '\xff';
    (Printf.sprintf "0xff word at %d" i, Bytes.to_string b)

(* Decode [mutants_per_input] mutants of [input]; [typed] recognises the
   decoder's own error. *)
let survives ~what ~typed decode input =
  let rng = Rng.create seed in
  for _ = 1 to mutants_per_input do
    let kind, bytes = mutate rng input in
    match decode bytes with
    | () -> ()
    | exception e when typed e -> ()
    | exception e -> Alcotest.failf "%s, %s: raised %s" what kind (Printexc.to_string e)
  done

let quickstart () = Option.get (Dapper_verify.Corpus.find "mini-quickstart")

(* The protobuf files of a paused mini-quickstart's dump. *)
let proto_files () =
  let c = quickstart () in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:2_000);
  (match Dapper.Monitor.request_pause p ~budget:1_000_000 with
   | Ok _ -> ()
   | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e));
  Images.to_files (Dapper_util.Dapper_error.ok_exn (Dump.dump p))
  |> List.filter (fun (name, _) -> name <> "pages-1.img")

let test_proto () =
  List.iter
    (fun (name, bytes) ->
      survives ~what:name
        ~typed:(function Proto.Decode_error _ -> true | _ -> false)
        (fun b -> ignore (Proto.decode b))
        bytes)
    (proto_files ())

let test_replay_log () =
  let c = quickstart () in
  match Dapper_replay.Replayer.record c.Link.cp_x86 with
  | Error e -> Alcotest.failf "record failed: %s" e
  | Ok log ->
    survives ~what:"mini-quickstart log"
      ~typed:(function Log.Log_error _ -> true | _ -> false)
      (fun b -> ignore (Log.decode b))
      (Log.encode log)

let suites =
  [ ( "decoders",
      [ Alcotest.test_case "Proto.decode, each image file" `Quick test_proto;
        Alcotest.test_case "Replay.Log.decode" `Quick test_replay_log ] ) ]
