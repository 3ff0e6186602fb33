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

let image_files ?lazy_pages () =
  let c = quickstart () in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:2_000);
  (match Dapper.Monitor.request_pause p ~budget:1_000_000 with
   | Ok _ -> ()
   | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e));
  Images.to_files (Dapper_util.Dapper_error.ok_exn (Dump.dump ?lazy_pages p))

let proto_files () = List.filter (fun (name, _) -> name <> "pages-1.img") (image_files ())

let test_proto () =
  List.iter
    (fun (name, bytes) ->
      survives ~what:name
        ~typed:(function Proto.Decode_error _ -> true | _ -> false)
        (fun b -> ignore (Proto.decode b))
        bytes)
    (proto_files ())

(* A mutant [Images.of_files] accepts goes on to [Restore.restore] and
   [Rewrite.rewrite] (x86-64 -> aarch64), which may only answer [Ok] or
   [Error]. A lazy image's mutants are restored with a page source that
   serves no page. *)
let test_images ~lazy_pages () =
  let c = quickstart () in
  let files = image_files ~lazy_pages () in
  let page_source = if lazy_pages then Some (fun _ -> None) else None in
  let answers what f =
    match f () with
    | Ok _ | Error _ -> ()
    | exception e -> failwith (what ^ " raised " ^ Printexc.to_string e)
  in
  List.iter
    (fun (name, bytes) ->
      survives ~what:name
        ~typed:(fun _ -> false)
        (fun b ->
          match
            Images.of_files (List.map (fun (n, v) -> if n = name then (n, b) else (n, v)) files)
          with
          | exception Images.Image_error _ -> ()
          | image ->
            answers "Restore.restore" (fun () ->
                Restore.restore ?page_source image c.Link.cp_x86);
            answers "Rewrite.rewrite" (fun () ->
                Dapper.Rewrite.rewrite image ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm))
        bytes)
    files

let test_crit () =
  List.iter
    (fun (name, bytes) ->
      survives ~what:name
        ~typed:(function Crit.Crit_error _ -> true | _ -> false)
        (fun b -> ignore (Crit.decode_file name b))
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
        Alcotest.test_case "Images.of_files, each file mutated" `Quick
          (test_images ~lazy_pages:false);
        Alcotest.test_case "Images.of_files, each lazy file mutated" `Quick
          (test_images ~lazy_pages:true);
        Alcotest.test_case "Crit.decode_file, each protobuf file" `Quick test_crit;
        Alcotest.test_case "Replay.Log.decode" `Quick test_replay_log ] ) ]
