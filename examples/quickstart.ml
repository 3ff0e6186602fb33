(* Quickstart: write a program, compile it for both ISAs, pause it live,
   inspect the CRIU images, rewrite the state for the other architecture,
   and resume it there.

   Run with: dune exec examples/quickstart.exe *)

open Dapper_clite
open Dapper_machine
open Dapper
open Cl
module Link = Dapper_codegen.Link

let program () =
  let m = create "hello-dapper" in
  Cstd.add m;
  func m "step" [ ("n", Dapper_ir.Ir.I64) ] (fun b ->
      ret b (add (mul (v "n") (v "n")) (i 1)));
  func m "main" [] (fun b ->
      decl b "acc" (i 0);
      for_ b "k" (i 0) (i 2000) (fun b ->
          set b "acc" (add (v "acc") (call "step" [ v "k" ])));
      Cstd.print b m "acc=";
      do_ b (call "print_int" [ v "acc" ]);
      do_ b (call "print_nl" []);
      ret b (i 0));
  finish m

let () =
  (* 1. One IR module, two aligned binaries - Dapper's compiler setup. *)
  let compiled = Link.compile ~app:"hello-dapper" (program ()) in
  Printf.printf "compiled %s: text is %d bytes on x86-64, %d on aarch64; symbols aligned\n"
    compiled.Link.cp_app
    (Dapper_binary.Binary.text_size compiled.cp_x86)
    (Dapper_binary.Binary.text_size compiled.cp_arm);

  (* 2. Launch on x86-64 and run a while. *)
  let p = Process.load compiled.cp_x86 in
  ignore (Process.run p ~max_instrs:20_000);
  Printf.printf "running on x86-64; %Ld instructions retired, output so far: %S\n"
    p.Process.total_instrs (Process.stdout_contents p);

  (* 3. The Dapper runtime raises the flag; every thread parks at an
     equivalence point. *)
  (match Monitor.request_pause p ~budget:10_000_000 with
   | Ok stats ->
     Printf.printf "paused: %d thread(s) trapped at checkers, %d rolled back\n"
       stats.Monitor.ps_trapped stats.Monitor.ps_rolled_back
   | Error e -> failwith (Dapper_util.Dapper_error.to_string e));

  (* 4. CRIU dump; peek at the images with CRIT. *)
  let image = Dapper_util.Dapper_error.ok_exn (Dapper_criu.Dump.dump p) in
  let files = Dapper_criu.Images.to_files image in
  Printf.printf "dumped %d image files (%d bytes):\n"
    (List.length files) (Dapper_criu.Images.total_bytes image);
  List.iter (fun (name, bytes) -> Printf.printf "  %-14s %6d bytes\n" name (String.length bytes)) files;
  print_endline "core-0.img decoded by crit:";
  print_endline
    (Dapper_util.Json.to_string
       (Dapper_criu.Crit.json (List.assoc "core-0.img" (Dapper_criu.Images.files image))));

  (* 5. Rewrite the process state for aarch64 and restore it there. *)
  let image', stats =
    Dapper_util.Dapper_error.ok_exn
      (Rewrite.rewrite image ~src:compiled.cp_x86 ~dst:compiled.cp_arm)
  in
  Printf.printf
    "rewritten for aarch64: %d frames, %d live values copied, %d stack pointers translated\n"
    stats.Rewrite.st_frames stats.Rewrite.st_values stats.Rewrite.st_ptrs_translated;
  let q = Dapper_util.Dapper_error.ok_exn (Dapper_criu.Restore.restore image' compiled.cp_arm) in
  (match Process.run_to_completion q ~fuel:10_000_000 with
   | Process.Exited_run code ->
     Printf.printf "finished on aarch64 with exit code %Ld, output: %S\n" code
       (Process.stdout_contents p ^ Process.stdout_contents q)
   | _ -> failwith "restored process did not finish")
