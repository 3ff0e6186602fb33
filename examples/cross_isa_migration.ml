(* Cross-ISA live migration of a real benchmark (the paper's demo):
   start NPB-CG on the x86-64 server, migrate it mid-run to a Raspberry
   Pi, verify the computation is bit-identical to a native run, and
   print the paper's cost breakdown.

   Run with: dune exec examples/cross_isa_migration.exe *)

open Dapper_machine
open Dapper_net
open Dapper_workloads
open Dapper
module Link = Dapper_codegen.Link

let () =
  let c = Registry.compiled (Registry.find "npb-cg.A") in

  (* reference: uninterrupted run on the destination architecture *)
  let reference = Process.load c.Link.cp_arm in
  (match Process.run_to_completion reference ~fuel:100_000_000 with
   | Process.Exited_run _ -> ()
   | _ -> failwith "reference run failed");
  let expected = Process.stdout_contents reference in

  (* live run: halfway through on the Xeon, then evict to the Pi *)
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:4_000_000);
  Printf.printf "npb-cg.A on xeon/x86-64: %Ld instructions in, migrating...\n"
    p.Process.total_instrs;
  match
    Session.migrate ~bytes_scale:1500.0 ~src_node:Node.xeon ~dst_node:Node.rpi
      ~src_bin:c.Link.cp_x86 ~dst_bin:c.Link.cp_arm p
  with
  | Error e -> failwith (Dapper_util.Dapper_error.to_string e)
  | Ok r ->
    let t = r.Session.r_times in
    Printf.printf
      "  checkpoint %.1f ms | recode %.1f ms | scp %.1f ms | restore %.1f ms | total %.1f ms\n"
      t.t_checkpoint_ms t.t_recode_ms t.t_scp_ms t.t_restore_ms (Session.total_ms t);
    Printf.printf "  image: %d KiB; %d frames rewritten, %d live values, %d pointers fixed\n"
      (r.r_image_bytes / 1024) r.r_rewrite.Rewrite.st_frames r.r_rewrite.Rewrite.st_values
      r.r_rewrite.Rewrite.st_ptrs_translated;
    (match Process.run_to_completion r.r_process ~fuel:100_000_000 with
     | Process.Exited_run code ->
       let out = Process.stdout_contents p ^ Process.stdout_contents r.r_process in
       Printf.printf "finished on rpi/aarch64 with code %Ld\n" code;
       Printf.printf "output matches native aarch64 run: %b\n" (String.equal out expected);
       print_string out
     | _ -> failwith "migrated run failed")
