(* crit_tool: the CRIT image tool - runs a benchmark to a live state,
   checkpoints it, and shows the image set as JSON (with --recode, also
   every file of the rewritten set except its pages), mirroring
   `crit show`. *)

open Cmdliner
open Dapper_isa
open Dapper_machine
open Dapper_workloads
open Dapper
module Link = Dapper_codegen.Link

let bench_arg =
  Arg.(value & pos 0 string "npb-cg.A" & info [] ~docv:"BENCHMARK"
         ~doc:"Registry benchmark to checkpoint.")

let warm_arg =
  Arg.(value & opt int 500_000 & info [ "warmup" ] ~docv:"N"
         ~doc:"Instructions to run before checkpointing.")

let recode_flag =
  Arg.(value & flag & info [ "recode" ]
         ~doc:"Also rewrite the image for the other architecture and show the new cores.")

let show sp warm recode =
  let c = Registry.compiled sp in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:warm);
  (match Monitor.request_pause p ~budget:Monitor.default_budget with
   | Ok _ -> ()
   | Error e -> failwith (Dapper_util.Dapper_error.to_string e));
  let image = Dapper_util.Dapper_error.ok_exn (Dapper_criu.Dump.dump p) in
  print_endline (Dapper_criu.Crit.show image);
  if recode then begin
    let image', stats =
      Dapper_util.Dapper_error.ok_exn
        (Rewrite.rewrite image ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm)
    in
    Printf.printf
      "\n--- rewritten for %s: %d frames, %d values, %d pointers translated ---\n"
      (Arch.name Arch.Aarch64) stats.Rewrite.st_frames stats.Rewrite.st_values
      stats.Rewrite.st_ptrs_translated;
    List.iter
      (fun (name, file) ->
        match file with
        | Dapper_criu.Images.Pages _ -> ()
        | _ ->
          Printf.printf "=== %s ===\n%s\n" name
            (Dapper_util.Json.to_string (Dapper_criu.Crit.json file)))
      (Dapper_criu.Images.files image')
  end

let run bench warm recode =
  match Registry.find bench with
  | exception Invalid_argument _ ->
    Printf.eprintf "crit: unknown benchmark %S\n%!" bench;
    1
  | sp ->
    show sp warm recode;
    0

let cmd =
  Cmd.v
    (Cmd.info "crit" ~doc:"Checkpoint a benchmark and show its CRIU images as JSON")
    Term.(const run $ bench_arg $ warm_arg $ recode_flag)

let () = exit (Cmd.eval' cmd)
