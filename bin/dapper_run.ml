(* dapper_run: run any registry benchmark natively on either simulated
   architecture and report instruction counts and output. *)

open Cmdliner
open Dapper_isa
open Dapper_machine
open Dapper_workloads
module Link = Dapper_codegen.Link

let bench_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCHMARK"
         ~doc:"Benchmark to run (all registry benchmarks if omitted).")

let arch_arg =
  Arg.(value & opt (some string) None & info [ "a"; "arch" ] ~docv:"ARCH"
         ~doc:"Architecture (both if omitted).")

let run_one sp arch =
  let c = Registry.compiled sp in
  let p = Process.load (Link.binary_for c arch) in
  match Process.run_to_completion p ~fuel:500_000_000 with
  | Process.Exited_run code ->
    Printf.printf "%-16s %-8s exit=%-4Ld instrs=%-10Ld threads=%d\n%s"
      sp.Registry.sp_name (Arch.name arch) code p.Process.total_instrs
      (List.length p.Process.threads)
      (Process.stdout_contents p)
  | Process.Crashed cr ->
    Printf.printf "%-16s %-8s CRASH pc=0x%Lx %s\n" sp.Registry.sp_name (Arch.name arch)
      cr.cr_pc cr.cr_reason
  | Process.Idle -> Printf.printf "%s: deadlock\n" sp.Registry.sp_name
  | Process.Progress -> Printf.printf "%s: out of fuel\n" sp.Registry.sp_name

let run bench arch =
  let specs =
    match bench with
    | None -> Some (Registry.all ())
    | Some name -> (try Some [ Registry.find name ] with Invalid_argument _ -> None)
  in
  let arches =
    match arch with
    | None -> Some Arch.all
    | Some s -> Option.map (fun a -> [ a ]) (Arch.of_name s)
  in
  match (specs, arches) with
  | None, _ ->
    Printf.eprintf "dapper_run: unknown benchmark %S\n%!" (Option.get bench);
    1
  | _, None ->
    Printf.eprintf "dapper_run: unknown architecture %S (expected x86-64 or aarch64)\n%!"
      (Option.get arch);
    1
  | Some specs, Some arches ->
    List.iter (fun sp -> List.iter (run_one sp) arches) specs;
    0

let cmd =
  Cmd.v
    (Cmd.info "dapper_run" ~doc:"Run benchmarks on the dual-ISA simulator")
    Term.(const run $ bench_arg $ arch_arg)

let () = exit (Cmd.eval' cmd)
