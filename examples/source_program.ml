(* The textual front-end: write the program as clite source, compile it
   for both ISAs, and live-migrate it - the full paper pipeline from
   source code to cross-architecture relocation.

   Run with: dune exec examples/source_program.exe *)

open Dapper_machine
open Dapper_net
open Dapper_clite
open Dapper
module Link = Dapper_codegen.Link

let source = {|
  // monte-carlo estimate of pi, checkpointable at every function call
  global inside;

  fn trial() {
    var f x = frand() * 2.0 - 1.0;
    var f y = frand() * 2.0 - 1.0;
    if (x * x + y * y <= 1.0) { return 1; }
    return 0;
  }

  fn main() {
    rand_seed(31415);
    var n = 40000;
    var k = 0;
    for (k = 0; k < n; k = k + 1) {
      inside = inside + trial();
    }
    print("pi ~ ");
    print_flt(4.0 * i2f(inside) / i2f(n));
    print_nl();
    return 0;
  }
|}

let () =
  let m = Parse.compile ~name:"pi" source in
  let compiled = Link.compile ~app:"pi" m in
  Printf.printf "compiled %d-line clite source into dual-ISA binaries\n"
    (List.length (String.split_on_char '\n' source));
  let p = Process.load compiled.cp_x86 in
  ignore (Process.run p ~max_instrs:1_500_000);
  Printf.printf "running on x86-64 (%Ld instructions); migrating to aarch64...\n"
    p.Process.total_instrs;
  match
    Session.migrate ~src_node:Node.xeon ~dst_node:Node.rpi ~src_bin:compiled.cp_x86
      ~dst_bin:compiled.cp_arm p
  with
  | Error e -> failwith (Dapper_util.Dapper_error.to_string e)
  | Ok r ->
    (match Process.run_to_completion r.r_process ~fuel:50_000_000 with
     | Process.Exited_run _ ->
       print_string (Process.stdout_contents p ^ Process.stdout_contents r.r_process)
     | _ -> failwith "migrated run failed")
