(* Periodic live stack re-randomization (the paper's security use case):
   a server keeps running while Dapper repeatedly checkpoints it,
   shuffles its stack layout, and resumes it under the new binary; an
   attacker armed with the original layout is then defeated.

   Run with: dune exec examples/rerandomization.exe *)

open Dapper_util
open Dapper_machine
open Dapper
open Dapper_security
module Link = Dapper_codegen.Link

let () =
  let m = Exploits.min_dop_module ~rounds:500 () in
  let c = Link.compile ~app:"server" m in
  let original = c.Link.cp_x86 in

  (* attack the original server: the payload lands *)
  (match Exploits.run ~attack:Exploits.Min_dop ~target:original ~knowledge:original with
   | Exploits.Pwned -> print_endline "unprotected server: attack PWNED it"
   | o -> failwith ("unexpected: " ^ Exploits.outcome_to_string o));

  (* re-randomize a live instance three times while it runs *)
  let rng = Rng.create 20260706L in
  let rec rerandomize bin p epoch =
    if epoch = 0 then (bin, p)
    else begin
      ignore (Process.run p ~max_instrs:50_000);
      (match Monitor.request_pause p ~budget:10_000_000 with
       | Ok _ -> ()
       | Error e -> failwith (Dapper_error.to_string e));
      let ok = Dapper_util.Dapper_error.ok_exn in
      let image = ok (Dapper_criu.Dump.dump p) in
      let shuffled, stats = Shuffle.shuffle_binary rng bin in
      let image', _ = ok (Rewrite.rewrite image ~src:bin ~dst:shuffled) in
      let p' = ok (Dapper_criu.Restore.restore image' shuffled) in
      Printf.printf "epoch %d: reshuffled live process (%.2f avg bits, %d instrs patched)\n"
        epoch (Shuffle.average_bits stats) stats.Shuffle.sh_instrs_rewritten;
      rerandomize shuffled p' (epoch - 1)
    end
  in
  let final_bin, p = rerandomize original (Process.load original) 3 in
  (match Process.run_to_completion p ~fuel:10_000_000 with
   | Process.Exited_run _ -> print_endline "server completed correctly across 3 reshuffles"
   | _ -> failwith "server failed after reshuffling");

  (* the attacker still only knows the original layout *)
  match Exploits.run ~attack:Exploits.Min_dop ~target:final_bin ~knowledge:original with
  | Exploits.Pwned -> print_endline "attack still landed (unlucky permutation) - rerun!"
  | o -> Printf.printf "re-randomized server: attack %s\n" (Exploits.outcome_to_string o)
