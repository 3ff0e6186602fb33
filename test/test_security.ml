open Dapper_isa
open Dapper_security
open Dapper
module Link = Dapper_codegen.Link

let check = Alcotest.check

let compiled_vuln attack =
  Link.compile ~app:"vuln" (Exploits.vulnerable_module attack)

let test_gadget_scan_basics () =
  let c = Registry_helpers.compute () in
  let gx = Gadgets.scan c.Link.cp_x86 in
  let ga = Gadgets.scan c.Link.cp_arm in
  check Alcotest.bool "x86 has gadgets" true (gx.g_total > 0);
  check Alcotest.bool "arm has gadgets" true (ga.g_total > 0);
  (* variable-length encoding yields far more gadget starts *)
  check Alcotest.bool "x86 denser than arm" true (gx.g_total > ga.g_total)

let test_popcorn_baseline_has_more_gadgets () =
  let sp = Dapper_workloads.Registry.find "nginx" in
  let m = Lazy.force sp.sp_modul in
  let plain = Link.compile ~app:"nginx" m in
  let popcorn =
    Link.compile_with_inline_runtime ~app:"nginx" ~runtime_ir:(Popcorn.runtime_ir ()) m
  in
  List.iter
    (fun arch ->
      let g_plain = Gadgets.scan (Link.binary_for plain arch) in
      let g_pop = Gadgets.scan (Link.binary_for popcorn arch) in
      check Alcotest.bool
        (Printf.sprintf "%s: inline runtime adds gadgets" (Arch.name arch))
        true
        (g_pop.g_total > g_plain.g_total);
      let red = Gadgets.reduction_pct ~baseline:g_pop ~subject:g_plain in
      check Alcotest.bool
        (Printf.sprintf "%s: reduction %.1f%% in a plausible band" (Arch.name arch) red)
        true
        (red > 20.0 && red < 95.0))
    Arch.all

let test_exploits_succeed_unprotected () =
  List.iter
    (fun attack ->
      let c = compiled_vuln attack in
      List.iter
        (fun arch ->
          let bin = Link.binary_for c arch in
          match Exploits.run ~attack ~target:bin ~knowledge:bin with
          | Exploits.Pwned -> ()
          | o ->
            Alcotest.fail
              (Printf.sprintf "%s on %s should pwn the unprotected binary, got %s"
                 (Exploits.attack_name attack) (Arch.name arch)
                 (Exploits.outcome_to_string o)))
        Arch.all)
    Exploits.all_attacks

let test_shuffle_mitigates () =
  (* Across seeds, shuffling must defeat the payloads almost always;
     an attack that still lands with probability (1/2n)^k can get lucky,
     so this is statistical. *)
  List.iter
    (fun attack ->
      let c = compiled_vuln attack in
      let bin = c.Link.cp_x86 in
      let trials = 24 in
      let pwned = ref 0 in
      for seed = 1 to trials do
        let shuffled, _ =
          Shuffle.shuffle_binary (Dapper_util.Rng.create (Int64.of_int seed)) bin
        in
        match Exploits.run ~attack ~target:shuffled ~knowledge:bin with
        | Exploits.Pwned -> incr pwned
        | Exploits.Defeated | Exploits.Crashed _ -> ()
      done;
      check Alcotest.bool
        (Printf.sprintf "%s mostly defeated (%d/%d pwned)" (Exploits.attack_name attack)
           !pwned trials)
        true
        (!pwned * 3 < trials))
    Exploits.all_attacks

let test_entropy_asymmetry () =
  (* aarch64 achieves fewer bits: more promotion plus pair pinning *)
  let c = Registry_helpers.compute () in
  let _, sx = Shuffle.shuffle_binary (Dapper_util.Rng.create 5L) c.Link.cp_x86 in
  let _, sa = Shuffle.shuffle_binary (Dapper_util.Rng.create 5L) c.Link.cp_arm in
  let bx = Shuffle.average_bits sx and ba = Shuffle.average_bits sa in
  check Alcotest.bool
    (Printf.sprintf "x86 %.2f bits >= arm %.2f bits" bx ba)
    true (bx >= ba);
  check Alcotest.bool "x86 positive" true (bx > 0.0)

let suites =
  [ ( "security",
      [ Alcotest.test_case "gadget scan basics" `Quick test_gadget_scan_basics;
        Alcotest.test_case "popcorn baseline" `Quick test_popcorn_baseline_has_more_gadgets;
        Alcotest.test_case "exploits pwn unprotected" `Quick test_exploits_succeed_unprotected;
        Alcotest.test_case "shuffle mitigates" `Slow test_shuffle_mitigates;
        Alcotest.test_case "entropy asymmetry" `Quick test_entropy_asymmetry ] ) ]
