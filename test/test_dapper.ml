open Dapper_isa
open Dapper_clite
open Dapper_machine
open Dapper_net
open Dapper
open Cl
module Link = Dapper_codegen.Link
module Netlink = Dapper_net.Link

let check = Alcotest.check
let ok = Dapper_util.Dapper_error.ok_exn

(* A workload with rich mixed state: stack arrays, pointers into the
   caller's frame, floats, TLS, nested calls, periodic output. *)
let compute_module ?(iters = 300) () =
  let m = create "compute" in
  Cstd.add m;
  tls_var m "tcount" 8;
  global m "gsum" 8;
  func m "helper" [ ("p", Dapper_ir.Ir.Ptr); ("n", Dapper_ir.Ir.I64) ] (fun b ->
      decl b "s" (i 0);
      for_ b "k" (i 0) (v "n") (fun b ->
          set b "s" (add (v "s") (idx (v "p") (v "k"))));
      ret b (v "s"));
  func m "work" [ ("it", Dapper_ir.Ir.I64) ] (fun b ->
      decl_arr b "arr" 32;
      for_ b "k" (i 0) (i 32) (fun b ->
          store_idx b (addr "arr") (v "k") (mul (v "it") (v "k")));
      decl b "h" (call "helper" [ addr "arr"; i 32 ]);
      declf b "fs" (sqrt_ (i2f (add (v "h") (i 1))));
      set b "tcount" (add (v "tcount") (i 1));
      if_ b (eq (rem_ (v "it") (i 100)) (i 0)) (fun b ->
          do_ b (call "print_int" [ v "h" ]);
          do_ b (call "print_flt" [ v "fs" ]);
          do_ b (call "print_nl" []));
      ret b (add (v "h") (f2i (v "fs"))));
  func m "main" [] (fun b ->
      decl b "t" (i 0);
      for_ b "it" (i 0) (i iters) (fun b ->
          set b "t" (add (v "t") (call "work" [ v "it" ])));
      set b "gsum" (v "t");
      do_ b (call "print_int" [ v "t" ]);
      do_ b (call "print_nl" []);
      ret b (rem_ (v "t") (i 251)));
  finish m

let threaded_module () =
  let m = create "threaded" in
  Cstd.add m;
  tls_var m "acc" 8;
  global m "total" 8;
  global m "mtx" 8;
  func m "step" [ ("x", Dapper_ir.Ir.I64) ] (fun b ->
      ret b (add (mul (v "x") (i 3)) (i 1)));
  func m "worker" [ ("seed", Dapper_ir.Ir.I64) ] (fun b ->
      set b "acc" (i 0);
      for_ b "k" (i 0) (i 2000) (fun b ->
          set b "acc" (add (v "acc") (call "step" [ add (v "seed") (v "k") ])));
      do_ b (call "lock" [ addr "mtx" ]);
      set b "total" (add (v "total") (v "acc"));
      do_ b (call "unlock" [ addr "mtx" ]);
      ret b (i 0));
  func m "main" [] (fun b ->
      decl b "t1" (call "spawn" [ fnptr "worker"; i 10 ]);
      decl b "t2" (call "spawn" [ fnptr "worker"; i 20 ]);
      decl b "t3" (call "spawn" [ fnptr "worker"; i 30 ]);
      do_ b (call "join" [ v "t1" ]);
      do_ b (call "join" [ v "t2" ]);
      do_ b (call "join" [ v "t3" ]);
      do_ b (call "print_int" [ v "total" ]);
      do_ b (call "print_nl" []);
      ret b (rem_ (v "total") (i 251)));
  finish m

let node_of = function Arch.X86_64 -> Node.xeon | Arch.Aarch64 -> Node.rpi

let native_run compiled arch ~fuel =
  let p = Process.load (Link.binary_for compiled arch) in
  match Process.run_to_completion p ~fuel with
  | Process.Exited_run code -> (code, Process.stdout_contents p)
  | Process.Crashed c ->
    Alcotest.fail (Printf.sprintf "native crash on %s: %s" (Arch.name arch) c.cr_reason)
  | Process.Idle | Process.Progress -> Alcotest.fail "native run did not finish"

(* Run [warmup] instructions on [src], migrate to [dst], finish there;
   return (exit code, combined stdout, migration result). *)
let migrate_run ?lazy_pages compiled ~src ~dst ~warmup ~fuel =
  let src_bin = Link.binary_for compiled src in
  let dst_bin = Link.binary_for compiled dst in
  let p = Process.load src_bin in
  (match Process.run p ~max_instrs:warmup with
   | Process.Progress -> ()
   | Process.Exited_run _ -> Alcotest.fail "program finished before migration point"
   | Process.Idle -> Alcotest.fail "deadlock before migration"
   | Process.Crashed c -> Alcotest.fail ("crash before migration: " ^ c.cr_reason));
  match
    Session.migrate ?lazy_pages ~src_node:(node_of src) ~dst_node:(node_of dst)
      ~src_bin ~dst_bin p
  with
  | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e)
  | Ok r ->
    let out_before = Process.stdout_contents p in
    (match Process.run_to_completion r.r_process ~fuel with
     | Process.Exited_run code ->
       (code, out_before ^ Process.stdout_contents r.r_process, r)
     | Process.Crashed c ->
       Alcotest.fail
         (Printf.sprintf "crash after migration on %s at pc=0x%Lx: %s" (Arch.name dst)
            c.cr_pc c.cr_reason)
     | Process.Idle -> Alcotest.fail "deadlock after migration"
     | Process.Progress -> Alcotest.fail "out of fuel after migration")

let fuel = 80_000_000

let test_cross_isa_migration src dst () =
  let m = compute_module () in
  let compiled = Link.compile ~app:"compute" m in
  let code, out = native_run compiled dst ~fuel in
  let code', out', r = migrate_run compiled ~src ~dst ~warmup:120_000 ~fuel in
  check Alcotest.bool "exit codes equal" true (Int64.equal code code');
  check Alcotest.string "stdout equal" out out';
  check Alcotest.bool "some frames rewritten" true (r.r_rewrite.Rewrite.st_frames >= 2);
  check Alcotest.bool "code pages replaced" true (r.r_rewrite.Rewrite.st_code_pages >= 1)

let test_migration_points () =
  (* Migration must be transparent wherever it lands. *)
  let m = compute_module () in
  let compiled = Link.compile ~app:"compute" m in
  let code, out = native_run compiled Arch.Aarch64 ~fuel in
  List.iter
    (fun warmup ->
      let code', out', _ =
        migrate_run compiled ~src:Arch.X86_64 ~dst:Arch.Aarch64 ~warmup ~fuel
      in
      check Alcotest.bool
        (Printf.sprintf "exit at warmup %d" warmup)
        true (Int64.equal code code');
      check Alcotest.string (Printf.sprintf "out at warmup %d" warmup) out out')
    [ 5_000; 37_000; 90_000; 200_000; 400_000 ]

let test_threaded_migration () =
  let m = threaded_module () in
  let compiled = Link.compile ~app:"threaded" m in
  let code, out = native_run compiled Arch.Aarch64 ~fuel in
  List.iter
    (fun warmup ->
      let code', out', r =
        migrate_run compiled ~src:Arch.X86_64 ~dst:Arch.Aarch64 ~warmup ~fuel
      in
      check Alcotest.bool
        (Printf.sprintf "threaded exit at %d" warmup)
        true (Int64.equal code code');
      check Alcotest.string (Printf.sprintf "threaded out at %d" warmup) out out';
      check Alcotest.bool "several threads rewritten" true
        (r.r_rewrite.Rewrite.st_threads >= 1))
    [ 20_000; 60_000; 150_000 ]

let test_lazy_migration () =
  let m = compute_module ~iters:60 () in
  let compiled = Link.compile ~app:"compute" m in
  let code, out = native_run compiled Arch.Aarch64 ~fuel in
  let code', out', r =
    migrate_run ~lazy_pages:true compiled ~src:Arch.X86_64 ~dst:Arch.Aarch64
      ~warmup:150_000 ~fuel
  in
  check Alcotest.bool "lazy exit equal" true (Int64.equal code code');
  check Alcotest.string "lazy stdout equal" out out';
  match r.r_page_server with
  | None -> Alcotest.fail "lazy migration should have a page server"
  | Some s -> check Alcotest.bool "pages served on demand" true (s.srv_pages > 0)

let test_restore_without_rewrite_fails () =
  let m = compute_module () in
  let compiled = Link.compile ~app:"compute" m in
  let p = Process.load compiled.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:50_000);
  (match Monitor.request_pause p ~budget:10_000_000 with
   | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e)
   | Ok _ -> ());
  let image = ok (Dapper_criu.Dump.dump p) in
  check Alcotest.bool "arch mismatch rejected" true
    (match Dapper_criu.Restore.restore image compiled.Link.cp_arm with
     | Error (Dapper_util.Dapper_error.Restore_failed _) -> true
     | _ -> false)

let test_pause_cancel_resume () =
  let m = compute_module () in
  let compiled = Link.compile ~app:"compute" m in
  let code, out = native_run compiled Arch.X86_64 ~fuel in
  let p = Process.load compiled.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:80_000);
  (match Monitor.request_pause p ~budget:10_000_000 with
   | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e)
   | Ok stats ->
     check Alcotest.bool "some thread trapped" true (stats.ps_trapped >= 1));
  check Alcotest.bool "quiescent" true (Process.all_quiescent p);
  Monitor.resume p;
  (match Process.run_to_completion p ~fuel with
   | Process.Exited_run code' ->
     check Alcotest.bool "exit equal after resume" true (Int64.equal code code');
     check Alcotest.string "out equal after resume" out (Process.stdout_contents p)
   | _ -> Alcotest.fail "did not finish after resume")

let test_same_arch_checkpoint_restore () =
  let m = compute_module () in
  let compiled = Link.compile ~app:"compute" m in
  let code, out = native_run compiled Arch.X86_64 ~fuel in
  let code', out', _ =
    migrate_run compiled ~src:Arch.X86_64 ~dst:Arch.X86_64 ~warmup:100_000 ~fuel
  in
  check Alcotest.bool "identity migration exit" true (Int64.equal code code');
  check Alcotest.string "identity migration out" out out'

let test_shuffled_binary_runs () =
  let m = compute_module () in
  let compiled = Link.compile ~app:"compute" m in
  List.iter
    (fun arch ->
      let bin = Link.binary_for compiled arch in
      let code, out = native_run compiled arch ~fuel in
      let shuffled, stats = Shuffle.shuffle_binary (Dapper_util.Rng.create 42L) bin in
      check Alcotest.bool
        (Printf.sprintf "%s entropy positive" (Arch.name arch))
        true
        (Shuffle.average_bits stats > 0.0);
      check Alcotest.bool "code actually patched" true (stats.sh_instrs_rewritten > 0);
      let p = Process.load shuffled in
      match Process.run_to_completion p ~fuel with
      | Process.Exited_run code' ->
        check Alcotest.bool "shuffled exit equal" true (Int64.equal code code');
        check Alcotest.string "shuffled out equal" out (Process.stdout_contents p)
      | Process.Crashed c -> Alcotest.fail ("shuffled binary crashed: " ^ c.cr_reason)
      | Process.Idle | Process.Progress -> Alcotest.fail "shuffled binary did not finish")
    Arch.all

let test_live_stack_reshuffle () =
  (* Pause a live process, rewrite its image to the shuffled layout, and
     continue under the shuffled binary — the paper's re-randomization
     use case, implemented as a same-ISA rewrite. *)
  let m = compute_module () in
  let compiled = Link.compile ~app:"compute" m in
  let code, out = native_run compiled Arch.X86_64 ~fuel in
  let bin = compiled.Link.cp_x86 in
  let p = Process.load bin in
  ignore (Process.run p ~max_instrs:100_000);
  (match Monitor.request_pause p ~budget:10_000_000 with
   | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e)
   | Ok _ -> ());
  let out_before = Process.stdout_contents p in
  let image = ok (Dapper_criu.Dump.dump p) in
  let shuffled, _ = Shuffle.shuffle_binary (Dapper_util.Rng.create 7L) bin in
  let image', _ = ok (Rewrite.rewrite image ~src:bin ~dst:shuffled) in
  let p' = ok (Dapper_criu.Restore.restore image' shuffled) in
  match Process.run_to_completion p' ~fuel with
  | Process.Exited_run code' ->
    check Alcotest.bool "reshuffled exit equal" true (Int64.equal code code');
    check Alcotest.string "reshuffled out equal" out
      (out_before ^ Process.stdout_contents p')
  | Process.Crashed c -> Alcotest.fail ("reshuffled process crashed: " ^ c.cr_reason)
  | Process.Idle | Process.Progress -> Alcotest.fail "reshuffled did not finish"

let test_migration_time_breakdown_sane () =
  let m = compute_module () in
  let compiled = Link.compile ~app:"compute" m in
  let p = Process.load compiled.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:100_000);
  match
    Session.migrate ~src_node:Node.xeon ~dst_node:Node.rpi
      ~src_bin:compiled.Link.cp_x86 ~dst_bin:compiled.Link.cp_arm p
  with
  | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e)
  | Ok r ->
    let t = r.r_times in
    check Alcotest.bool "all phases positive" true
      (t.t_checkpoint_ms > 0.0 && t.t_recode_ms > 0.0 && t.t_scp_ms > 0.0
       && t.t_restore_ms > 0.0);
    (* recode on the Pi is ~4x slower than on the Xeon (Fig. 5) *)
    let on_xeon = Session.recode_ns Node.xeon ~bytes:0 r.r_rewrite in
    let on_rpi = Session.recode_ns Node.rpi ~bytes:0 r.r_rewrite in
    check Alcotest.bool "recode slower on rpi" true (on_rpi > 3.0 *. on_xeon)

let suites =
  [ ( "dapper-migration",
      [ Alcotest.test_case "x86 -> arm" `Quick (test_cross_isa_migration Arch.X86_64 Arch.Aarch64);
        Alcotest.test_case "arm -> x86" `Quick (test_cross_isa_migration Arch.Aarch64 Arch.X86_64);
        Alcotest.test_case "many migration points" `Quick test_migration_points;
        Alcotest.test_case "multi-threaded migration" `Quick test_threaded_migration;
        Alcotest.test_case "lazy migration" `Quick test_lazy_migration;
        Alcotest.test_case "no-rewrite restore fails" `Quick test_restore_without_rewrite_fails;
        Alcotest.test_case "pause/cancel/resume" `Quick test_pause_cancel_resume;
        Alcotest.test_case "same-arch checkpoint/restore" `Quick test_same_arch_checkpoint_restore;
        Alcotest.test_case "time breakdown sane" `Quick test_migration_time_breakdown_sane ] );
    ( "dapper-shuffle",
      [ Alcotest.test_case "shuffled binary runs" `Quick test_shuffled_binary_runs;
        Alcotest.test_case "live stack reshuffle" `Quick test_live_stack_reshuffle ] ) ]
