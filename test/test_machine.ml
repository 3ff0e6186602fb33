open Dapper_isa
open Dapper_binary
open Dapper_machine
open Dapper_clite
open Cl
module Link = Dapper_codegen.Link

let check = Alcotest.check

(* The pins' rendering of an [observe] snapshot. *)
let snapshot_line (s : Process.snapshot) =
  Printf.sprintf
    "data=%016Lx heap=%016Lx tls=%016Lx brk=0x%Lx threads=%d stdout=%dB exit=%s"
    s.sn_data s.sn_heap s.sn_tls s.sn_brk s.sn_threads
    (String.length s.sn_stdout)
    (match s.sn_exit with None -> "-" | Some c -> Int64.to_string c)

(* ----- memory ----- *)

let test_memory_cross_page () =
  let mem = Memory.create () in
  Memory.map_page mem 10 (Bytes.make Layout.page_size '\000');
  Memory.map_page mem 11 (Bytes.make Layout.page_size '\000');
  let addr = Int64.of_int ((11 * Layout.page_size) - 3) in
  Memory.write_u64 mem addr 0x1122334455667788L;
  check Alcotest.bool "cross-page u64" true
    (Int64.equal (Memory.read_u64 mem addr) 0x1122334455667788L);
  let s = "cross-page-string" in
  Memory.write_bytes mem addr s;
  check Alcotest.string "cross-page bytes" s (Memory.read_bytes mem addr (String.length s))

let test_memory_segfault () =
  let mem = Memory.create () in
  check Alcotest.bool "segfault" true
    (match Memory.read_u64 mem 0x12345L with
     | exception Memory.Segfault _ -> true
     | _ -> false)

let test_memory_fault_handler () =
  let mem = Memory.create () in
  Memory.set_fault_handler mem
    (Some (fun pn -> if pn < 100 then Some (Bytes.make Layout.page_size 'x') else None));
  check Alcotest.int "served" (Char.code 'x') (Memory.read_u8 mem 4096L);
  check Alcotest.int "fault count" 1 (Memory.fault_count mem);
  check Alcotest.bool "beyond handler" true
    (match Memory.read_u8 mem (Int64.of_int (200 * Layout.page_size)) with
     | exception Memory.Segfault _ -> true
     | _ -> false)

(* The pages a running process touches first, the first page of code,
   data, TLS and heap and the top stack page of each of four worker
   threads, all fit in the page cache at once. *)
let test_memory_cache_spread () =
  let mem = Memory.create () in
  let pages =
    List.map Layout.page_of_addr
      [ Layout.code_base; Layout.data_base; Layout.tls_base; Layout.heap_base ]
    @ List.map (fun tid -> Layout.page_of_addr (Layout.stack_base_of_thread tid) - 1) [ 1; 2; 3; 4 ]
  in
  List.iter (fun pn -> Memory.map_page mem pn (Bytes.make Layout.page_size '\000')) pages;
  List.iter (fun pn -> ignore (Memory.read_u8 mem (Layout.addr_of_page pn))) pages;
  List.iter
    (fun pn ->
      check Alcotest.bool (Printf.sprintf "page 0x%x cached" pn) true
        (Bytes.length (Memory.cached_page mem pn) <> 0))
    pages

(* ----- processes ----- *)

let compile_simple body =
  let m = create "t" in
  Cstd.add m;
  func m "main" [] body;
  Link.compile ~app:"t" (finish m)

let test_deterministic_execution () =
  let c = Registry_helpers.compute () in
  let run () =
    let p = Process.load c.Link.cp_x86 in
    ignore (Process.run_to_completion p ~fuel:50_000_000);
    (p.Process.total_instrs, Process.stdout_contents p)
  in
  check Alcotest.bool "two runs identical" true (run () = run ())

let test_division_by_zero_crashes () =
  let c =
    compile_simple (fun b ->
        decl b "zero" (i 0);
        ret b (div_ (i 5) (v "zero")))
  in
  let p = Process.load c.Link.cp_x86 in
  (match Process.run_to_completion p ~fuel:1_000_000 with
   | Process.Crashed cr ->
     check Alcotest.bool "reason mentions division" true
       (String.length cr.cr_reason > 0 && p.Process.crash <> None)
   | _ -> Alcotest.fail "expected crash")

let test_wild_pointer_crashes () =
  let c =
    compile_simple (fun b ->
        declp b "p" (i 0x31337);
        ret b (deref (v "p")))
  in
  let p = Process.load c.Link.cp_x86 in
  match Process.run_to_completion p ~fuel:1_000_000 with
  | Process.Crashed _ -> ()
  | _ -> Alcotest.fail "expected segfault"

let test_sbrk_growth () =
  let c =
    compile_simple (fun b ->
        declp b "a" (call "sbrk" [ i 100_000 ]);
        store_idx b (v "a") (i 12_000) (i 42);
        ret b (idx (v "a") (i 12_000)))
  in
  List.iter
    (fun arch ->
      let p = Process.load (Link.binary_for c arch) in
      match Process.run_to_completion p ~fuel:1_000_000 with
      | Process.Exited_run 42L -> ()
      | _ -> Alcotest.fail "sbrk region not usable")
    Arch.all

let test_stack_demand_growth () =
  (* deep recursion touches far more stack than the initially mapped top *)
  let m = create "deep" in
  Cstd.add m;
  func m "down" [ ("n", Dapper_ir.Ir.I64) ] (fun b ->
      decl_arr b "pad" 16;
      store_idx b (addr "pad") (i 0) (v "n");
      if_ b (le (v "n") (i 0)) (fun b -> ret b (idx (addr "pad") (i 0)));
      ret b (call "down" [ sub (v "n") (i 1) ]));
  func m "main" [] (fun b -> ret b (call "down" [ i 400 ]));
  let c = Link.compile ~app:"deep" (finish m) in
  List.iter
    (fun arch ->
      let p = Process.load (Link.binary_for c arch) in
      match Process.run_to_completion p ~fuel:10_000_000 with
      | Process.Exited_run 0L ->
        check Alcotest.bool "stack pages faulted in" true
          (Memory.fault_count p.Process.mem > 0)
      | _ -> Alcotest.fail "deep recursion failed")
    Arch.all

let test_spawn_limit () =
  let m = create "spawner" in
  Cstd.add m;
  func m "worker" [ ("x", Dapper_ir.Ir.I64) ] (fun b ->
      while_ b (i 1) (fun b -> do_ b (call "yield" [])));
  func m "main" [] (fun b ->
      decl b "fails" (i 0);
      for_ b "k" (i 0) (i 100) (fun b ->
          if_ b (lt (call "spawn" [ fnptr "worker"; v "k" ]) (i 0)) (fun b ->
              set b "fails" (add (v "fails") (i 1))));
      do_ b (call "exit" [ v "fails" ]);
      ret b (i 0));
  let c = Link.compile ~app:"spawner" (finish m) in
  let p = Process.load c.Link.cp_x86 in
  match Process.run_to_completion p ~fuel:10_000_000 with
  | Process.Exited_run fails ->
    (* 100 spawn attempts; tids 1.. up to Layout.max_threads-1 succeed *)
    check Alcotest.int "spawns rejected past the limit"
      (100 - (Layout.max_threads - 1))
      (Int64.to_int fails)
  | _ -> Alcotest.fail "spawner did not finish"

let test_join_unknown_tid () =
  let c =
    compile_simple (fun b -> ret b (call "join" [ i 59 ]))
  in
  let p = Process.load c.Link.cp_x86 in
  match Process.run_to_completion p ~fuel:1_000_000 with
  | Process.Exited_run v -> check Alcotest.bool "join(-1) on unknown" true (v = -1L)
  | _ -> Alcotest.fail "join on unknown tid should not hang"

let test_deadlock_detection () =
  let m = create "dl" in
  Cstd.add m;
  global m "mtx" 8;
  func m "main" [] (fun b ->
      do_ b (call "lock" [ addr "mtx" ]);
      do_ b (call "lock" [ addr "mtx" ]);
      ret b (i 0));
  let c = Link.compile ~app:"dl" (finish m) in
  let p = Process.load c.Link.cp_x86 in
  match Process.run_to_completion p ~fuel:1_000_000 with
  | Process.Idle -> ()
  | _ -> Alcotest.fail "self-deadlock should report Idle"

let test_clock_monotonic () =
  let c =
    compile_simple (fun b ->
        decl b "t1" (call "clock" []);
        decl b "x" (i 0);
        for_ b "k" (i 0) (i 100) (fun b -> set b "x" (add (v "x") (v "k")));
        decl b "t2" (call "clock" []);
        ret b (band (lt (v "t1") (v "t2")) (gt (v "x") (i 0))))
  in
  let p = Process.load c.Link.cp_arm in
  match Process.run_to_completion p ~fuel:1_000_000 with
  | Process.Exited_run 1L -> ()
  | _ -> Alcotest.fail "clock not monotonic"

(* ----- interpreter pins -----

   Whole programs run to completion: exit, instruction count, faults,
   decoded pcs, stdout digest and observable-state snapshot. A count
   that reaches [total_instrs] late, a fault taken on a different path
   or a pc decoded twice each changes a row. *)

let pin_row name arch =
  let c = Dapper_workloads.Registry.(compiled (find name)) in
  let p = Process.load (Link.binary_for c arch) in
  let ended =
    match Process.run_to_completion p ~fuel:200_000_000 with
    | Process.Exited_run code -> Int64.to_string code
    | Process.Crashed cr -> "crash:" ^ cr.cr_reason
    | Process.Idle -> "idle"
    | Process.Progress -> "fuel"
  in
  ( Printf.sprintf "exit=%s instrs=%Ld faults=%d decoded=%d out=%s" ended
      p.Process.total_instrs (Memory.fault_count p.Process.mem)
      (Hashtbl.length p.Process.decode_cache)
      (Digest.to_hex (Digest.string (Process.stdout_contents p))),
    snapshot_line (Process.observe p) )

(* blackscholes and streamcluster each run four worker threads. *)
let interpreter_pins =
  [ ( "dhrystone", Arch.X86_64,
      "exit=58 instrs=3585746 faults=3 decoded=561 out=ad787d21741a2981a17b3f87454379f4",
      "data=7df8781cee01eecd heap=e38cb755fdfd1e02 tls=d07bc2537d4175c8 brk=0x800200 threads=0 stdout=33B exit=58" );
    ( "dhrystone", Arch.Aarch64,
      "exit=58 instrs=3380722 faults=3 decoded=523 out=ad787d21741a2981a17b3f87454379f4",
      "data=7df8781cee01eecd heap=e38cb755fdfd1e02 tls=d07bc2537d4175c8 brk=0x800200 threads=0 stdout=33B exit=58" );
    ( "blackscholes", Arch.X86_64,
      "exit=0 instrs=1223330 faults=4 decoded=1434 out=884e4af7155ffbfa8020b56eed5ac3ca",
      "data=a6d204f3bed0e3fd heap=cbf29ce484222325 tls=76571b0f13185660 brk=0x800000 threads=0 stdout=18B exit=0" );
    ( "blackscholes", Arch.Aarch64,
      "exit=0 instrs=1187081 faults=5 decoded=1401 out=884e4af7155ffbfa8020b56eed5ac3ca",
      "data=a6d204f3bed0e3fd heap=cbf29ce484222325 tls=76571b0f13185660 brk=0x800000 threads=0 stdout=18B exit=0" );
    ( "streamcluster", Arch.X86_64,
      "exit=249 instrs=605162 faults=3 decoded=933 out=b498f293d48ef3f547922976b7a85d29",
      "data=17d78c24890cd601 heap=cbf29ce484222325 tls=76571b0f13185660 brk=0x800000 threads=0 stdout=17B exit=249" );
    ( "streamcluster", Arch.Aarch64,
      "exit=249 instrs=592138 faults=3 decoded=905 out=b498f293d48ef3f547922976b7a85d29",
      "data=17d78c24890cd601 heap=cbf29ce484222325 tls=76571b0f13185660 brk=0x800000 threads=0 stdout=17B exit=249" );
    ( "nginx", Arch.X86_64,
      "exit=0 instrs=1779744 faults=4 decoded=912 out=777e478635b4af0b30a4fefc64ae8f9f",
      "data=d08ec6303ec805f9 heap=5ef5060ab58f6788 tls=d07bc2537d4175c8 brk=0x801000 threads=0 stdout=44B exit=0" );
    ( "nginx", Arch.Aarch64,
      "exit=0 instrs=1675077 faults=4 decoded=868 out=777e478635b4af0b30a4fefc64ae8f9f",
      "data=d08ec6303ec805f9 heap=5ef5060ab58f6788 tls=d07bc2537d4175c8 brk=0x801000 threads=0 stdout=44B exit=0" ) ]

let test_interpreter_pins () =
  List.iter
    (fun (name, arch, run, snap) ->
      let label = Printf.sprintf "%s on %s" name (Arch.name arch) in
      let got_run, got_snap = pin_row name arch in
      check Alcotest.string (label ^ ": run") run got_run;
      check Alcotest.string (label ^ ": snapshot") snap got_snap)
    interpreter_pins

(* An instruction of a translated block that hits the page cache
   allocates nothing, so a whole run stays far below one minor word per
   instruction: what remains is set-up, syscalls, faults, translation
   and the per-slice bookkeeping. *)
let test_interpreter_allocation () =
  List.iter
    (fun (name, arch, _, _) ->
      let c = Dapper_workloads.Registry.(compiled (find name)) in
      let p = Process.load (Link.binary_for c arch) in
      let before = Gc.minor_words () in
      ignore (Process.run_to_completion p ~fuel:200_000_000);
      let words = Gc.minor_words () -. before in
      let per_instr = words /. Int64.to_float p.Process.total_instrs in
      if per_instr >= 1.0 then
        Alcotest.failf "%s on %s: %.2f minor words per instruction" name
          (Arch.name arch) per_instr)
    interpreter_pins

(* ----- pause-point pins -----

   A process run with [Process.run] to a fixed instruction count stops
   at an exact instruction: the count, each thread's pc and status, the
   pages faulted in and the pages mapped are pinned at every point. A
   slice that stops an instruction early or late, or a fetch that faults
   a page in before execution reaches it, changes a row. Each point
   continues the same process from the one before. *)

let status_name = function
  | Process.Runnable -> "run"
  | Process.Blocked_join tid -> Printf.sprintf "join%d" tid
  | Process.Blocked_lock addr -> Printf.sprintf "lock%Lx" addr
  | Process.Trapped -> "trap"
  | Process.Stopped -> "stop"
  | Process.Exited code -> Printf.sprintf "exit%Ld" code

let pause_points = [ 1; 63; 65; 1_000; 100_000; 1_000_000 ]

let pause_state p =
  let pages = List.map string_of_int (Memory.mapped_pages p.Process.mem) in
  Printf.sprintf "instrs=%Ld faults=%d pages=%s threads=%s" p.Process.total_instrs
    (Memory.fault_count p.Process.mem)
    (Digest.to_hex (Digest.string (String.concat "," pages)))
    (String.concat " "
       (List.map
          (fun (th : Process.thread) ->
            Printf.sprintf "%d:%Lx:%s" th.tid (Process.pc th) (status_name th.status))
          p.Process.threads))

let pause_rows name arch =
  let c = Dapper_workloads.Registry.(compiled (find name)) in
  let p = Process.load (Link.binary_for c arch) in
  let at = ref 0 in
  List.map
    (fun target ->
      ignore (Process.run p ~max_instrs:(target - !at));
      at := target;
      (target, pause_state p))
    pause_points

let pause_pins =
  [ ( "dhrystone", Arch.X86_64,
      [ (1, "instrs=1 faults=1 pages=15dd3f86cbd3a899b5d4d032fd327b6f threads=0:403345:run");
        (63, "instrs=63 faults=3 pages=db9bc52460be2d5a31d6c90cea0c9300 threads=0:402ebb:run");
        (65, "instrs=65 faults=3 pages=db9bc52460be2d5a31d6c90cea0c9300 threads=0:402ec6:run");
        (1_000, "instrs=1000 faults=3 pages=db9bc52460be2d5a31d6c90cea0c9300 threads=0:402c23:run");
        (100_000, "instrs=100000 faults=3 pages=db9bc52460be2d5a31d6c90cea0c9300 threads=0:402c12:run");
        (1_000_000, "instrs=1000000 faults=3 pages=db9bc52460be2d5a31d6c90cea0c9300 threads=0:402d1c:run") ] );
    ( "dhrystone", Arch.Aarch64,
      [ (1, "instrs=1 faults=1 pages=15dd3f86cbd3a899b5d4d032fd327b6f threads=0:403348:run");
        (63, "instrs=63 faults=3 pages=db9bc52460be2d5a31d6c90cea0c9300 threads=0:402f08:run");
        (65, "instrs=65 faults=3 pages=db9bc52460be2d5a31d6c90cea0c9300 threads=0:4034a0:run");
        (1_000, "instrs=1000 faults=3 pages=db9bc52460be2d5a31d6c90cea0c9300 threads=0:402c88:run");
        (100_000, "instrs=100000 faults=3 pages=db9bc52460be2d5a31d6c90cea0c9300 threads=0:402be8:run");
        (1_000_000, "instrs=1000000 faults=3 pages=db9bc52460be2d5a31d6c90cea0c9300 threads=0:402be8:run") ] );
    ( "blackscholes", Arch.X86_64,
      [ (1, "instrs=1 faults=1 pages=b73fe41e90a5f46c0bc224607689349b threads=0:403945:run");
        (63, "instrs=63 faults=2 pages=ef7fe39520aabce7bcf275f6f793c491 threads=0:4028e0:run");
        (65, "instrs=65 faults=2 pages=ef7fe39520aabce7bcf275f6f793c491 threads=0:4028ec:run");
        (1_000, "instrs=1000 faults=2 pages=ef7fe39520aabce7bcf275f6f793c491 threads=0:402a55:run");
        (100_000, "instrs=100000 faults=4 pages=b0e7df8dd770f77a089663b7ddb0c4e6 threads=0:400060:join1 1:4014ff:run 2:401a36:run 3:401a66:run 4:401a39:run");
        (1_000_000, "instrs=1000000 faults=4 pages=b0e7df8dd770f77a089663b7ddb0c4e6 threads=0:400060:join1 1:402eaf:run 2:4017c0:run 3:4019cd:run 4:40361c:run") ] );
    ( "blackscholes", Arch.Aarch64,
      [ (1, "instrs=1 faults=1 pages=b73fe41e90a5f46c0bc224607689349b threads=0:403948:run");
        (63, "instrs=63 faults=2 pages=ef7fe39520aabce7bcf275f6f793c491 threads=0:402930:run");
        (65, "instrs=65 faults=2 pages=ef7fe39520aabce7bcf275f6f793c491 threads=0:402940:run");
        (1_000, "instrs=1000 faults=2 pages=ef7fe39520aabce7bcf275f6f793c491 threads=0:403b40:run");
        (100_000, "instrs=100000 faults=4 pages=b0e7df8dd770f77a089663b7ddb0c4e6 threads=0:400060:join1 1:401b00:run 2:401a50:run 3:401ae0:run 4:401a60:run");
        (1_000_000, "instrs=1000000 faults=4 pages=b0e7df8dd770f77a089663b7ddb0c4e6 threads=0:400060:join1 1:401b18:run 2:401a68:run 3:401ae8:run 4:401b38:run") ] ) ]

let test_pause_pins () =
  List.iter
    (fun (name, arch, rows) ->
      List.iter2
        (fun (k, want) (_, got) ->
          check Alcotest.string (Printf.sprintf "%s on %s at %d" name (Arch.name arch) k) want got)
        rows (pause_rows name arch))
    pause_pins

(* ----- mid-block crash pins -----

   A faulting instruction in the middle of a straight-line run: the
   crash names its pc, and the count includes it and everything before
   it, on both ISAs. *)

let mid_block_programs =
  [ ( "load from an unmapped address",
      fun b ->
        decl b "a" (i 3);
        declp b "p" (i 0x31337);
        decl b "x" (add (deref (v "p")) (v "a"));
        ret b (mul (v "x") (v "a")) );
    ( "division by zero",
      fun b ->
        decl b "a" (i 3);
        decl b "zero" (sub (v "a") (i 3));
        decl b "x" (add (div_ (v "a") (v "zero")) (v "a"));
        ret b (mul (v "x") (v "a")) ) ]

let mid_block_pins =
  [ ( "load from an unmapped address", Arch.X86_64, "pc=0x402b7b instrs=18 segfault at 0x31337" );
    ( "load from an unmapped address", Arch.Aarch64, "pc=0x402b98 instrs=16 segfault at 0x31337" );
    ( "division by zero", Arch.X86_64, "pc=0x402bad instrs=26 division by zero" );
    ( "division by zero", Arch.Aarch64, "pc=0x402bd0 instrs=23 division by zero" ) ]

let test_mid_block_crash_pins () =
  List.iter
    (fun (name, arch, want) ->
      let c = compile_simple (List.assoc name mid_block_programs) in
      let p = Process.load (Link.binary_for c arch) in
      match Process.run_to_completion p ~fuel:1_000_000 with
      | Process.Crashed cr ->
        check Alcotest.string
          (Printf.sprintf "%s on %s" name (Arch.name arch))
          want
          (Printf.sprintf "pc=0x%Lx instrs=%Ld %s" cr.cr_pc p.Process.total_instrs cr.cr_reason)
      | _ -> Alcotest.fail (name ^ ": expected a crash"))
    mid_block_pins

(* Three threads each read clock() four times and print "tid:value ";
   the values expose exactly when retired instructions reach
   [total_instrs], and the interleaving of the threads' writes is pinned
   with them. *)
let clock_program =
  lazy
    (let m = create "clocks" in
     Cstd.add m;
     func m "ticks" [ ("id", Dapper_ir.Ir.I64) ] (fun b ->
         decl b "x" (i 0);
         for_ b "k" (i 0) (i 4) (fun b ->
             decl b "t" (call "clock" []);
             do_ b (call "print_int" [ v "id" ]);
             Cstd.print b m ":";
             do_ b (call "print_int" [ v "t" ]);
             Cstd.print b m " ";
             for_ b "w" (i 0) (mul (v "id") (i 7)) (fun b ->
                 set b "x" (add (v "x") (v "w"))));
         ret b (v "x"));
     func m "main" [] (fun b ->
         decl b "t1" (call "spawn" [ fnptr "ticks"; i 1 ]);
         decl b "t2" (call "spawn" [ fnptr "ticks"; i 2 ]);
         do_ b (call "ticks" [ i 0 ]);
         do_ b (call "join" [ v "t1" ]);
         do_ b (call "join" [ v "t2" ]);
         ret b (i 0));
     Link.compile ~app:"clocks" (finish m))

(* Run to completion, or in repeated [run ~max_instrs:chunk] calls. *)
let clock_stdout ?chunk arch =
  let p = Process.load (Link.binary_for (Lazy.force clock_program) arch) in
  let rec go calls =
    if calls = 0 then Alcotest.fail "clock program did not finish"
    else
      match chunk with
      | None -> Process.run_to_completion p ~fuel:10_000_000
      | Some n -> (
        match Process.run p ~max_instrs:n with
        | Process.Progress -> go (calls - 1)
        | r -> r)
  in
  match go 1_000_000 with
  | Process.Exited_run 0L -> Process.stdout_contents p
  | _ -> Alcotest.fail "clock program did not exit cleanly"

let clock_pins =
  [ ( Arch.X86_64, None,
      "0:1261:: 0:155 219 1038 0:1:22232 2247:0 :2919 3536 1:4379 2:15469: 5937 2:7377 " );
    ( Arch.X86_64, Some 1,
      "0:61 0:398 0:775 0:1152 1:1613 1:2337 1:3061 1:3785 2:4557 2:5505 2:6453 2:7401 " );
    ( Arch.X86_64, Some 63,
      "0:61 0:398 0:775 0:1152 1:1613 1:2337 1:3061 1:3785 2:4557 2:5505 2:6453 2:7401 " );
    ( Arch.X86_64, Some 65,
      "0:61 0:403 0:786 0:1168 1:1613 1:2348 1:3083 1:3818 2:3380 2:5505 2:6453 2:7401 " );
    ( Arch.X86_64, Some 1000,
      "0:1261:: 0:155 219 1014 0:1:2199 202263:: 32562959  1:4475 2:1:5499 5913 2:7401 " );
    ( Arch.Aarch64, None,
      "0:1:2:56 0:152 216 889 0:1:2018 2:0:2093 2886 3187 1:4202 2:15231: 5690 2:7045 " );
    ( Arch.Aarch64, Some 1,
      "0:56 0:377 0:738 0:1099 1:1539 1:2240 1:2941 1:3642 2:4385 2:5303 2:6221 2:7139 " );
    ( Arch.Aarch64, Some 63,
      "0:56 0:377 0:738 0:1099 1:1539 1:2240 1:2941 1:3642 2:4377 2:5303 2:6221 2:7139 " );
    ( Arch.Aarch64, Some 65,
      "0:56 0:381 0:748 0:1115 1:1539 1:2250 1:2962 1:3674 2:3120 2:5303 2:6221 2:7139 " );
    ( Arch.Aarch64, Some 1000,
      "0:1:2:56 0:152 216 889 0:1:1994 0:2:2109 3035 2926 1:4261 2:1:5244 5666 2:7091 " ) ]

let test_clock_pins () =
  List.iter
    (fun (arch, chunk, out) ->
      let label =
        Printf.sprintf "%s, %s" (Arch.name arch)
          (match chunk with None -> "to completion" | Some n -> Printf.sprintf "chunks of %d" n)
      in
      check Alcotest.string label out (clock_stdout ?chunk arch))
    clock_pins

(* ----- chunked runs -----

   A run cut into chunks of any size stops and resumes inside
   straight-line code at every cut, and must end as the whole run ends.
   Generated programs are single-threaded and never read the clock, so
   the chunking changes nothing they can observe. *)

let run_summary p result =
  Printf.sprintf "%s instrs=%Ld faults=%d stdout=%S %s"
    (match result with
     | Process.Exited_run code -> "exit " ^ Int64.to_string code
     | Process.Crashed cr -> "crash " ^ cr.cr_reason
     | Process.Idle -> "idle"
     | Process.Progress -> "fuel")
    p.Process.total_instrs (Memory.fault_count p.Process.mem) (Process.stdout_contents p)
    (snapshot_line (Process.observe p))

let qcheck_chunked_runs =
  QCheck.Test.make ~count:100 ~name:"chunked runs end as whole runs (generated programs)"
    QCheck.(
      pair
        (make ~print:string_of_int (Gen.int_range 1 60))
        (list_of_size (Gen.int_range 1 8) (int_range 1 200)))
    (fun (seed, chunks) ->
      let c = Dapper_verify.Gen.compile seed in
      let chunks = Array.of_list chunks in
      List.for_all
        (fun arch ->
          let bin = Link.binary_for c arch in
          let whole = Process.load bin in
          let whole_result = Process.run_to_completion whole ~fuel:100_000_000 in
          let p = Process.load bin in
          let rec go k =
            match Process.run p ~max_instrs:chunks.(k mod Array.length chunks) with
            | Process.Progress when k < 10_000_000 -> go (k + 1)
            | r -> r
          in
          let chunked = run_summary p (go 0) and expected = run_summary whole whole_result in
          if chunked <> expected then
            QCheck.Test.fail_reportf "%s: chunked %s, whole %s" (Arch.name arch) chunked expected;
          true)
        Arch.all)

(* ----- guest faults -----

   A bad syscall argument or a wild jump ends the run as [Crashed], never
   as an OCaml exception out of [Process.run], and [total_instrs] then
   counts exactly what [step_thread] would have counted. *)

(* [step_thread] counts per instruction, so single-stepping the main
   thread to its crash gives the count [run] must report. *)
let stepped_instrs bin =
  let p = Process.load bin in
  let main = Process.thread p 0 in
  (try
     while p.Process.exit_code = None && main.Process.status = Process.Runnable do
       Process.step_thread p main
     done
   with Memory.Segfault _ | Process.Exec_error _ -> ());
  p.Process.total_instrs

let expect_crash name body =
  let c = compile_simple body in
  List.iter
    (fun arch ->
      let bin = Link.binary_for c arch in
      let p = Process.load bin in
      match Process.run_to_completion p ~fuel:1_000_000 with
      | Process.Crashed _ ->
        check Alcotest.string (name ^ ": nothing written") "" (Process.stdout_contents p);
        check Alcotest.int64 (name ^ ": counted as step_thread counts") (stepped_instrs bin)
          p.Process.total_instrs
      | _ -> Alcotest.fail (name ^ ": expected a crash"))
    Arch.all

let test_write_negative_length () =
  expect_crash "write of -1 bytes" (fun b ->
      decl_arr b "buf" 1;
      ret b (call "write" [ i 1; addr "buf"; i (-1) ]))

let test_write_huge_length () =
  expect_crash "write of 2^47-1 bytes" (fun b ->
      decl_arr b "buf" 1;
      ret b (call "write" [ i 1; addr "buf"; i ((1 lsl 47) - 1) ]))

(* The faulting fetch is not an instruction: it is not counted. *)
let test_jump_to_unmapped_code () =
  expect_crash "call to an unmapped pc" (fun b -> ret b (call_ptr (i 0x31337) []))

(* A pc that differs from a cached one only in bits an [int] cannot hold
   must miss the entry table. *)
let test_jump_to_high_pc () =
  let m = create "high_pc" in
  Cstd.add m;
  func m "seven" [] (fun b -> ret b (i 7));
  func m "main" [] (fun b ->
      decl b "x" (call "seven" []);
      ret b (call_ptr (bor (fnptr "seven") (i64 Int64.min_int)) []));
  let c = Link.compile ~app:"high_pc" (finish m) in
  List.iter
    (fun arch ->
      let bin = Link.binary_for c arch in
      let p = Process.load bin in
      match Process.run_to_completion p ~fuel:1_000_000 with
      | Process.Crashed cr ->
        let seven =
          match Binary.find_symbol bin "seven" with
          | Some s -> s.Binary.sym_addr
          | None -> Alcotest.fail "no symbol seven"
        in
        check Alcotest.int64 "the crash keeps all 64 bits of the pc"
          (Int64.logor seven Int64.min_int) cr.cr_pc
      | _ -> Alcotest.fail "a call to pc + 2^63 should fault")
    Arch.all

let test_sbrk_past_heap () =
  let heap_bytes =
    Int64.to_int
      (Int64.sub (Layout.stack_limit_of_thread (Layout.max_threads - 1)) Layout.heap_base)
  in
  let c =
    compile_simple (fun b ->
        decl b "r" (call "sbrk" [ i (heap_bytes + 1) ]);
        declp b "a" (call "sbrk" [ i 64 ]);
        store b (v "a") (i 42);
        ret b (add (v "r") (deref (v "a"))))
  in
  List.iter
    (fun arch ->
      let p = Process.load (Link.binary_for c arch) in
      match Process.run_to_completion p ~fuel:1_000_000 with
      | Process.Exited_run code ->
        let heap_pages =
          List.filter
            (fun pn -> Process.vma_kind_of_page p pn = Some Process.Vma_heap)
            (Memory.mapped_pages p.Process.mem)
        in
        (* -1 from the refused sbrk, 42 through the one that fits *)
        check Alcotest.int "refused sbrk returns -1" 41 (Int64.to_int code);
        check Alcotest.bool "brk moved only by the sbrk that fits" true
          (Int64.equal p.Process.brk (Int64.add Layout.heap_base 64L));
        check Alcotest.int "one heap page mapped" 1 (List.length heap_pages)
      | _ -> Alcotest.fail "sbrk past the heap region should return -1")
    Arch.all

(* ----- page cache against a plain-Hashtbl model -----

   Memory keeps a small cache in front of its page table. The model below
   is the page table alone, with the same access order per byte, so every
   read value, segfault address and fault count must agree. *)

type mem_op =
  | M_map of int * char  (** window page, fill byte; may re-map *)
  | M_read_u8 of int64
  | M_read_u64 of int64
  | M_read_bytes of int64 * int
  | M_write_u8 of int64 * int
  | M_write_u64 of int64 * int64
  | M_write_bytes of int64 * string
  | M_poke of int * int * char  (** write through [page_contents] *)

(* Pages [window_base, window_base + 3]; the fault handler serves only
   the upper two, and the page after the window is never mapped. *)
let window_base = 16
let window_pages = 4
let served pn = pn >= window_base + 2 && pn < window_base + window_pages
let served_page pn = Bytes.make Layout.page_size (Char.chr (97 + (pn mod 26)))

let show_op = function
  | M_map (k, c) -> Printf.sprintf "map %d %C" k c
  | M_read_u8 a -> Printf.sprintf "read_u8 0x%Lx" a
  | M_read_u64 a -> Printf.sprintf "read_u64 0x%Lx" a
  | M_read_bytes (a, n) -> Printf.sprintf "read_bytes 0x%Lx %d" a n
  | M_write_u8 (a, v) -> Printf.sprintf "write_u8 0x%Lx %d" a v
  | M_write_u64 (a, v) -> Printf.sprintf "write_u64 0x%Lx 0x%Lx" a v
  | M_write_bytes (a, s) -> Printf.sprintf "write_bytes 0x%Lx %d" a (String.length s)
  | M_poke (k, off, c) -> Printf.sprintf "poke %d+%d %C" k off c

let gen_mem_ops =
  let open QCheck.Gen in
  let page = int_range 0 (window_pages - 1) in
  (* bias towards page edges, so u64 and byte-range accesses cross pages *)
  let addr =
    map2
      (fun k off -> Int64.of_int (((window_base + k) * Layout.page_size) + off))
      (int_range 0 window_pages)
      (oneof
         [ int_range 0 (Layout.page_size - 1);
           int_range (Layout.page_size - 12) (Layout.page_size - 1);
           int_range 0 8 ])
  in
  let byte = map Char.chr (int_range 0 255) in
  let op =
    frequency
      [ (3, map2 (fun k c -> M_map (k, c)) page byte);
        (3, map (fun a -> M_read_u8 a) addr);
        (3, map (fun a -> M_read_u64 a) addr);
        (2, map2 (fun a n -> M_read_bytes (a, n)) addr (int_range 0 40));
        (3, map2 (fun a v -> M_write_u8 (a, v)) addr (int_range 0 255));
        (3, map2 (fun a v -> M_write_u64 (a, Int64.of_int v)) addr int);
        (2, map2 (fun a s -> M_write_bytes (a, s)) addr (string_size ~gen:byte (int_range 0 40)));
        (2, map3 (fun k off c -> M_poke (k, off, c)) page (int_range 0 (Layout.page_size - 1)) byte) ]
  in
  list_size (int_range 1 60) op

type model = {
  m_pages : (int, bytes) Hashtbl.t;
  mutable m_faults : int;
}

let model_page m addr =
  let pn = Layout.page_of_addr addr in
  match Hashtbl.find_opt m.m_pages pn with
  | Some p -> p
  | None when served pn ->
    let p = served_page pn in
    m.m_faults <- m.m_faults + 1;
    Hashtbl.replace m.m_pages pn p;
    p
  | None -> raise (Memory.Segfault addr)

let model_u8 m addr = Char.code (Bytes.get (model_page m addr) (Layout.page_offset addr))

let model_set_u8 m addr v =
  Bytes.set (model_page m addr) (Layout.page_offset addr) (Char.chr (v land 0xFF))

let model_read_u64 m addr =
  let off = Layout.page_offset addr in
  if off + 8 <= Layout.page_size then Bytes.get_int64_le (model_page m addr) off
  else begin
    let v = ref 0L in
    for k = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8)
             (Int64.of_int (model_u8 m (Int64.add addr (Int64.of_int k))))
    done;
    !v
  end

let model_write_u64 m addr v =
  let off = Layout.page_offset addr in
  if off + 8 <= Layout.page_size then Bytes.set_int64_le (model_page m addr) off v
  else
    for k = 0 to 7 do
      model_set_u8 m (Int64.add addr (Int64.of_int k))
        (Int64.to_int (Int64.shift_right_logical v (8 * k)))
    done

(* Byte ranges go page by page: resolve a page, then touch its bytes. *)
let model_range m addr len f =
  let rec go pos =
    if pos < len then begin
      let a = Int64.add addr (Int64.of_int pos) in
      let chunk = min (len - pos) (Layout.page_size - Layout.page_offset a) in
      f (model_page m a, Layout.page_offset a, pos, chunk);
      go (pos + chunk)
    end
  in
  go 0

let model_read_bytes m addr len =
  let b = Bytes.create len in
  model_range m addr len (fun (p, off, pos, chunk) -> Bytes.blit p off b pos chunk);
  Bytes.to_string b

let model_pages m =
  List.sort compare (Hashtbl.fold (fun pn p acc -> (pn, Bytes.to_string p) :: acc) m.m_pages [])

let memory_pages mem =
  List.map
    (fun pn ->
      match Memory.page_contents mem pn with
      | Some p -> (pn, Bytes.to_string p)
      | None -> (pn, ""))
    (Memory.mapped_pages mem)

let qcheck_page_cache_model =
  QCheck.Test.make ~count:500 ~name:"page cache agrees with a plain page table"
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_op ops)) gen_mem_ops)
    (fun ops ->
      let mem = Memory.create () in
      Memory.set_fault_handler mem
        (Some (fun pn -> if served pn then Some (served_page pn) else None));
      let m = { m_pages = Hashtbl.create 8; m_faults = 0 } in
      let outcome f = match f () with v -> Ok v | exception Memory.Segfault a -> Error a in
      List.iter
        (fun op ->
          let real, model =
            match op with
            | M_map (k, c) ->
              let fill () = Bytes.make Layout.page_size c in
              Memory.map_page mem (window_base + k) (fill ());
              Hashtbl.replace m.m_pages (window_base + k) (fill ());
              (Ok "", Ok "")
            | M_read_u8 a ->
              ( outcome (fun () -> string_of_int (Memory.read_u8 mem a)),
                outcome (fun () -> string_of_int (model_u8 m a)) )
            | M_read_u64 a ->
              ( outcome (fun () -> Int64.to_string (Memory.read_u64 mem a)),
                outcome (fun () -> Int64.to_string (model_read_u64 m a)) )
            | M_read_bytes (a, n) ->
              ( outcome (fun () -> Memory.read_bytes mem a n),
                outcome (fun () -> model_read_bytes m a n) )
            | M_write_u8 (a, v) ->
              ( outcome (fun () -> Memory.write_u8 mem a v; ""),
                outcome (fun () -> model_set_u8 m a v; "") )
            | M_write_u64 (a, v) ->
              ( outcome (fun () -> Memory.write_u64 mem a v; ""),
                outcome (fun () -> model_write_u64 m a v; "") )
            | M_write_bytes (a, s) ->
              ( outcome (fun () -> Memory.write_bytes mem a s; ""),
                outcome (fun () ->
                    model_range m a (String.length s) (fun (p, off, pos, chunk) ->
                        Bytes.blit_string s pos p off chunk);
                    "") )
            | M_poke (k, off, c) ->
              let poke = function
                | Some p -> Bytes.set p off c; "poked"
                | None -> "unmapped"
              in
              ( Ok (poke (Memory.page_contents mem (window_base + k))),
                Ok (poke (Hashtbl.find_opt m.m_pages (window_base + k))) )
          in
          if real <> model then
            QCheck.Test.fail_reportf "%s: memory and model disagree" (show_op op);
          if Memory.fault_count mem <> m.m_faults then
            QCheck.Test.fail_reportf "%s: fault count %d, model %d" (show_op op)
              (Memory.fault_count mem) m.m_faults;
          if memory_pages mem <> model_pages m then
            QCheck.Test.fail_reportf "%s: mapped pages differ from the model" (show_op op))
        ops;
      true)

(* ----- copy-on-write pages against the same plain page table -----

   The model copies every page it is given, so it is what Memory would
   be if it copied every page it hands out or maps. Besides the model's
   reads, faults and pages, each op is checked for the sharing contract:
   every string [share_page] handed out, every string [map_shared]
   mapped and every page the fault handler served keeps its bytes;
   [dirty_pages] is the model's set of pages written or mapped since
   tracking started or was last cleared; and [cached_page_for_write]
   returns the page table's bytes of its page, never a shared page's. *)

type cow_op =
  | C_map of int * char  (** [map_page], fresh bytes *)
  | C_map_shared of int * char
  | C_share of int
  | C_read_u8 of int64
  | C_read_u64 of int64
  | C_read_bytes of int64 * int
  | C_write_u8 of int64 * int
  | C_write_u64 of int64 * int64
  | C_write_bytes of int64 * string
  | C_store of int64 * int  (** the interpreter's store: in place on a write tag *)
  | C_track of bool
  | C_clear_dirty

let show_cow_op = function
  | C_map (k, c) -> Printf.sprintf "map %d %C" k c
  | C_map_shared (k, c) -> Printf.sprintf "map_shared %d %C" k c
  | C_share k -> Printf.sprintf "share %d" k
  | C_read_u8 a -> Printf.sprintf "read_u8 0x%Lx" a
  | C_read_u64 a -> Printf.sprintf "read_u64 0x%Lx" a
  | C_read_bytes (a, n) -> Printf.sprintf "read_bytes 0x%Lx %d" a n
  | C_write_u8 (a, v) -> Printf.sprintf "write_u8 0x%Lx %d" a v
  | C_write_u64 (a, v) -> Printf.sprintf "write_u64 0x%Lx 0x%Lx" a v
  | C_write_bytes (a, s) -> Printf.sprintf "write_bytes 0x%Lx %d" a (String.length s)
  | C_store (a, v) -> Printf.sprintf "store 0x%Lx %d" a v
  | C_track on -> Printf.sprintf "track_dirty %b" on
  | C_clear_dirty -> "clear_dirty"

let gen_cow_ops =
  let open QCheck.Gen in
  let page = int_range 0 (window_pages - 1) in
  let addr =
    map2
      (fun k off -> Int64.of_int (((window_base + k) * Layout.page_size) + off))
      (int_range 0 window_pages)
      (oneof
         [ int_range 0 (Layout.page_size - 1);
           int_range (Layout.page_size - 12) (Layout.page_size - 1);
           int_range 0 8 ])
  in
  let byte = map Char.chr (int_range 0 255) in
  let op =
    frequency
      [ (2, map2 (fun k c -> C_map (k, c)) page byte);
        (2, map2 (fun k c -> C_map_shared (k, c)) page byte);
        (3, map (fun k -> C_share k) page);
        (2, map (fun a -> C_read_u8 a) addr);
        (2, map (fun a -> C_read_u64 a) addr);
        (2, map2 (fun a n -> C_read_bytes (a, n)) addr (int_range 0 40));
        (3, map2 (fun a v -> C_write_u8 (a, v)) addr (int_range 0 255));
        (3, map2 (fun a v -> C_write_u64 (a, Int64.of_int v)) addr int);
        (2, map2 (fun a s -> C_write_bytes (a, s)) addr (string_size ~gen:byte (int_range 0 40)));
        (4, map2 (fun a v -> C_store (a, v)) addr (int_range 0 255));
        (1, map (fun on -> C_track on) bool);
        (2, return C_clear_dirty) ]
  in
  list_size (int_range 1 80) op

let qcheck_copy_on_write_model =
  QCheck.Test.make ~count:500 ~name:"copy-on-write pages agree with a plain page table"
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_cow_op ops)) gen_cow_ops)
    (fun ops ->
      let mem = Memory.create () in
      (* every string Memory may hold without a copy, with its bytes *)
      let held = ref [] in
      let hold s = held := (s, String.sub s 0 (String.length s)) :: !held in
      Memory.set_fault_handler mem
        (Some
           (fun pn ->
             if served pn then begin
               let b = served_page pn in
               hold (Bytes.unsafe_to_string b);
               Some b
             end
             else None));
      let m = { m_pages = Hashtbl.create 8; m_faults = 0 } in
      let dirty = ref None in
      let mark pn = Option.iter (fun d -> Hashtbl.replace d pn ()) !dirty in
      let model_write_u8 a v =
        ignore (model_page m a);
        mark (Layout.page_of_addr a);
        model_set_u8 m a v
      in
      let outcome f = match f () with v -> Ok v | exception Memory.Segfault a -> Error a in
      let map_model k c =
        Hashtbl.replace m.m_pages (window_base + k) (Bytes.make Layout.page_size c);
        mark (window_base + k)
      in
      List.iter
        (fun op ->
          let real, model =
            match op with
            | C_map (k, c) ->
              Memory.map_page mem (window_base + k) (Bytes.make Layout.page_size c);
              map_model k c;
              (Ok "", Ok "")
            | C_map_shared (k, c) ->
              let s = String.make Layout.page_size c in
              hold s;
              Memory.map_shared mem (window_base + k) s;
              map_model k c;
              (Ok "", Ok "")
            | C_share k ->
              let got = Memory.share_page mem (window_base + k) in
              Option.iter hold got;
              ( Ok (Option.value got ~default:"unmapped"),
                Ok
                  (match Hashtbl.find_opt m.m_pages (window_base + k) with
                   | Some p -> Bytes.to_string p
                   | None -> "unmapped") )
            | C_read_u8 a ->
              ( outcome (fun () -> string_of_int (Memory.read_u8 mem a)),
                outcome (fun () -> string_of_int (model_u8 m a)) )
            | C_read_u64 a ->
              ( outcome (fun () -> Int64.to_string (Memory.read_u64 mem a)),
                outcome (fun () -> Int64.to_string (model_read_u64 m a)) )
            | C_read_bytes (a, n) ->
              ( outcome (fun () -> Memory.read_bytes mem a n),
                outcome (fun () -> model_read_bytes m a n) )
            | C_write_u8 (a, v) ->
              ( outcome (fun () -> Memory.write_u8 mem a v; ""),
                outcome (fun () -> model_write_u8 a v; "") )
            | C_write_u64 (a, v) ->
              ( outcome (fun () -> Memory.write_u64 mem a v; ""),
                outcome (fun () ->
                    if Layout.page_offset a + 8 <= Layout.page_size then begin
                      ignore (model_page m a);
                      mark (Layout.page_of_addr a);
                      model_write_u64 m a v
                    end
                    else
                      for k = 0 to 7 do
                        model_write_u8 (Int64.add a (Int64.of_int k))
                          (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xFF)
                      done;
                    "") )
            | C_write_bytes (a, s) ->
              ( outcome (fun () -> Memory.write_bytes mem a s; ""),
                outcome (fun () ->
                    model_range m a (String.length s) (fun (p, off, pos, chunk) ->
                        mark (Layout.page_of_addr (Int64.add a (Int64.of_int pos)));
                        Bytes.blit_string s pos p off chunk);
                    "") )
            | C_store (a, v) ->
              let pn = Layout.page_of_addr a in
              let page = Memory.cached_page_for_write mem pn in
              ( outcome (fun () ->
                    if Bytes.length page <> 0 then
                      Bytes.set page (Layout.page_offset a) (Char.chr v)
                    else Memory.write_u8 mem a v;
                    ""),
                outcome (fun () -> model_write_u8 a v; "") )
            | C_track on ->
              Memory.track_dirty mem on;
              dirty := if on then Some (Hashtbl.create 8) else None;
              (Ok "", Ok "")
            | C_clear_dirty ->
              Memory.clear_dirty mem;
              Option.iter Hashtbl.reset !dirty;
              (Ok "", Ok "")
          in
          let fail fmt = QCheck.Test.fail_reportf ("%s: " ^^ fmt) (show_cow_op op) in
          if real <> model then fail "memory and model disagree";
          if Memory.fault_count mem <> m.m_faults then
            fail "fault count %d, model %d" (Memory.fault_count mem) m.m_faults;
          if memory_pages mem <> model_pages m then fail "mapped pages differ from the model";
          List.iter
            (fun (s, bytes) -> if not (String.equal s bytes) then fail "a shared page was written")
            !held;
          let model_dirty =
            match !dirty with
            | None -> []
            | Some d -> List.sort Int.compare (Hashtbl.fold (fun pn () acc -> pn :: acc) d [])
          in
          if Memory.dirty_pages mem <> model_dirty then
            fail "dirty pages [%s], model [%s]"
              (String.concat " " (List.map string_of_int (Memory.dirty_pages mem)))
              (String.concat " " (List.map string_of_int model_dirty));
          for pn = window_base to window_base + window_pages do
            let page = Memory.cached_page_for_write mem pn in
            if Bytes.length page <> 0 then begin
              if List.exists (fun (s, _) -> Bytes.unsafe_to_string page == s) !held then
                fail "page %d: a shared page's bytes are writable" pn;
              match Memory.page_contents mem pn with
              | Some p when p == page -> ()
              | _ -> fail "page %d: writable bytes are not the page table's" pn
            end
          done)
        ops;
      true)

let suites =
  [ ( "machine-memory",
      [ Alcotest.test_case "cross-page access" `Quick test_memory_cross_page;
        Alcotest.test_case "segfault" `Quick test_memory_segfault;
        Alcotest.test_case "fault handler" `Quick test_memory_fault_handler;
        Alcotest.test_case "first pages share no cache slot" `Quick test_memory_cache_spread;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 14 |]) ~speed_level:`Quick
          qcheck_page_cache_model;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 15 |]) ~speed_level:`Quick
          qcheck_copy_on_write_model ] );
    ( "machine-process",
      [ Alcotest.test_case "deterministic execution" `Quick test_deterministic_execution;
        Alcotest.test_case "division by zero" `Quick test_division_by_zero_crashes;
        Alcotest.test_case "wild pointer" `Quick test_wild_pointer_crashes;
        Alcotest.test_case "sbrk growth" `Quick test_sbrk_growth;
        Alcotest.test_case "stack demand growth" `Quick test_stack_demand_growth;
        Alcotest.test_case "spawn limit" `Quick test_spawn_limit;
        Alcotest.test_case "join unknown tid" `Quick test_join_unknown_tid;
        Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
        Alcotest.test_case "clock monotonic" `Quick test_clock_monotonic;
        Alcotest.test_case "write of a negative length" `Quick test_write_negative_length;
        Alcotest.test_case "write of a huge length" `Quick test_write_huge_length;
        Alcotest.test_case "jump to unmapped code" `Quick test_jump_to_unmapped_code;
        Alcotest.test_case "jump to a pc above 2^62" `Quick test_jump_to_high_pc;
        Alcotest.test_case "sbrk past the heap region" `Quick test_sbrk_past_heap ] );
    ( "machine-pins",
      [ Alcotest.test_case "interpreter pins" `Quick test_interpreter_pins;
        Alcotest.test_case "clock pins" `Quick test_clock_pins;
        Alcotest.test_case "pause-point pins" `Quick test_pause_pins;
        Alcotest.test_case "mid-block crash pins" `Quick test_mid_block_crash_pins;
        Alcotest.test_case "interpreter allocation" `Quick test_interpreter_allocation;
        QCheck_alcotest.to_alcotest qcheck_chunked_runs ] ) ]
