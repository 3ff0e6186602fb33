open Dapper_isa
open Dapper_ir
open Dapper_codegen
open Dapper_machine

let check = Alcotest.check

(* Tiny IR-building helpers for hand-written test programs. *)
let func name ?(params = []) ?(slots = []) ~vregs blocks =
  { Ir.fname = name; fparams = params;
    fslots =
      List.mapi
        (fun i (n, size, ty, addr_taken) ->
          { Ir.sl_id = i; sl_name = n; sl_size = size; sl_ty = ty;
            sl_addr_taken = addr_taken })
        slots;
    fblocks = Array.of_list (List.mapi (fun i (instrs, term) ->
        { Ir.blabel = i; instrs; term }) blocks);
    fvreg_tys = Array.make (max vregs 1) Ir.I64 }

let modul ?(globals = []) ?(tls = []) name funcs =
  { Ir.m_name = name; m_funcs = funcs;
    m_globals = List.map (fun (n, sz) -> { Ir.g_name = n; g_size = sz; g_init = None }) globals;
    m_tls = List.map (fun (n, sz) -> { Ir.t_name = n; t_size = sz }) tls }

(* Run a module to completion on [arch]; return (exit_code, stdout). *)
let run_on arch ?(fuel = 20_000_000) m =
  let compiled = Link.compile ~app:m.Ir.m_name m in
  let bin = Link.binary_for compiled arch in
  let p = Process.load bin in
  match Process.run_to_completion p ~fuel with
  | Process.Exited_run code -> (code, Process.stdout_contents p)
  | Process.Crashed c ->
    Alcotest.fail
      (Printf.sprintf "%s crashed on %s: tid=%d pc=0x%Lx %s" m.Ir.m_name
         (Arch.name arch) c.cr_tid c.cr_pc c.cr_reason)
  | Process.Idle -> Alcotest.fail "deadlock"
  | Process.Progress -> Alcotest.fail "out of fuel"

(* Cross-ISA check: same program, same observable behaviour. *)
let check_both ?fuel m ~code ~out =
  List.iter
    (fun arch ->
      let c, o = run_on arch ?fuel m in
      check Alcotest.int (Printf.sprintf "%s exit" (Arch.name arch)) code (Int64.to_int c);
      check Alcotest.string (Printf.sprintf "%s stdout" (Arch.name arch)) out o)
    Arch.all

(* --- programs --- *)

let prog_ret42 =
  modul "ret42" [ func "main" ~vregs:0 [ ([], Ir.Ret (Some (Ir.Imm 42L))) ] ]

let prog_loop_sum =
  (* sum = 0; for i in 1..10: sum += i; return sum (55) *)
  let main =
    func "main" ~slots:[ ("i", 8, Ir.I64, false); ("sum", 8, Ir.I64, false) ] ~vregs:6
      [ ( [ Ir.Slot_store (Ir.Imm 1L, 0); Ir.Slot_store (Ir.Imm 0L, 1) ], Ir.Br 1 );
        ( [ Ir.Slot_load (0, 0); Ir.Binop (Cmple, 1, Ir.Vreg 0, Ir.Imm 10L) ],
          Ir.Cbr (Ir.Vreg 1, 2, 3) );
        ( [ Ir.Slot_load (2, 1); Ir.Slot_load (3, 0);
            Ir.Binop (Add, 4, Ir.Vreg 2, Ir.Vreg 3); Ir.Slot_store (Ir.Vreg 4, 1);
            Ir.Binop (Add, 5, Ir.Vreg 3, Ir.Imm 1L); Ir.Slot_store (Ir.Vreg 5, 0) ],
          Ir.Br 1 );
        ( [ Ir.Slot_load (0, 1) ], Ir.Ret (Some (Ir.Vreg 0)) ) ]
  in
  modul "loop_sum" [ main ]

let prog_call =
  let add =
    func "add" ~params:[ ("a", Ir.I64); ("b", Ir.I64) ]
      ~slots:[ ("a", 8, Ir.I64, false); ("b", 8, Ir.I64, false) ] ~vregs:3
      [ ( [ Ir.Slot_load (0, 0); Ir.Slot_load (1, 1);
            Ir.Binop (Add, 2, Ir.Vreg 0, Ir.Vreg 1) ],
          Ir.Ret (Some (Ir.Vreg 2)) ) ]
  in
  let main =
    func "main" ~vregs:1
      [ ( [ Ir.Call (Some 0, Ir.Direct "add", [ Ir.Imm 40L; Ir.Imm 2L ]) ],
          Ir.Ret (Some (Ir.Vreg 0)) ) ]
  in
  modul "call" [ add; main ]

let prog_factorial =
  let fact =
    func "fact" ~params:[ ("n", Ir.I64) ] ~slots:[ ("n", 8, Ir.I64, false) ] ~vregs:5
      [ ( [ Ir.Slot_load (0, 0); Ir.Binop (Cmple, 1, Ir.Vreg 0, Ir.Imm 1L) ],
          Ir.Cbr (Ir.Vreg 1, 1, 2) );
        ( [], Ir.Ret (Some (Ir.Imm 1L)) );
        ( [ Ir.Slot_load (2, 0); Ir.Binop (Sub, 3, Ir.Vreg 2, Ir.Imm 1L);
            Ir.Call (Some 4, Ir.Direct "fact", [ Ir.Vreg 3 ]);
            Ir.Binop (Mul, 4, Ir.Vreg 2, Ir.Vreg 4) ],
          Ir.Ret (Some (Ir.Vreg 4)) ) ]
  in
  let main =
    func "main" ~vregs:1
      [ ( [ Ir.Call (Some 0, Ir.Direct "fact", [ Ir.Imm 5L ]) ],
          Ir.Ret (Some (Ir.Vreg 0)) ) ]
  in
  modul "factorial" [ fact; main ]

let prog_globals =
  let main =
    func "main" ~vregs:2
      [ ( [ Ir.Store (Ir.Imm 7L, Ir.Global_addr "g");
            Ir.Load (0, Ir.Global_addr "g");
            Ir.Binop (Mul, 1, Ir.Vreg 0, Ir.Imm 6L) ],
          Ir.Ret (Some (Ir.Vreg 1)) ) ]
  in
  modul ~globals:[ ("g", 8) ] "globals" [ main ]

let prog_tls =
  let bump =
    func "bump" ~vregs:4
      [ ( [ Ir.Tls_addr (0, "counter"); Ir.Load (1, Ir.Vreg 0);
            Ir.Binop (Add, 2, Ir.Vreg 1, Ir.Imm 5L);
            Ir.Store (Ir.Vreg 2, Ir.Vreg 0) ],
          Ir.Ret None ) ]
  in
  let main =
    func "main" ~vregs:2
      [ ( [ Ir.Call (None, Ir.Direct "bump", []); Ir.Call (None, Ir.Direct "bump", []);
            Ir.Tls_addr (0, "counter"); Ir.Load (1, Ir.Vreg 0) ],
          Ir.Ret (Some (Ir.Vreg 1)) ) ]
  in
  modul ~tls:[ ("counter", 8) ] "tls" [ bump; main ]

let prog_write =
  let main =
    func "main" ~slots:[ ("buf", 8, Ir.I64, true) ] ~vregs:2
      [ ( [ Ir.Slot_addr (0, 0);
            (* "hi\n" = 0x0a6968 little-endian *)
            Ir.Store (Ir.Imm 0x0a6968L, Ir.Vreg 0);
            Ir.Call (Some 1, Ir.Direct "write", [ Ir.Imm 1L; Ir.Vreg 0; Ir.Imm 3L ]) ],
          Ir.Ret (Some (Ir.Imm 0L)) ) ]
  in
  modul "write" [ main ]

let prog_array =
  (* a[8] array on the stack; a[i] = i*i; return a[7] (49) *)
  let main =
    func "main" ~slots:[ ("a", 64, Ir.I64, true); ("i", 8, Ir.I64, false) ] ~vregs:10
      [ ( [ Ir.Slot_store (Ir.Imm 0L, 1) ], Ir.Br 1 );
        ( [ Ir.Slot_load (0, 1); Ir.Binop (Cmplt, 1, Ir.Vreg 0, Ir.Imm 8L) ],
          Ir.Cbr (Ir.Vreg 1, 2, 3) );
        ( [ Ir.Slot_load (2, 1); Ir.Slot_addr (3, 0);
            Ir.Binop (Mul, 4, Ir.Vreg 2, Ir.Imm 8L);
            Ir.Binop (Add, 5, Ir.Vreg 3, Ir.Vreg 4);
            Ir.Binop (Mul, 6, Ir.Vreg 2, Ir.Vreg 2);
            Ir.Store (Ir.Vreg 6, Ir.Vreg 5);
            Ir.Binop (Add, 7, Ir.Vreg 2, Ir.Imm 1L);
            Ir.Slot_store (Ir.Vreg 7, 1) ],
          Ir.Br 1 );
        ( [ Ir.Slot_addr (8, 0); Ir.Binop (Add, 8, Ir.Vreg 8, Ir.Imm 56L);
            Ir.Load (9, Ir.Vreg 8) ],
          Ir.Ret (Some (Ir.Vreg 9)) ) ]
  in
  modul "array" [ main ]

let prog_indirect =
  let double_ =
    func "double" ~params:[ ("x", Ir.I64) ] ~slots:[ ("x", 8, Ir.I64, false) ] ~vregs:2
      [ ( [ Ir.Slot_load (0, 0); Ir.Binop (Add, 1, Ir.Vreg 0, Ir.Vreg 0) ],
          Ir.Ret (Some (Ir.Vreg 1)) ) ]
  in
  let main =
    func "main" ~slots:[ ("fp", 8, Ir.Ptr, false) ] ~vregs:2
      [ ( [ Ir.Slot_store (Ir.Func_addr "double", 0); Ir.Slot_load (0, 0);
            Ir.Call (Some 1, Ir.Indirect (Ir.Vreg 0), [ Ir.Imm 21L ]) ],
          Ir.Ret (Some (Ir.Vreg 1)) ) ]
  in
  modul "indirect" [ double_; main ]

let prog_float =
  (* sqrt(2.0) * sqrt(2.0) rounded to int = 2 *)
  let main =
    func "main" ~vregs:4
      [ ( [ Ir.Unop (Fsqrt, 0, Ir.Fimm 2.0);
            Ir.Binop (Fmul, 1, Ir.Vreg 0, Ir.Vreg 0);
            Ir.Binop (Fadd, 2, Ir.Vreg 1, Ir.Fimm 0.000001);
            Ir.Unop (Fptosi, 3, Ir.Vreg 2) ],
          Ir.Ret (Some (Ir.Vreg 3)) ) ]
  in
  modul "float" [ main ]

let prog_threads =
  (* two workers add 100 each to a mutex-protected global; main joins *)
  let worker =
    func "worker" ~params:[ ("arg", Ir.I64) ]
      ~slots:[ ("arg", 8, Ir.I64, false); ("i", 8, Ir.I64, false) ] ~vregs:8
      [ ( [ Ir.Slot_store (Ir.Imm 0L, 1) ], Ir.Br 1 );
        ( [ Ir.Slot_load (0, 1); Ir.Binop (Cmplt, 1, Ir.Vreg 0, Ir.Imm 100L) ],
          Ir.Cbr (Ir.Vreg 1, 2, 3) );
        ( [ Ir.Call (None, Ir.Direct "lock", [ Ir.Global_addr "m" ]);
            Ir.Load (2, Ir.Global_addr "total");
            Ir.Binop (Add, 3, Ir.Vreg 2, Ir.Imm 1L);
            Ir.Store (Ir.Vreg 3, Ir.Global_addr "total");
            Ir.Call (None, Ir.Direct "unlock", [ Ir.Global_addr "m" ]);
            Ir.Slot_load (4, 1); Ir.Binop (Add, 5, Ir.Vreg 4, Ir.Imm 1L);
            Ir.Slot_store (Ir.Vreg 5, 1) ],
          Ir.Br 1 );
        ( [], Ir.Ret (Some (Ir.Imm 0L)) ) ]
  in
  let main =
    func "main" ~slots:[ ("t1", 8, Ir.I64, false); ("t2", 8, Ir.I64, false) ] ~vregs:6
      [ ( [ Ir.Call (Some 0, Ir.Direct "spawn", [ Ir.Func_addr "worker"; Ir.Imm 0L ]);
            Ir.Slot_store (Ir.Vreg 0, 0);
            Ir.Call (Some 1, Ir.Direct "spawn", [ Ir.Func_addr "worker"; Ir.Imm 0L ]);
            Ir.Slot_store (Ir.Vreg 1, 1);
            Ir.Slot_load (2, 0); Ir.Call (None, Ir.Direct "join", [ Ir.Vreg 2 ]);
            Ir.Slot_load (3, 1); Ir.Call (None, Ir.Direct "join", [ Ir.Vreg 3 ]);
            Ir.Load (4, Ir.Global_addr "total") ],
          Ir.Ret (Some (Ir.Vreg 4)) ) ]
  in
  modul ~globals:[ ("total", 8); ("m", 8) ] "threads" [ worker; main ]

(* --- structural checks --- *)

let test_symbol_alignment () =
  let c = Link.compile ~app:"factorial" prog_factorial in
  List.iter2
    (fun (sx : Dapper_binary.Binary.symbol) (sa : Dapper_binary.Binary.symbol) ->
      check Alcotest.string "same name" sx.sym_name sa.sym_name;
      check Alcotest.bool
        (Printf.sprintf "aligned addr for %s" sx.sym_name)
        true
        (Int64.equal sx.sym_addr sa.sym_addr))
    c.cp_x86.bin_symbols c.cp_arm.bin_symbols

let test_text_differs () =
  let c = Link.compile ~app:"factorial" prog_factorial in
  let tx = Option.get (Dapper_binary.Binary.find_section c.cp_x86 ".text") in
  let ta = Option.get (Dapper_binary.Binary.find_section c.cp_arm ".text") in
  check Alcotest.bool "same text size (padded)" true
    (String.length tx.sec_data = String.length ta.sec_data);
  check Alcotest.bool "different encodings" true (tx.sec_data <> ta.sec_data)

let test_eqpoints_correspond () =
  let c = Link.compile ~app:"factorial" prog_factorial in
  let fx = Option.get (Dapper_binary.Stackmap.find_func c.cp_x86.bin_stackmaps "fact") in
  let fa = Option.get (Dapper_binary.Stackmap.find_func c.cp_arm.bin_stackmaps "fact") in
  check Alcotest.int "same ep count" (List.length fx.fm_eqpoints) (List.length fa.fm_eqpoints);
  List.iter2
    (fun (ex : Dapper_binary.Stackmap.eqpoint) (ea : Dapper_binary.Stackmap.eqpoint) ->
      check Alcotest.int "same ep id" ex.ep_id ea.ep_id;
      check Alcotest.bool "same kind" true (ex.ep_kind = ea.ep_kind);
      check Alcotest.int "same live count"
        (List.length ex.ep_live) (List.length ea.ep_live))
    fx.fm_eqpoints fa.fm_eqpoints

let test_promotion_asymmetry () =
  (* A function with many scalars: aarch64 promotes more of them. *)
  let slots = List.init 8 (fun i -> (Printf.sprintf "v%d" i, 8, Ir.I64, false)) in
  let f =
    func "many" ~slots ~vregs:1
      [ ( [ Ir.Slot_store (Ir.Imm 1L, 7); Ir.Slot_load (0, 7) ],
          Ir.Ret (Some (Ir.Vreg 0)) ) ]
  in
  let m = modul "many" [ f; func "main" ~vregs:1
    [ ([ Ir.Call (Some 0, Ir.Direct "many", []) ], Ir.Ret (Some (Ir.Vreg 0))) ] ] in
  let c = Link.compile ~app:"many" m in
  let fx = Option.get (Dapper_binary.Stackmap.find_func c.cp_x86.bin_stackmaps "many") in
  let fa = Option.get (Dapper_binary.Stackmap.find_func c.cp_arm.bin_stackmaps "many") in
  check Alcotest.int "x86 promotes 5" 5 (List.length fx.fm_promoted);
  check Alcotest.int "arm promotes 8" 8 (List.length fa.fm_promoted);
  (* And the program still runs correctly on both. *)
  check_both m ~code:1 ~out:""

let suites =
  [ ( "codegen-exec",
      [ Alcotest.test_case "ret42" `Quick (fun () -> check_both prog_ret42 ~code:42 ~out:"");
        Alcotest.test_case "loop sum" `Quick (fun () -> check_both prog_loop_sum ~code:55 ~out:"");
        Alcotest.test_case "call" `Quick (fun () -> check_both prog_call ~code:42 ~out:"");
        Alcotest.test_case "factorial" `Quick (fun () -> check_both prog_factorial ~code:120 ~out:"");
        Alcotest.test_case "globals" `Quick (fun () -> check_both prog_globals ~code:42 ~out:"");
        Alcotest.test_case "tls" `Quick (fun () -> check_both prog_tls ~code:10 ~out:"");
        Alcotest.test_case "write" `Quick (fun () -> check_both prog_write ~code:0 ~out:"hi\n");
        Alcotest.test_case "stack array" `Quick (fun () -> check_both prog_array ~code:49 ~out:"");
        Alcotest.test_case "indirect call" `Quick (fun () -> check_both prog_indirect ~code:42 ~out:"");
        Alcotest.test_case "float" `Quick (fun () -> check_both prog_float ~code:2 ~out:"");
        Alcotest.test_case "threads+mutex" `Quick (fun () -> check_both prog_threads ~code:200 ~out:"") ] );
    ( "codegen-structure",
      [ Alcotest.test_case "symbol alignment" `Quick test_symbol_alignment;
        Alcotest.test_case "text differs per ISA" `Quick test_text_differs;
        Alcotest.test_case "eqpoints correspond" `Quick test_eqpoints_correspond;
        Alcotest.test_case "promotion asymmetry" `Quick test_promotion_asymmetry ] ) ]
