open Dapper_isa

let check = Alcotest.check

(* [instrs] encoded one after another, as the linker emits them. *)
let encode_all arch instrs =
  let b = Dapper_util.Bytebuf.create 64 in
  List.iter (Encoding.encode arch b) instrs;
  Dapper_util.Bytebuf.contents b

let sample_instrs arch : Minstr.t list =
  let r = if arch = Arch.X86_64 then 12 else 20 in
  [ Minstr.Nop;
    Mov (0, r);
    Movi (1, 42L);
    Movi (2, 0x1_0000_0000L);
    Movi (3, -1L);
    Binop (Add, 1, 2, 3);
    Binop (Fmul, 0, 1, 2);
    Binopi (Sub, 4, 5, -96L);
    Unop (Neg, 1, 2);
    Unop (Fsqrt, 1, 2);
    Load (1, 2, -128);
    Store (3, 4, 4088);
    Tls_get 5;
    Call 0x400123L;
    Call_reg 3;
    Ret;
    Jmp 0x400400L;
    Jz (2, 0x400500L);
    Jnz (3, 0x400600L);
    Adjust_sp (-64);
    Trap;
    Syscall (Arch.syscall_number arch `Write) ]

let arm_only : Minstr.t list =
  [ Load_pair (1, 2, 29, -32); Store_pair (3, 4, 29, -16) ]

let roundtrip arch instrs () =
  List.iter
    (fun i ->
      let bytes = encode_all arch [ i ] in
      check Alcotest.int
        (Printf.sprintf "size of %s" (Minstr.to_string arch i))
        (String.length bytes) (Encoding.size arch i);
      match Encoding.decode_all arch bytes with
      | [ (0, i') ] ->
        check Alcotest.bool (Minstr.to_string arch i) true (i' = i)
      | [ (0, i1); (_, i2) ] ->
        (* arm movi with a 64-bit immediate splits into movz+movk *)
        (match (i, i1, i2) with
         | Minstr.Movi (d, v), Minstr.Movi (d1, lo), Minstr.Movk (d2, hi) ->
           check Alcotest.bool "movz/movk split" true
             (d = d1 && d = d2
              && Int64.equal v
                   (Int64.logor lo (Int64.shift_left hi 32)))
         | _ -> Alcotest.fail "unexpected two-instruction decode")
      | _ -> Alcotest.fail "unexpected decode shape")
    instrs

let test_x86_distinct_sizes () =
  (* Variable-length encoding: ret is a single byte (the classic gadget
     terminator); instructions range from 1 to 12 bytes. *)
  check Alcotest.int "ret size" 1 (Encoding.size Arch.X86_64 Minstr.Ret);
  check Alcotest.int "binopi size" 12 (Encoding.size Arch.X86_64 (Minstr.Binopi (Add, 0, 0, 0L)))

let test_arm_fixed_size () =
  List.iter
    (fun i ->
      let sz = Encoding.size Arch.Aarch64 i in
      check Alcotest.bool "multiple of 8" true (sz mod 8 = 0))
    (sample_instrs Arch.Aarch64 @ arm_only)

let test_cross_arch_rejects () =
  let b = Dapper_util.Bytebuf.create 8 in
  check Alcotest.bool "pair on x86 rejected" true
    (match Encoding.encode Arch.X86_64 b (Minstr.Load_pair (1, 2, 6, 0)) with
     | exception Encoding.Encode_error _ -> true
     | () -> false)

let test_trap_bytes () =
  check Alcotest.string "x86 int3" "\xCC" (encode_all Arch.X86_64 [ Minstr.Trap ]);
  check Alcotest.int "arm trap size" 8
    (String.length (encode_all Arch.Aarch64 [ Minstr.Trap ]))

let test_misaligned_arm_decode () =
  let bytes = encode_all Arch.Aarch64 [ Minstr.Ret; Minstr.Nop ] in
  check Alcotest.bool "misaligned decode rejected" true
    (Encoding.decode Arch.Aarch64 bytes 3 = None)

let test_arch_tables () =
  List.iter
    (fun arch ->
      check Alcotest.bool "sp in range" true (Arch.sp arch < Arch.gpr_count arch);
      check Alcotest.bool "args distinct from scratch" true
        (List.for_all (fun a -> not (List.mem a (Arch.scratch arch))) (Arch.arg_regs arch));
      check Alcotest.bool "callee-saved distinct from scratch" true
        (List.for_all
           (fun a -> not (List.mem a (Arch.scratch arch)))
           (Arch.callee_saved arch));
      check Alcotest.bool "fp not callee-saved pool" true
        (not (List.mem (Arch.fp arch) (Arch.callee_saved arch))))
    Arch.all;
  check Alcotest.int "x86 callee-saved count" 5 (List.length (Arch.callee_saved Arch.X86_64));
  check Alcotest.int "arm callee-saved count" 10 (List.length (Arch.callee_saved Arch.Aarch64))

let test_syscall_numbering_differs () =
  let x = Arch.syscall_number Arch.X86_64 `Write in
  let a = Arch.syscall_number Arch.Aarch64 `Write in
  check Alcotest.bool "numbers differ" true (x <> a);
  check Alcotest.bool "roundtrip" true
    (Arch.syscall_of_number Arch.X86_64 x = Some `Write
     && Arch.syscall_of_number Arch.Aarch64 a = Some `Write)

(* Property: decoding any x86 byte string never reads out of bounds and
   either fails or reports a correct size. *)
let qcheck_x86_decode_safe =
  QCheck.Test.make ~name:"x86 decode safe on random bytes" ~count:500
    QCheck.(string_of_size (Gen.int_range 0 32))
    (fun s ->
      let rec scan off =
        if off >= String.length s then true
        else
          match Encoding.decode Arch.X86_64 s off with
          | Some (_, sz) -> sz > 0 && off + sz <= String.length s && scan (off + sz)
          | None -> scan (off + 1)
      in
      scan 0)

let qcheck_movi_roundtrip arch =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s movi roundtrip" (Arch.name arch))
    ~count:300 QCheck.int64
    (fun v ->
      let bytes = encode_all arch [ Minstr.Movi (1, v) ] in
      match Encoding.decode_all arch bytes with
      | [ (_, Minstr.Movi (1, v')) ] -> Int64.equal v v'
      | [ (_, Minstr.Movi (1, lo)); (_, Minstr.Movk (1, hi)) ] ->
        Int64.equal v (Int64.logor lo (Int64.shift_left hi 32))
      | _ -> false)

let suites =
  [ ( "isa",
      [ Alcotest.test_case "x86 roundtrip" `Quick (roundtrip Arch.X86_64 (sample_instrs Arch.X86_64));
        Alcotest.test_case "arm roundtrip" `Quick
          (roundtrip Arch.Aarch64 (sample_instrs Arch.Aarch64 @ arm_only));
        Alcotest.test_case "x86 sizes" `Quick test_x86_distinct_sizes;
        Alcotest.test_case "arm fixed size" `Quick test_arm_fixed_size;
        Alcotest.test_case "cross-arch rejects" `Quick test_cross_arch_rejects;
        Alcotest.test_case "trap bytes" `Quick test_trap_bytes;
        Alcotest.test_case "misaligned arm decode" `Quick test_misaligned_arm_decode;
        Alcotest.test_case "arch tables" `Quick test_arch_tables;
        Alcotest.test_case "syscall numbering" `Quick test_syscall_numbering_differs;
        QCheck_alcotest.to_alcotest qcheck_x86_decode_safe;
        QCheck_alcotest.to_alcotest (qcheck_movi_roundtrip Arch.X86_64);
        QCheck_alcotest.to_alcotest (qcheck_movi_roundtrip Arch.Aarch64) ] ) ]
