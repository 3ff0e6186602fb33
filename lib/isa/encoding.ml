open Dapper_util

exception Encode_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Encode_error s)) fmt

let binop_code : Minstr.binop -> int = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Rem -> 4
  | And -> 5 | Or -> 6 | Xor -> 7 | Shl -> 8 | Shr -> 9 | Sar -> 10
  | Fadd -> 11 | Fsub -> 12 | Fmul -> 13 | Fdiv -> 14
  | Cmpeq -> 15 | Cmpne -> 16 | Cmplt -> 17 | Cmple -> 18 | Cmpgt -> 19
  | Cmpge -> 20 | Cmpult -> 21 | Fcmpeq -> 22 | Fcmplt -> 23 | Fcmple -> 24

let binop_of_code : int -> Minstr.binop option = function
  | 0 -> Some Add | 1 -> Some Sub | 2 -> Some Mul | 3 -> Some Div
  | 4 -> Some Rem | 5 -> Some And | 6 -> Some Or | 7 -> Some Xor
  | 8 -> Some Shl | 9 -> Some Shr | 10 -> Some Sar | 11 -> Some Fadd
  | 12 -> Some Fsub | 13 -> Some Fmul | 14 -> Some Fdiv | 15 -> Some Cmpeq
  | 16 -> Some Cmpne | 17 -> Some Cmplt | 18 -> Some Cmple | 19 -> Some Cmpgt
  | 20 -> Some Cmpge | 21 -> Some Cmpult | 22 -> Some Fcmpeq
  | 23 -> Some Fcmplt | 24 -> Some Fcmple
  | _ -> None

let num_binops = 25

let unop_code : Minstr.unop -> int = function
  | Neg -> 0 | Not -> 1 | Fneg -> 2 | Sitofp -> 3 | Fptosi -> 4 | Fsqrt -> 5

let unop_of_code : int -> Minstr.unop option = function
  | 0 -> Some Neg | 1 -> Some Not | 2 -> Some Fneg
  | 3 -> Some Sitofp | 4 -> Some Fptosi | 5 -> Some Fsqrt
  | _ -> None

let num_unops = 6

let alignment = function
  | Arch.X86_64 -> 1
  | Arch.Aarch64 -> 8

(* ----- immediate-field helpers ----- *)

let hi32 v = Int64.shift_right_logical v 32
let lo32 v = Int64.logand v 0xFFFFFFFFL

let fits_s32 v = v >= -0x8000_0000L && v <= 0x7FFF_FFFFL

let u32_of_int v = v land 0xFFFFFFFF

let s32_of_u32 u = if u land 0x8000_0000 <> 0 then u - (1 lsl 32) else u

(* ----- x86-64-sim: variable-length encoding ----- *)

let x86_size : Minstr.t -> int = function
  | Nop | Ret | Trap -> 1
  | Tls_get _ | Call_reg _ -> 2
  | Mov _ -> 3
  | Binop _ | Unop _ | Syscall _ -> 4
  | Call _ | Jmp _ | Adjust_sp _ -> 5
  | Jz _ | Jnz _ -> 6
  | Load _ | Store _ | Load8 _ | Store8 _ -> 7
  | Movi _ -> 10
  | Binopi _ -> 12
  | Movk _ -> fail "movk is aarch64-only"
  | Load_pair _ | Store_pair _ -> fail "load/store pair is aarch64-only"

let x86_encode b (i : Minstr.t) =
  let reg r =
    if r < 0 || r > 15 then fail "x86 register out of range: %d" r;
    Bytebuf.add_u8 b r
  in
  match i with
  | Nop -> Bytebuf.add_u8 b 0x90
  | Ret -> Bytebuf.add_u8 b 0xC3
  | Trap -> Bytebuf.add_u8 b 0xCC
  | Mov (d, s) -> Bytebuf.add_u8 b 0x48; reg d; reg s
  | Movi (d, v) -> Bytebuf.add_u8 b 0x49; reg d; Bytebuf.add_i64 b v
  | Binop (op, d, a, s2) ->
    Bytebuf.add_u8 b (0x50 + binop_code op); reg d; reg a; reg s2
  | Binopi (op, d, a, v) ->
    Bytebuf.add_u8 b 0x81; Bytebuf.add_u8 b (binop_code op); reg d; reg a;
    Bytebuf.add_i64 b v
  | Unop (op, d, s) -> Bytebuf.add_u8 b 0xF7; Bytebuf.add_u8 b (unop_code op); reg d; reg s
  | Load (d, base, off) ->
    Bytebuf.add_u8 b 0x8B; reg d; reg base; Bytebuf.add_u32 b (u32_of_int off)
  | Store (s, base, off) ->
    Bytebuf.add_u8 b 0x89; reg s; reg base; Bytebuf.add_u32 b (u32_of_int off)
  | Load8 (d, base, off) ->
    Bytebuf.add_u8 b 0x8A; reg d; reg base; Bytebuf.add_u32 b (u32_of_int off)
  | Store8 (s, base, off) ->
    Bytebuf.add_u8 b 0x88; reg s; reg base; Bytebuf.add_u32 b (u32_of_int off)
  | Tls_get d -> Bytebuf.add_u8 b 0x6A; reg d
  | Call addr -> Bytebuf.add_u8 b 0xE8; Bytebuf.add_u32 b (Int64.to_int addr)
  | Call_reg s -> Bytebuf.add_u8 b 0xFF; reg s
  | Jmp addr -> Bytebuf.add_u8 b 0xE9; Bytebuf.add_u32 b (Int64.to_int addr)
  | Jz (c, addr) -> Bytebuf.add_u8 b 0x74; reg c; Bytebuf.add_u32 b (Int64.to_int addr)
  | Jnz (c, addr) -> Bytebuf.add_u8 b 0x75; reg c; Bytebuf.add_u32 b (Int64.to_int addr)
  | Adjust_sp d -> Bytebuf.add_u8 b 0x83; Bytebuf.add_u32 b (u32_of_int d)
  | Syscall n -> Bytebuf.add_u8 b 0x0F; Bytebuf.add_u8 b 0x05; Bytebuf.add_u16 b n
  | Movk _ -> fail "movk is aarch64-only"
  | Load_pair _ | Store_pair _ -> fail "load/store pair is aarch64-only"

let x86_decode code off : (Minstr.t * int) option =
  let len = String.length code in
  let avail = len - off in
  if avail <= 0 then None
  else
    let u8 i = Bytebuf.get_u8 code (off + i) in
    let reg i = let r = u8 i in if r > 15 then None else Some r in
    let u32 i = Bytebuf.get_u32 code (off + i) in
    let i64 i = Bytebuf.get_i64 code (off + i) in
    let ( let* ) = Option.bind in
    let need n k = if avail >= n then k () else None in
    match u8 0 with
    | 0x90 -> Some (Minstr.Nop, 1)
    | 0xC3 -> Some (Ret, 1)
    | 0xCC -> Some (Trap, 1)
    | 0x48 -> need 3 (fun () ->
        let* d = reg 1 in let* s = reg 2 in Some (Minstr.Mov (d, s), 3))
    | 0x49 -> need 10 (fun () ->
        let* d = reg 1 in Some (Minstr.Movi (d, i64 2), 10))
    | op when op >= 0x50 && op < 0x50 + num_binops -> need 4 (fun () ->
        let* bop = binop_of_code (op - 0x50) in
        let* d = reg 1 in let* a = reg 2 in let* s2 = reg 3 in
        Some (Minstr.Binop (bop, d, a, s2), 4))
    | 0x81 -> need 12 (fun () ->
        let* bop = binop_of_code (u8 1) in
        let* d = reg 2 in let* a = reg 3 in
        Some (Minstr.Binopi (bop, d, a, i64 4), 12))
    | 0xF7 -> need 4 (fun () ->
        let* uop = unop_of_code (u8 1) in
        let* d = reg 2 in let* s = reg 3 in
        Some (Minstr.Unop (uop, d, s), 4))
    | 0x8B -> need 7 (fun () ->
        let* d = reg 1 in let* base = reg 2 in
        Some (Minstr.Load (d, base, s32_of_u32 (u32 3)), 7))
    | 0x89 -> need 7 (fun () ->
        let* s = reg 1 in let* base = reg 2 in
        Some (Minstr.Store (s, base, s32_of_u32 (u32 3)), 7))
    | 0x8A -> need 7 (fun () ->
        let* d = reg 1 in let* base = reg 2 in
        Some (Minstr.Load8 (d, base, s32_of_u32 (u32 3)), 7))
    | 0x88 -> need 7 (fun () ->
        let* s = reg 1 in let* base = reg 2 in
        Some (Minstr.Store8 (s, base, s32_of_u32 (u32 3)), 7))
    | 0x6A -> need 2 (fun () -> let* d = reg 1 in Some (Minstr.Tls_get d, 2))
    | 0xE8 -> need 5 (fun () -> Some (Minstr.Call (Int64.of_int (u32 1)), 5))
    | 0xFF -> need 2 (fun () -> let* s = reg 1 in Some (Minstr.Call_reg s, 2))
    | 0xE9 -> need 5 (fun () -> Some (Minstr.Jmp (Int64.of_int (u32 1)), 5))
    | 0x74 -> need 6 (fun () ->
        let* c = reg 1 in Some (Minstr.Jz (c, Int64.of_int (u32 2)), 6))
    | 0x75 -> need 6 (fun () ->
        let* c = reg 1 in Some (Minstr.Jnz (c, Int64.of_int (u32 2)), 6))
    | 0x83 -> need 5 (fun () -> Some (Minstr.Adjust_sp (s32_of_u32 (u32 1)), 5))
    | 0x0F -> need 4 (fun () ->
        if u8 1 = 0x05 then Some (Minstr.Syscall (Bytebuf.get_u16 code (off + 2)), 4)
        else None)
    | _ -> None

(* ----- aarch64-sim: fixed 8-byte words ----- *)

let arm_movi_single v = Int64.equal (hi32 v) 0L

let arm_size : Minstr.t -> int = function
  | Movi (_, v) -> if arm_movi_single v then 8 else 16
  | _ -> 8

let arm_word b ~op ~a ~bb ~c ~imm =
  Bytebuf.add_u8 b op;
  Bytebuf.add_u8 b a;
  Bytebuf.add_u8 b bb;
  Bytebuf.add_u8 b c;
  Bytebuf.add_u32 b imm

let arm_encode b (i : Minstr.t) =
  let reg r = if r < 0 || r > 31 then fail "aarch64 register out of range: %d" r else r in
  let s32 v =
    if not (fits_s32 (Int64.of_int v)) then fail "aarch64 immediate out of range: %d" v;
    u32_of_int v
  in
  let addr a = Int64.to_int a in
  match i with
  | Nop -> arm_word b ~op:0x00 ~a:0 ~bb:0 ~c:0 ~imm:0
  | Mov (d, s) -> arm_word b ~op:0x01 ~a:(reg d) ~bb:(reg s) ~c:0 ~imm:0
  | Movi (d, v) ->
    arm_word b ~op:0x02 ~a:(reg d) ~bb:0 ~c:0 ~imm:(Int64.to_int (lo32 v));
    if not (arm_movi_single v) then
      arm_word b ~op:0x03 ~a:(reg d) ~bb:0 ~c:0 ~imm:(Int64.to_int (hi32 v))
  | Movk (d, v) -> arm_word b ~op:0x03 ~a:(reg d) ~bb:0 ~c:0 ~imm:(Int64.to_int (lo32 v))
  | Load (d, base, off) -> arm_word b ~op:0x04 ~a:(reg d) ~bb:(reg base) ~c:0 ~imm:(s32 off)
  | Store (s, base, off) -> arm_word b ~op:0x05 ~a:(reg s) ~bb:(reg base) ~c:0 ~imm:(s32 off)
  | Load8 (d, base, off) -> arm_word b ~op:0x20 ~a:(reg d) ~bb:(reg base) ~c:0 ~imm:(s32 off)
  | Store8 (s, base, off) -> arm_word b ~op:0x21 ~a:(reg s) ~bb:(reg base) ~c:0 ~imm:(s32 off)
  | Load_pair (d1, d2, base, off) ->
    arm_word b ~op:0x06 ~a:(reg d1) ~bb:(reg d2) ~c:(reg base) ~imm:(s32 off)
  | Store_pair (s1, s2, base, off) ->
    arm_word b ~op:0x07 ~a:(reg s1) ~bb:(reg s2) ~c:(reg base) ~imm:(s32 off)
  | Tls_get d -> arm_word b ~op:0x08 ~a:(reg d) ~bb:0 ~c:0 ~imm:0
  | Call a -> arm_word b ~op:0x09 ~a:0 ~bb:0 ~c:0 ~imm:(addr a)
  | Call_reg s -> arm_word b ~op:0x0A ~a:(reg s) ~bb:0 ~c:0 ~imm:0
  | Ret -> arm_word b ~op:0x0B ~a:0 ~bb:0 ~c:0 ~imm:0
  | Jmp a -> arm_word b ~op:0x0C ~a:0 ~bb:0 ~c:0 ~imm:(addr a)
  | Jz (cr, a) -> arm_word b ~op:0x0D ~a:(reg cr) ~bb:0 ~c:0 ~imm:(addr a)
  | Jnz (cr, a) -> arm_word b ~op:0x0E ~a:(reg cr) ~bb:0 ~c:0 ~imm:(addr a)
  | Adjust_sp d -> arm_word b ~op:0x0F ~a:0 ~bb:0 ~c:0 ~imm:(s32 d)
  | Syscall n -> arm_word b ~op:0x2A ~a:0 ~bb:0 ~c:0 ~imm:n
  | Binop (op, d, a, s2) ->
    arm_word b ~op:(0x40 + binop_code op) ~a:(reg d) ~bb:(reg a) ~c:(reg s2) ~imm:0
  | Unop (op, d, s) -> arm_word b ~op:(0x60 + unop_code op) ~a:(reg d) ~bb:(reg s) ~c:0 ~imm:0
  | Binopi (op, d, a, v) ->
    if not (fits_s32 v) then fail "aarch64 binopi immediate out of range: %Ld" v;
    arm_word b ~op:(0x70 + binop_code op) ~a:(reg d) ~bb:(reg a) ~c:0
      ~imm:(Int64.to_int (lo32 v))
  | Trap -> arm_word b ~op:0xD4 ~a:0x20 ~bb:0 ~c:0 ~imm:0

let arm_decode code off : (Minstr.t * int) option =
  if off mod 8 <> 0 || off + 8 > String.length code then None
  else
    let u8 i = Bytebuf.get_u8 code (off + i) in
    let op = u8 0 and a = u8 1 and bb = u8 2 and c = u8 3 in
    let imm_u = Bytebuf.get_u32 code (off + 4) in
    let imm_s = s32_of_u32 imm_u in
    let ( let* ) = Option.bind in
    let reg r = if r > 31 then None else Some r in
    let result =
      match op with
      | 0x00 when a = 0 && bb = 0 && c = 0 && imm_u = 0 -> Some Minstr.Nop
      | 0x01 -> let* d = reg a in let* s = reg bb in Some (Minstr.Mov (d, s))
      | 0x02 -> let* d = reg a in Some (Minstr.Movi (d, Int64.of_int imm_u))
      | 0x03 -> let* d = reg a in Some (Minstr.Movk (d, Int64.of_int imm_u))
      | 0x04 -> let* d = reg a in let* base = reg bb in Some (Minstr.Load (d, base, imm_s))
      | 0x05 -> let* s = reg a in let* base = reg bb in Some (Minstr.Store (s, base, imm_s))
      | 0x20 -> let* d = reg a in let* base = reg bb in Some (Minstr.Load8 (d, base, imm_s))
      | 0x21 -> let* s = reg a in let* base = reg bb in Some (Minstr.Store8 (s, base, imm_s))
      | 0x06 ->
        let* d1 = reg a in let* d2 = reg bb in let* base = reg c in
        Some (Minstr.Load_pair (d1, d2, base, imm_s))
      | 0x07 ->
        let* s1 = reg a in let* s2 = reg bb in let* base = reg c in
        Some (Minstr.Store_pair (s1, s2, base, imm_s))
      | 0x08 -> let* d = reg a in Some (Minstr.Tls_get d)
      | 0x09 -> Some (Minstr.Call (Int64.of_int imm_u))
      | 0x0A -> let* s = reg a in Some (Minstr.Call_reg s)
      | 0x0B -> Some Minstr.Ret
      | 0x0C -> Some (Minstr.Jmp (Int64.of_int imm_u))
      | 0x0D -> let* cr = reg a in Some (Minstr.Jz (cr, Int64.of_int imm_u))
      | 0x0E -> let* cr = reg a in Some (Minstr.Jnz (cr, Int64.of_int imm_u))
      | 0x0F -> Some (Minstr.Adjust_sp imm_s)
      | 0x2A -> Some (Minstr.Syscall imm_u)
      | 0xD4 when a = 0x20 -> Some Minstr.Trap
      | op when op >= 0x40 && op < 0x40 + num_binops ->
        let* bop = binop_of_code (op - 0x40) in
        let* d = reg a in let* s1 = reg bb in let* s2 = reg c in
        Some (Minstr.Binop (bop, d, s1, s2))
      | op when op >= 0x60 && op < 0x60 + num_unops ->
        let* uop = unop_of_code (op - 0x60) in
        let* d = reg a in let* s = reg bb in
        Some (Minstr.Unop (uop, d, s))
      | op when op >= 0x70 && op < 0x70 + num_binops ->
        let* bop = binop_of_code (op - 0x70) in
        let* d = reg a in let* s1 = reg bb in
        Some (Minstr.Binopi (bop, d, s1, Int64.of_int imm_s))
      | _ -> None
    in
    Option.map (fun i -> (i, 8)) result

(* ----- dispatch ----- *)

let size arch i =
  match arch with
  | Arch.X86_64 -> x86_size i
  | Arch.Aarch64 -> arm_size i

let encode arch b i =
  match arch with
  | Arch.X86_64 -> x86_encode b i
  | Arch.Aarch64 -> arm_encode b i

let decode arch code off =
  match arch with
  | Arch.X86_64 -> x86_decode code off
  | Arch.Aarch64 -> arm_decode code off

let nop_bytes arch =
  let b = Bytebuf.create 8 in
  encode arch b Minstr.Nop;
  Bytebuf.contents b

let decode_all arch code =
  let len = String.length code in
  let rec go off acc =
    if off >= len then List.rev acc
    else
      match decode arch code off with
      | Some (i, sz) -> go (off + sz) ((off, i) :: acc)
      | None -> fail "undecodable %s bytes at offset %d" (Arch.name arch) off
  in
  go 0 []
