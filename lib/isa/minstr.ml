type reg = int

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr | Sar
  | Fadd | Fsub | Fmul | Fdiv
  | Cmpeq | Cmpne | Cmplt | Cmple | Cmpgt | Cmpge | Cmpult
  | Fcmpeq | Fcmplt | Fcmple

type unop = Neg | Not | Fneg | Sitofp | Fptosi | Fsqrt

type t =
  | Mov of reg * reg
  | Movi of reg * int64
  | Movk of reg * int64
  | Binop of binop * reg * reg * reg
  | Binopi of binop * reg * reg * int64
  | Unop of unop * reg * reg
  | Load of reg * reg * int
  | Store of reg * reg * int
  | Load8 of reg * reg * int
  | Store8 of reg * reg * int
  | Load_pair of reg * reg * reg * int
  | Store_pair of reg * reg * reg * int
  | Tls_get of reg
  | Call of int64
  | Call_reg of reg
  | Ret
  | Jmp of int64
  | Jz of reg * int64
  | Jnz of reg * int64
  | Adjust_sp of int
  | Trap
  | Syscall of int
  | Nop

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Shr -> "shr"
  | Sar -> "sar" | Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul"
  | Fdiv -> "fdiv" | Cmpeq -> "cmpeq" | Cmpne -> "cmpne" | Cmplt -> "cmplt"
  | Cmple -> "cmple" | Cmpgt -> "cmpgt" | Cmpge -> "cmpge" | Cmpult -> "cmpult"
  | Fcmpeq -> "fcmpeq" | Fcmplt -> "fcmplt" | Fcmple -> "fcmple"

let unop_name = function
  | Neg -> "neg" | Not -> "not" | Fneg -> "fneg"
  | Sitofp -> "sitofp" | Fptosi -> "fptosi" | Fsqrt -> "fsqrt"

let pp arch ppf t =
  let r n = Arch.reg_name arch n in
  match t with
  | Mov (d, s) -> Format.fprintf ppf "mov %s, %s" (r d) (r s)
  | Movi (d, v) -> Format.fprintf ppf "mov %s, #%Ld" (r d) v
  | Movk (d, v) -> Format.fprintf ppf "movk %s, #%Ld, lsl #32" (r d) v
  | Binop (op, d, a, b) ->
    Format.fprintf ppf "%s %s, %s, %s" (binop_name op) (r d) (r a) (r b)
  | Binopi (op, d, a, v) ->
    Format.fprintf ppf "%s %s, %s, #%Ld" (binop_name op) (r d) (r a) v
  | Unop (op, d, s) -> Format.fprintf ppf "%s %s, %s" (unop_name op) (r d) (r s)
  | Load (d, b, off) -> Format.fprintf ppf "ldr %s, [%s, #%d]" (r d) (r b) off
  | Store (s, b, off) -> Format.fprintf ppf "str %s, [%s, #%d]" (r s) (r b) off
  | Load8 (d, b, off) -> Format.fprintf ppf "ldrb %s, [%s, #%d]" (r d) (r b) off
  | Store8 (s, b, off) -> Format.fprintf ppf "strb %s, [%s, #%d]" (r s) (r b) off
  | Load_pair (d1, d2, b, off) ->
    Format.fprintf ppf "ldp %s, %s, [%s, #%d]" (r d1) (r d2) (r b) off
  | Store_pair (s1, s2, b, off) ->
    Format.fprintf ppf "stp %s, %s, [%s, #%d]" (r s1) (r s2) (r b) off
  | Tls_get d -> Format.fprintf ppf "mrs %s, tls" (r d)
  | Call a -> Format.fprintf ppf "call 0x%Lx" a
  | Call_reg s -> Format.fprintf ppf "call *%s" (r s)
  | Ret -> Format.fprintf ppf "ret"
  | Jmp a -> Format.fprintf ppf "jmp 0x%Lx" a
  | Jz (c, a) -> Format.fprintf ppf "jz %s, 0x%Lx" (r c) a
  | Jnz (c, a) -> Format.fprintf ppf "jnz %s, 0x%Lx" (r c) a
  | Adjust_sp d -> Format.fprintf ppf "add sp, sp, #%d" d
  | Trap -> Format.fprintf ppf "trap"
  | Syscall n -> Format.fprintf ppf "syscall #%d" n
  | Nop -> Format.fprintf ppf "nop"

let to_string arch t = Format.asprintf "%a" (pp arch) t
