(** The semantic machine instruction set shared by both simulated ISAs.

    Both backends select code from this set; the per-architecture byte
    encodings (and some execution semantics, notably call/return) differ —
    see {!Encoding} and {!Dapper_machine.Cpu}. Register operands are DWARF
    numbers for the architecture the code is encoded for. *)

type reg = int

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr | Sar
  | Fadd | Fsub | Fmul | Fdiv
  | Cmpeq | Cmpne | Cmplt | Cmple | Cmpgt | Cmpge | Cmpult
  | Fcmpeq | Fcmplt | Fcmple

type unop = Neg | Not | Fneg | Sitofp | Fptosi | Fsqrt

type t =
  | Mov of reg * reg                 (** dst <- src *)
  | Movi of reg * int64              (** dst <- imm *)
  | Movk of reg * int64
      (** aarch64-sim only: dst <- (dst land 0xFFFFFFFF) lor (imm lsl 32).
          Emitted by the encoder when a 64-bit immediate does not fit the
          fixed-width immediate field; never produced by instruction
          selection directly. *)
  | Binop of binop * reg * reg * reg (** dst <- a op b *)
  | Binopi of binop * reg * reg * int64
  | Unop of unop * reg * reg
  | Load of reg * reg * int          (** dst <- mem64[base + off] *)
  | Store of reg * reg * int         (** mem64[base + off] <- src *)
  | Load8 of reg * reg * int         (** dst <- zero-extended mem8[base + off] *)
  | Store8 of reg * reg * int        (** mem8[base + off] <- low byte of src *)
  | Load_pair of reg * reg * reg * int
      (** aarch64 only: dst1 <- mem[base+off], dst2 <- mem[base+off+8] *)
  | Store_pair of reg * reg * reg * int
  | Tls_get of reg                   (** dst <- TLS base register *)
  | Call of int64                    (** direct call to absolute address *)
  | Call_reg of reg
  | Ret
  | Jmp of int64
  | Jz of reg * int64
  | Jnz of reg * int64
  | Adjust_sp of int                 (** sp <- sp + delta *)
  | Trap                             (** breakpoint: int3 / brk #0 *)
  | Syscall of int                   (** architecture-specific number *)
  | Nop

val pp : Arch.t -> Format.formatter -> t -> unit
val to_string : Arch.t -> t -> string
