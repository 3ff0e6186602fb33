(** The architecture-independent intermediate representation.

    Programs (see {!Dapper_clite}) are lowered to this IR once; both
    backends then select machine code from the same IR, which is what
    guarantees that equivalence points, stack slots and live values
    correspond one-to-one across the two ISAs (the property Dapper's
    cross-architecture rewriting relies on, paper Section III-A).

    The representation is deliberately close to -O0 LLVM output: mutable
    named locals live in stack slots ([Slot_addr] + [Load]/[Store]);
    virtual registers are single-assignment temporaries. *)

open Dapper_isa

type ty = I64 | F64 | Ptr

val ty_equal : ty -> ty -> bool

type vreg = int
type label = int
type slot_id = int

type value =
  | Vreg of vreg
  | Imm of int64
  | Fimm of float
  | Global_addr of string  (** address of a global symbol *)
  | Func_addr of string    (** address of a function *)

type callee = Direct of string | Indirect of value

type instr =
  | Binop of Minstr.binop * vreg * value * value
  | Unop of Minstr.unop * vreg * value
  | Load of vreg * value            (** 64-bit load from address *)
  | Store of value * value          (** [Store (v, addr)] *)
  | Load8 of vreg * value           (** byte load, zero-extended *)
  | Store8 of value * value         (** byte store of the low 8 bits *)
  | Slot_addr of vreg * slot_id     (** address of a stack slot *)
  | Slot_load of vreg * slot_id     (** direct scalar read of a slot *)
  | Slot_store of value * slot_id   (** direct scalar write of a slot *)
  | Tls_addr of vreg * string       (** address of a thread-local variable *)
  | Call of vreg option * callee * value list

and terminator =
  | Ret of value option
  | Br of label
  | Cbr of value * label * label    (** branch on nonzero *)

type block = { blabel : label; instrs : instr list; term : terminator }

type slot = {
  sl_id : slot_id;
  sl_name : string;
  sl_size : int;          (** bytes, multiple of 8 *)
  sl_ty : ty;             (** element type: [Ptr] slots get stack-pointer fixup *)
  sl_addr_taken : bool;   (** if false and scalar, eligible for register promotion *)
}

type func = {
  fname : string;
  fparams : (string * ty) list;  (** each param is stored into its slot on entry *)
  fslots : slot list;            (** params first, in order *)
  fblocks : block array;         (** entry block is index 0 *)
  fvreg_tys : ty array;          (** type of each virtual register *)
}

type global = { g_name : string; g_size : int; g_init : string option }
type tls_var = { t_name : string; t_size : int }

type modul = {
  m_name : string;
  m_funcs : func list;
  m_globals : global list;
  m_tls : tls_var list;
}

val find_func : modul -> string -> func
val vreg_count : func -> int

(** Structural validation: labels in range, vregs defined before use on
    every path, slot ids well-formed, call targets resolvable, parameter
    counts within the 6-register calling convention. [externs] lists
    runtime-library functions (name, arity) that direct calls may target
    in addition to module functions. Returns the list of violations
    (empty means valid). *)
val validate : ?externs:(string * int) list -> modul -> string list

(** Per-equivalence-point virtual-register liveness.

    [liveness f] returns, for each block, the set of vregs live at the
    entry of each instruction, so the backend can record exactly the
    temporaries that survive across an equivalence point (the "live value
    records" of paper Fig. 4). Result: [live.(block).(instr_index)] is the
    list of vregs live immediately {e after} instruction [instr_index]
    executes. *)
val liveness : func -> vreg list array array

(** [block_live_in f] returns the vregs live at the entry of each block. *)
val block_live_in : func -> vreg list array
