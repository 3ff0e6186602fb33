(** Architecture descriptors for the two simulated ISAs.

    The simulator models an "x86-64-sim" (CISC-flavoured: variable-length
    encoding, 16 GPRs, call pushes the return address on the stack) and an
    "aarch64-sim" (RISC-flavoured: fixed-length encoding, 31 GPRs, link
    register, load/store-pair fusion). Register numbering follows the
    respective DWARF conventions so that stack-map records look like the
    paper's Fig. 4. *)

type t = X86_64 | Aarch64

val equal : t -> t -> bool
val name : t -> string
val of_name : string -> t option

(** All architectures, in a stable order. *)
val all : t list

(** Number of addressable general-purpose registers (DWARF numbers
    [0 .. gpr_count-1]). The stack pointer is included in this range. *)
val gpr_count : t -> int

(** DWARF number of the stack pointer / frame pointer / link register.
    [link_reg] is [None] on x86-64, where calls push the return address. *)
val sp : t -> int
val fp : t -> int
val link_reg : t -> int option

(** Return-value register and the argument-register sequence. *)
val ret_reg : t -> int
val arg_regs : t -> int list

(** Callee-saved registers available for promoting hot locals (excludes the
    frame pointer). The count asymmetry (5 vs 10) is what makes some live
    values register-resident on one ISA and stack-resident on the other. *)
val callee_saved : t -> int list

(** Caller-saved scratch registers used by instruction selection. *)
val scratch : t -> int list

(** Human-readable register name for diagnostics ([rax], [x19], ...). *)
val reg_name : t -> int -> string

(** Byte offset that libc adds between the start of a thread's TLS block
    and the value kept in the TLS base register. Differs per architecture,
    which is exactly the fixup Dapper's rewriter must apply (paper
    Section III-C, "Thread Local Storage"). *)
val tls_offset : t -> int

(** Cost model inputs used by the cluster/network simulation. *)

(** Relative per-work-item slowdown of image-rewriting on this
    architecture's node (paper: recode on aarch64 is ~4x slower). *)
val recode_slowdown : t -> float

(** Syscall numbers differ per architecture, as on real Linux. *)
val syscall_number : t -> [ `Exit | `Write | `Sbrk | `Spawn | `Join | `Mutex_lock
                          | `Mutex_unlock | `Clock | `Yield ] -> int
val syscall_of_number : t -> int -> [ `Exit | `Write | `Sbrk | `Spawn | `Join
                                    | `Mutex_lock | `Mutex_unlock | `Clock | `Yield ] option
