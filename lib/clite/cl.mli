(** A C-like embedded frontend that lowers to the IR.

    Plays the role of Clang in the paper's pipeline: all benchmark
    programs (NPB kernels, Linpack, Redis-like server, ...) are written
    against this API and lowered once to IR, from which both ISA
    backends generate code.

    Expressions are pure trees; statements are pushed into a function
    builder with structured control flow ([if_], [while_], [for_],
    [break_]). Local scalars whose address is never taken remain
    promotable to callee-saved registers by the backend. *)

open Dapper_ir

(** {1 Expressions} *)

type expr

val i : int -> expr                  (* integer literal *)
val i64 : int64 -> expr
val f : float -> expr                (* float literal *)
val v : string -> expr               (* read a local / global / TLS scalar *)
val addr : string -> expr            (* address of a local array, global or TLS variable *)
val fnptr : string -> expr           (* address of a function *)

val add : expr -> expr -> expr
val sub : expr -> expr -> expr
val mul : expr -> expr -> expr
val div_ : expr -> expr -> expr
val rem_ : expr -> expr -> expr
val band : expr -> expr -> expr
val bor : expr -> expr -> expr
val bxor : expr -> expr -> expr
val shl : expr -> expr -> expr
val shr : expr -> expr -> expr
val neg : expr -> expr
val bnot : expr -> expr

val eq : expr -> expr -> expr
val ne : expr -> expr -> expr
val lt : expr -> expr -> expr
val le : expr -> expr -> expr
val gt : expr -> expr -> expr
val ge : expr -> expr -> expr

val fadd : expr -> expr -> expr
val fsub : expr -> expr -> expr
val fmul : expr -> expr -> expr
val fdiv : expr -> expr -> expr
val fneg : expr -> expr
val flt : expr -> expr -> expr
val fle : expr -> expr -> expr
val feq : expr -> expr -> expr
val sqrt_ : expr -> expr
val i2f : expr -> expr
val f2i : expr -> expr

val deref : expr -> expr             (* *p (64-bit) *)
val idx : expr -> expr -> expr       (* p[e] with 8-byte scaling *)
val idx8 : expr -> expr -> expr      (* byte load p[e], byte scaling *)
val call : string -> expr list -> expr
val callf : string -> expr list -> expr  (* call returning f64 *)
val call_ptr : expr -> expr list -> expr

(** {1 Function bodies} *)

type fnb

val decl : fnb -> string -> expr -> unit            (* i64 local *)
val declf : fnb -> string -> expr -> unit           (* f64 local *)
val declp : fnb -> string -> expr -> unit           (* pointer local *)
val decl_arr : fnb -> string -> int -> unit         (* local array of n 64-bit slots *)
val decl_arr_ty : fnb -> string -> int -> Ir.ty -> unit

val set : fnb -> string -> expr -> unit             (* assign scalar by name *)
val store : fnb -> expr -> expr -> unit             (* [store b addr value] *)
val store_idx : fnb -> expr -> expr -> expr -> unit (* base[i] = value *)
val store8 : fnb -> expr -> expr -> unit            (* byte store *)
val store_idx8 : fnb -> expr -> expr -> expr -> unit(* byte store base[i] *)
val do_ : fnb -> expr -> unit                       (* evaluate for side effects *)

val if_ : fnb -> expr -> (fnb -> unit) -> unit
val if_else : fnb -> expr -> (fnb -> unit) -> (fnb -> unit) -> unit
val while_ : fnb -> expr -> (fnb -> unit) -> unit

(** [for_ b "i" lo hi body] iterates i = lo; i < hi; i++ *)
val for_ : fnb -> string -> expr -> expr -> (fnb -> unit) -> unit
val break_ : fnb -> unit
val continue_ : fnb -> unit
val ret : fnb -> expr -> unit
val ret0 : fnb -> unit

(** {1 Modules} *)

type mb

val create : string -> mb
val global : mb -> ?init:string -> string -> int -> unit
val global_i64 : mb -> string -> int64 -> unit      (* 8-byte initialized global *)
val tls_var : mb -> string -> int -> unit
val func : mb -> string -> (string * Ir.ty) list -> (fnb -> unit) -> unit

(** Interned string literal: returns the name of a fresh global holding
    the bytes. *)
val str_lit : mb -> string -> string

(** [finish mb] produces the IR module; raises [Failure] listing
    validation errors if the built module is ill-formed. *)
val finish : mb -> Ir.modul

exception Clite_error of string
