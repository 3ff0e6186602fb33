(** Whole-module compilation: IR -> one binary per architecture with a
    unified (aligned) address space.

    As in the paper (Section III-D1), both binaries are generated from
    the same IR; a gold-linker-style alignment pass pads every function
    with nops to the larger of its two encodings so that every symbol
    has the same address on both architectures, keeping code and data
    pointers valid across migration. *)

open Dapper_isa
open Dapper_ir
open Dapper_binary

type compiled = {
  cp_app : string;
  cp_x86 : Binary.t;
  cp_arm : Binary.t;
}

exception Link_error of string

(** Compile and link. Raises [Link_error] on IR validation failures,
    missing [main], or symbol collisions with the runtime library. *)
val compile : ?opts:Opts.t -> app:string -> Ir.modul -> compiled

val binary_for : compiled -> Arch.t -> Binary.t

(** [memoized ~app build] is [compile ~app (build ())], compiled once per
    [app] name in a process. Its callers name their programs apart: the
    registry's benchmark names, the corpus's [mini-*] and the
    generator's [gen<seed>]. *)
val memoized : app:string -> (unit -> Ir.modul) -> compiled

(** Build a "Popcorn-like" binary variant: the same program with the
    state-transformation runtime linked {e into} the binary's text (an
    inline migration runtime), used as the attack-surface baseline for
    Fig. 11. The extra code is the given IR module (typically the
    rewriter logic compiled as IR). *)
val compile_with_inline_runtime :
  ?opts:Opts.t -> app:string -> runtime_ir:Ir.modul -> Ir.modul -> compiled
