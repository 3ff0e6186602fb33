(** Stack-slot shuffling (paper Sections III-C "shuffle the stack slot
    layout" and IV-B).

    Produces a binary variant in which each function's named stack
    allocations are permuted within their size classes, patching every
    fp-relative memory access and address materialization in the code
    (static binary instrumentation over the disassembly, as the paper
    does with capstone) and rewriting the stack-map records to match.

    Rewriting a {e live} process to the shuffled layout is then just
    {!Rewrite.rewrite} with the shuffled binary as destination — same
    mechanism as cross-ISA migration, same ISA on both sides.

    On aarch64, slots referenced through load/store-pair instructions
    are pinned (re-encoding a pair into two single accesses is out of
    scope, as in the paper), which lowers the achieved entropy —
    Fig. 10's asymmetry. *)

open Dapper_util
open Dapper_binary

exception Shuffle_error of string

type func_entropy = {
  fe_slots : int;          (** named allocations in the frame *)
  fe_pinned : int;         (** excluded due to pair instructions *)
  fe_bits : float;         (** bits of entropy: pairwise shuffles = shuffled/2 *)
}

type stats = {
  sh_funcs : func_entropy list;
  sh_instrs_rewritten : int;
}

(** Mean bits of entropy across all functions with at least one slot. *)
val average_bits : stats -> float

(** [shuffle_binary rng binary] returns the shuffled variant and stats.
    The variant has identical code size and symbol addresses. *)
val shuffle_binary : Rng.t -> Binary.t -> Binary.t * stats
