(** Instruction selection: IR function -> machine instruction items.

    Selection is -O0-flavoured: every virtual register spills to a frame
    slot, promoted named scalars live in callee-saved registers, address
    fields are left symbolic ([fixup]) and resolved by the linker in a
    second pass. Equivalence-point markers carry the live-value records
    later serialized into the [.stackmaps] section. *)

open Dapper_isa
open Dapper_ir
open Dapper_binary

type fixup =
  | Fix_none
  | Fix_block of Ir.label   (** branch to an IR block *)
  | Fix_item of int         (** branch to an item index in this function *)
  | Fix_sym of string       (** absolute address of a symbol *)

type item = { ins : Minstr.t; fix : fixup }

type ep_marker = {
  m_index : int;                        (** item index of the trap / call *)
  m_id : int;
  m_kind : Stackmap.ep_kind;
  m_live : Stackmap.live_value list;
}

type sel_func = {
  sf_items : item array;
  sf_block_starts : int array;
  sf_eps : ep_marker list;
  sf_frame : Frame.t;
}

exception Select_error of string

(** [select opts arch ~tls f] — [tls] maps each thread-local variable to
    its byte offset within a thread's TLS block. *)
val select : Opts.t -> Arch.t -> tls:(string * int) list -> Ir.func -> sel_func

(** Sum of encoded sizes of all items (layout pass). *)
val code_size : Arch.t -> sel_func -> int

(** Per-item byte offsets within the function. *)
val item_offsets : Arch.t -> sel_func -> int array

(** Rewrite an instruction's address field (used when resolving fixups). *)
val with_target : Minstr.t -> int64 -> Minstr.t
