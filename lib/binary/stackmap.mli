(** Stack-map metadata: the compiler→rewriter contract.

    Mirrors LLVM's [llvm.experimental.stackmap] records (paper
    Sections III-A, III-C and Fig. 4). For every equivalence point the
    backend records where each live value resides on {e this}
    architecture; because both binaries are generated from the same IR,
    records with equal [(function, ep_id)] describe the same program
    point, and the rewriter copies each live value from its source
    location to its target location. *)

(** Where a live value lives at an equivalence point. [Frame off] is an
    offset relative to the frame pointer (negative: below fp). *)
type loc = Reg of int | Frame of int

(** Identity of a live value, stable across architectures: a named stack
    slot (IR slot id) or a compiler temporary (IR vreg id). *)
type lv_key = Slot of int | Temp of int

type lv_ty = Lv_i64 | Lv_f64 | Lv_ptr

type live_value = {
  lv_key : lv_key;
  lv_name : string;   (** diagnostic only *)
  lv_ty : lv_ty;      (** [Lv_ptr] values get stack-pointer translation *)
  lv_size : int;      (** bytes; > 8 only for [Frame] aggregates *)
  lv_loc : loc;
}

type ep_kind =
  | Entry                             (** function-entry checker trap *)
  | Call_site of { cs_nargs : int }   (** equivalence point at a call *)
  | Backedge                          (** optional loop-header checker *)

type eqpoint = {
  ep_id : int;        (** index within the function, equal across ISAs *)
  ep_kind : ep_kind;
  ep_addr : int64;    (** trap instruction (entry/backedge) or call instruction *)
  ep_resume : int64;  (** where execution resumes: after the trap, or the
                          call's return address *)
  ep_live : live_value list;
}

type func_map = {
  fm_name : string;
  fm_addr : int64;
  fm_code_size : int;
  fm_frame_size : int;           (** bytes between fp and sp *)
  fm_saved : (int * int) list;   (** callee-saved reg -> fp-relative save offset *)
  fm_promoted : (int * int) list;(** slot id -> callee-saved reg holding it *)
  fm_leaf : bool;                (** aarch64: the return address is still in
                                     the link register in this function *)
  fm_eqpoints : eqpoint list;
}

(** Lookups used by the runtime monitor and rewriter. *)

val find_func : func_map list -> string -> func_map option

(** Function map covering address [a] (by [fm_addr .. fm_addr+fm_code_size)). *)
val func_of_addr : func_map list -> int64 -> func_map option

(** Equivalence point whose [ep_resume] equals the given address. *)
val eqpoint_by_resume : func_map -> int64 -> eqpoint option

(** Equivalence point with the given id. *)
val eqpoint_by_id : func_map -> int -> eqpoint option
