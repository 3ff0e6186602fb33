(** Stack unwinding over a dumped process image.

    Walks each thread's call chain from the innermost paused frame
    outwards (paper Section III-D2b: "DAPPER unwinds the outermost stack
    frame inwards"; we walk innermost-out while recovering the
    callee-saved register context each callee's prologue saved, which is
    equivalent). For every frame it extracts the live values recorded in
    the stack map at the frame's equivalence point, reading registers
    from the recovered context and memory from the image. *)

open Dapper_util
open Dapper_binary
open Dapper_criu

type frame = {
  fr_func : Stackmap.func_map;
  fr_ep : Stackmap.eqpoint;
  fr_fp : int64;
  fr_at_call : bool;
      (** true for an innermost frame rolled back to re-execute its call *)
  fr_values : (Stackmap.lv_key * string) list;
      (** live value bytes, keyed by their cross-ISA identity *)
}

type thread_stack = {
  ts_tid : int;
  ts_frames : frame list;      (** innermost first *)
  ts_arg_regs : int64 list;    (** argument registers live at an at-call pause *)
  ts_tls : int64;
}

(** [unwind_all image ix ~anchors] unwinds every thread of [image]; [ix]
    is a lookup handle over the stack maps of the binary the image was
    produced from ({!Binary.index}), and counts the lookups the walk
    makes. Fails with [Dapper_error.Unwind_failed] on a corrupt stack
    (bad return address, pause outside an equivalence point, ...). *)
val unwind_all : Images.image_set -> Stackmap_index.t -> anchors:Binary.anchors ->
  (thread_stack list, Dapper_error.t) result
