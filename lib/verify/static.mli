(** Stack-map static verifier: the compiler→rewriter contract, checked
    without running anything.

    The rewriter trusts the stack maps completely — a record that lies
    about where a live value sits silently corrupts the migrated
    process. This pass re-derives, from first principles over the raw
    map lists, every structural invariant the recode pipeline relies
    on:

    - function ranges lie inside [.text] (within the {!Layout} code
      region), are disjoint, and agree with the symbol table;
    - frame sizes are 16-aligned and smaller than a {!Layout} stack
      region; callee-saved save slots and frame-resident live values
      sit strictly below the return-address/saved-fp pair at
      [fp+8]/[fp+0], inside the frame, and never overlap;
    - callee-saved sets and register-resident live values are
      consistent with the ISA description ({!Arch.callee_saved});
    - equivalence-point ids are unique and dense from zero, their
      addresses decode to the expected instruction (trap for
      entry/backedge checkers, call for call sites) with [ep_resume]
      exactly one encoded instruction later;
    - across the x86-64-sim/aarch64-sim pair: identical function
      addresses and padded sizes, bijective equivalence-point ids with
      matching kinds, matching live-value key sets with equal types and
      sizes, equal symbol tables, byte-identical data sections and
      anchors (the unified-address-space invariant). *)

module Link = Dapper_codegen.Link

type violation = { vi_where : string; vi_what : string }

val violation_to_string : violation -> string

(** Per-binary invariants on both binaries, plus the cross-ISA pair
    invariants. *)
val check_compiled : Link.compiled -> violation list

(** [run c] is [Ok ()] when [check_compiled c] finds nothing, otherwise
    [Error (Verify_failed msg)] where [msg] names the first violation
    site and the total count. *)
val run : Link.compiled -> (unit, Dapper_util.Dapper_error.t) result

(** {1 Mutation corpus}

    [corruptions c] returns named copies of [c], each with exactly one
    targeted stack-map corruption on the x86-64 side — a live value
    pushed out of its frame, overlapping slots, a caller-saved register
    claimed live, skewed equivalence-point ids, a resume address outside
    the function, a save slot above the frame pointer, a misaligned
    frame, and a cross-ISA type flip. The verifier must reject every one
    of them; the mutation tests assert it does, with a precise error. *)
val corruptions : Link.compiled -> (string * Link.compiled) list
