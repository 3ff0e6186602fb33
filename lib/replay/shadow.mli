(** Divergence-localizing shadow replay.

    [check ~log ~from_point q] runs a {e freshly restored} process [q]
    (the destination of a migration taken at the recording's equivalence
    point [from_point]) in lockstep against the source's recording: the
    restored state is compared against the recorded anchor it claims to
    be, then the shadow is driven through every remaining anchor with
    the log's syscall results validated (clock substituted) and each
    anchor's snapshot, per-page digests and stdout prefix compared.

    Instead of a terminal pass/fail, a mismatch yields the {e first}
    diverging equivalence point with the thread, the recorded frames at
    that anchor and the page-level delta — localizing a rewriter bug to
    the anchor (and pages) where the migrated twin's state function
    first departs from the recorded one.

    [q] must be freshly restored, or a source resumed in place after a
    rolled-back migration (threads [Runnable], parked at the resume
    address of anchor [from_point]): the first monitor pause then
    advances it to anchor [from_point + 1], keeping the shadow walk
    aligned with the recorder's. Its stdout buffer is taken as the tail
    of the recorded output at that anchor — empty for a restored twin,
    all of it for a resumed source. Cross-ISA shadows (the normal case —
    a migration changes ISA) skip the recording's scheduler slices;
    same-ISA shadows validate them too. *)

open Dapper_isa
open Dapper_machine

type verdict =
  | Match  (** every remaining anchor, the exit code, stdout and the
               final snapshot matched the recording *)
  | Diverged of Replayer.divergence  (** first mismatch, localized *)

type report = {
  sh_app : string;
  sh_arch : Arch.t;        (** ISA the shadow ran on *)
  sh_from_point : int;     (** anchor the shadow started from *)
  sh_points : int;         (** anchors compared (including the start) *)
  sh_syscalls : int;       (** syscall results validated *)
  sh_substituted : int;    (** clock results substituted *)
  sh_verdict : verdict;
}

(** Never raises: log shape errors, crashes and monitor failures all
    become [Diverged] verdicts. *)
val check : ?budget:int -> log:Log.t -> from_point:int -> Process.t -> report

(** Multi-line report (the chaos plane attaches this to failures). *)
val report_to_string : report -> string
