(** Record a process execution's nondeterministic inputs; validate a
    process against a recording on either ISA.

    {b Recording} runs a process from [load] to exit with the
    {!Dapper_machine.Process.nondet} tap installed, walking every
    dynamic equivalence point with the monitor (exactly the oracle's
    walk) so [Eqpoint] snapshot anchors interleave with the syscall and
    scheduler entries in program order.

    {b Validation} is one walk with a cursor over the log, started from
    a freshly loaded process ({!replay}) or from one parked at a
    recorded anchor ({!shadow}): every completed syscall is validated
    against the recorded result (the clock result is {e substituted} —
    it is the one input that legally differs), every equivalence point's
    observed digests, stdout prefix and — at a mismatch — per-page delta
    are compared against the recorded anchor, and on the recording's
    own ISA every scheduler slice is checked. The run then ends with one
    check: no crash, no unconsumed entries, the recorded exit code and
    final state. A replay from load on the recording's ISA also
    compares every other field the recorder wrote (frames, per-page
    digests, the app name), so a match there means a re-recording would
    reproduce the log byte for byte; nothing is re-recorded. The first
    mismatch stops the walk with a {!divergence} naming the equivalence
    point, thread and frame/page delta rather than a terminal pass/fail.

    Because the simulator is deterministic, a mismatch is never noise:
    it means the replayed binary (or a rewritten image restored into
    it) computes a different state function than the recorded run.

    Cross-ISA validation relies on the oracle's program contract
    (deterministic, single-threaded, no stored stack addresses): for
    such programs the completed-syscall sequence is a function of the
    program, so the log transfers across ISAs; scheduler slices are
    ISA-specific and are skipped. *)

open Dapper_isa
open Dapper_binary
open Dapper_machine

(** The first point where a process stopped matching its recording. *)
type divergence = {
  dv_point : int;   (** equivalence-point index: for snapshot/stdout
                        kinds, the diverging anchor; for syscall/sched
                        kinds, the next anchor the run was heading to *)
  dv_tid : int option;      (** diverging thread, when attributable *)
  dv_kind : string;  (** "syscall" | "sched" | "snapshot" | "stdout" |
                         "exit" | "crash" | "pause" | "log" *)
  dv_what : string;         (** human description of the mismatch *)
  dv_frames_at : int;
      (** the anchor whose recorded frames [dv_frames] holds: [dv_point],
          or the last anchor for a divergence past it (exit syscall,
          exit code, final state) *)
  dv_frames : string list;
  dv_pages : (string * int) list;
      (** diverging pages at a snapshot mismatch: (kind, page number) *)
}

val divergence_to_string : divergence -> string

(** Multi-line report (the artifact chaos failures and the CLI emit). The
    recorded frames are printed under "that anchor" when they are
    [dv_point]'s, else under the last anchor's eqpoint number. *)
val divergence_report : divergence -> string

(** [record bin] records one complete execution of [bin], draining
    each pause within {!Dapper.Monitor.default_budget}.
    [Error] on a crash, deadlock or monitor failure — recording imposes
    the oracle's walk, so anything the oracle admits records. *)
val record : Binary.t -> (Log.t, string) result

type outcome = {
  ro_app : string;          (** the recorded program *)
  ro_arch : Arch.t;         (** ISA the process ran on *)
  ro_from : int option;     (** anchor it started parked at; [None]: load *)
  ro_points : int;          (** anchors that matched, the start included *)
  ro_validated : int;       (** syscall results validated *)
  ro_substituted : int;     (** clock results substituted *)
  ro_sched_checked : int;   (** scheduler slices checked (same-ISA) *)
  ro_divergence : divergence option;
      (** the first mismatch; [None]: every anchor, the exit code,
          stdout and the final state matched *)
}

(** Multi-line report: the verdict, the counts, and the divergence
    report if any (the chaos plane attaches it to failures). *)
val outcome_to_string : outcome -> string

(** [replay ~log bin] loads [bin] (either ISA) and validates it against
    [log] from the start to exit. Neither [replay] nor {!shadow} raises:
    log shape errors, crashes and monitor failures are divergences. *)
val replay : log:Log.t -> Binary.t -> outcome

(** [shadow ~log ~from_point q] validates [q] against [log] from anchor
    [from_point] to exit, comparing [q]'s state against that anchor
    first. [q] is freshly restored (the destination of a migration taken
    there) or a source resumed in place after a rolled-back migration
    (threads [Runnable], parked at the anchor's resume address), so the
    first monitor pause advances it to the next anchor. Its stdout
    buffer is taken as the tail of the recorded output at that anchor —
    empty for a restored twin, all of it for a resumed source. A
    mismatch localizes a rewriter bug to the anchor (and pages) where
    the migrated twin's state function first departs from the recorded
    one. *)
val shadow : log:Log.t -> from_point:int -> Process.t -> outcome
