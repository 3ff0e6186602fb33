(** The differential migration oracle.

    Runs one compiled program as two execution twins, one per ISA, and
    checks Dapper's central claim — that a process migrated at {e any}
    equivalence point is observably identical afterwards — against one
    reference: a recording of the source twin
    ({!Dapper_replay.Replayer.record}), whose anchors hold the
    {!Dapper_machine.Process.observe} snapshot, per-page digests, stdout
    prefix and frames at every dynamic equivalence point. Three phases:

    + {b replay}: the source twin is recorded once, to exit, and the log
      is replayed on the destination ISA ({!Dapper_replay.Replayer.replay}):
      every completed syscall result, every anchor's snapshot and stdout
      prefix, the exit code and the final state must match;
    + {b lockstep walk}: both twins are paused at each of the first
      [max_points] equivalence points and their dumped images must
      unwind to pointwise-equal stacks (same functions, equivalence
      points and live-value bytes per cross-ISA key; only scalar
      temporaries are byte-compared, because pointer values legally
      differ across ISAs until the rewriter translates them). The log
      carries frames but no values, so this is the one check it cannot
      make;
    + {b migration sweep}: at each walked point [k], a fresh source is
      advanced to [k], force-migrated through the full {!Dapper.Session}
      pipeline, and the destination is shadow-replayed against the
      recording from anchor [k] to exit ({!Dapper_replay.Replayer.shadow}):
      the restored state must be anchor [k], and every later anchor, the
      exit code and the combined stdout must match.

    A failure names the first diverging anchor as [fl_point], with the
    frames recorded there and, for a snapshot mismatch, the diverging
    pages.

    Programs under the oracle must be deterministic, single-threaded and
    terminating (the recording runs to exit, with no instruction
    fuel), must not read the instruction-count clock (a pause perturbs
    it) and must not store stack addresses into globals or the heap
    (frame geometry differs across ISAs before translation). The
    generated ({!Gen}) and example ({!Corpus}) corpora respect this by
    construction.

    The sweep replays from a fresh load for each point, so its cost is
    quadratic in the number of dynamic points; [max_points] caps the
    lockstep walk and the sweep (the qcheck properties use a small cap,
    the example sweep runs uncapped). The recording, the replay and each
    shadow still run to exit. Only the recording dumps and unwinds at
    every anchor; the replay and the shadows compare digests there and
    record nothing, so on a registry program the recording is most of
    the cost of a capped run. *)

open Dapper_isa
module Link = Dapper_codegen.Link

type report = {
  rp_app : string;
  rp_src : Arch.t;
  rp_dst : Arch.t;
  rp_points : int;       (** dynamic equivalence points walked *)
  rp_complete : bool;    (** false when [max_points] capped the walk *)
  rp_migrations : int;   (** forced migrations performed (one per point) *)
  rp_snapshots : int;
      (** anchors compared against the recording: the replay's, plus
          each shadow's from its migration point (the restored state
          included) to the last. Replay and shadows run to exit, so a
          capped walk counts anchors past its cap too; a complete walk
          over [n] points counts [n + n(n+1)/2]. *)
  rp_values : int;       (** live-value byte comparisons across ISAs *)
}

type failure = {
  fl_app : string;
  fl_src : Arch.t;
  fl_dst : Arch.t;
  fl_point : int;
      (** the first diverging anchor (the dynamic point index); -1 when
          the source could not be recorded *)
  fl_what : string;
}

val report_to_string : report -> string
val failure_to_string : failure -> string

(** [run ~src ~dst c] drives all three phases, migrating [src]→[dst],
    at up to [max_points] equivalence points (default unlimited). *)
val run :
  ?max_points:int ->
  src:Arch.t ->
  dst:Arch.t ->
  Link.compiled ->
  (report, failure) result

(** [advance_to_point p ~budget k] drives a freshly loaded process to
    its [k]-th dynamic equivalence point (0-based) and leaves it paused
    there; [false] if the process exits first. Exposed for tests that
    drive the pipeline by hand at a chosen point. *)
val advance_to_point : Dapper_machine.Process.t -> budget:int -> int -> bool

(** {1 Fast-path byte equivalence}

    The recode fast paths — pipelined transfer, output-level
    memoization (cold fill and warm replay), the multi-worker cost
    model, and all three combined — must produce byte-identical wire
    images and equivalent restored processes. [check_fastpaths] parks a
    fresh source at up to [points] equivalence points and, at each,
    runs the sequential pipeline followed by every fast-path variant,
    comparing the transferred image files byte-for-byte and requiring
    the pipelined transfer cost never to exceed the sequential one, a
    warm memo run to actually hit and not to cost more recode time
    than its cold fill. *)

type fastpath_report = {
  fp_app : string;
  fp_points : int;            (** equivalence points exercised *)
  fp_memo_thread_hits : int;  (** warm-replay thread hits observed *)
  fp_memo_page_hits : int;    (** warm-replay pass-through page hits *)
  fp_saved_transfer_ms : float; (** sequential minus pipelined transfer *)
}

val fastpath_report_to_string : fastpath_report -> string

val check_fastpaths :
  ?points:int ->
  src:Arch.t ->
  dst:Arch.t ->
  Link.compiled ->
  (fastpath_report, failure) result

(** {1 Shadow replay}

    Divergence-localizing verification built on the record/replay plane
    ({!Dapper_replay}): record one complete source-ISA run, then at each
    of the first [max_points] equivalence points run a clean migration
    and require the committed destination to {e shadow-replay} the
    recording to a match ({!Dapper_replay.Replayer.shadow}) — the same
    per-point step as {!run}'s sweep. With [corrupt]
    (the default), each point additionally gets a deliberately damaged
    migration — one observable page of the rewritten image is flipped
    before an out-of-session restore — and the shadow must report its
    first divergence at exactly that anchor, naming the corrupted page,
    rather than a terminal pass/fail. *)

type shadow_report = {
  sr_app : string;
  sr_src : Arch.t;
  sr_dst : Arch.t;
  sr_points : int;     (** migration points exercised *)
  sr_clean : int;      (** clean migrations whose shadow matched *)
  sr_corrupted : int;  (** corrupted restores localized correctly *)
  sr_divergences : string list;
      (** one {!Dapper_replay.Replayer.outcome_to_string} per corrupted run *)
}

val shadow_report_to_string : shadow_report -> string

val check_shadow :
  ?max_points:int ->
  ?corrupt:bool ->
  src:Arch.t ->
  dst:Arch.t ->
  Link.compiled ->
  (shadow_report, failure) result
