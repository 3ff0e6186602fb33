(** The chaos harness: the migration oracle's invariant under injected
    faults.

    Each run takes the source's recording
    ({!Dapper_replay.Replayer.record}; a sweep makes one per program and
    source ISA), parks a fresh source process at a seeded equivalence
    point of an example program, picks a seeded transport (eager or
    post-copy, possibly congested, always armed with
    {!Dapper_net.Transport.retrying} retransmission), and drives the
    full two-phase-commit {!Dapper.Session} pipeline under a seeded
    {!Dapper_util.Fault.t} schedule. The invariant enforced on every
    run:

    {e no injected fault ever loses or corrupts a process} — either the
    migration {b commits}, and the destination shadow-replays the
    recording from the migration point to exit
    ({!Dapper_replay.Replayer.shadow}) while the source stays parked; or it
    {b rolls back}, and the source is running again and shadow-replays
    the recording the same way (same ISA, so its scheduler slices are
    validated too). Anything else is a {!failure}.

    Both the fault schedule and the per-run choices derive from the run
    seed alone, so any chaos failure is replayable bit for bit from its
    seed. *)

open Dapper_isa
module Link = Dapper_codegen.Link

type verdict =
  | Committed
  | Rolled_back of Dapper_util.Dapper_error.t  (** the stage error that triggered it *)

type run_report = {
  cr_app : string;
  cr_src : Arch.t;
  cr_dst : Arch.t;
  cr_seed : int;
  cr_point : int;          (** equivalence point migrated at *)
  cr_transport : string;
  cr_mechanism : Dapper_traffic.Budget.mechanism option;
      (** the forced copy mechanism, if one was pinned *)
  cr_verdict : verdict;
  cr_faults : int;         (** faults the schedule injected *)
  cr_retransmits : int;    (** transfer + page retransmissions recovered *)
  cr_drained : int;        (** post-copy pages drained at commit *)
  cr_added_ms : float;     (** injected latency + retry backoff paid *)
}

type failure = {
  cf_app : string;
  cf_src : Arch.t;
  cf_dst : Arch.t;
  cf_seed : int;
  cf_what : string;
      (** the broken invariant; a shadow that diverged appends its
          {!Dapper_replay.Replayer.outcome_to_string}, naming the first
          diverging anchor, thread, recorded frames and pages *)
}

type summary = {
  cs_runs : int;
  cs_committed : int;
  cs_rolled_back : int;
  cs_faults : int;
  cs_retransmits : int;
  cs_drained : int;
  cs_added_ms : float;
}

val run_report_to_string : run_report -> string
val failure_to_string : failure -> string
val summary_to_string : summary -> string

(** [sweep ~spec ~seeds ()] runs seeds [0..seeds-1] across the whole
    example corpus, alternating migration direction, stopping at the
    first invariant violation. It records each (program, source ISA)
    pair once, to exit, so the programs must terminate (the corpus
    programs do). [progress] is called per completed run.

    Seed [s]'s run migrates corpus program [s mod n] ([n] programs)
    under [spec], from x86-64 to aarch64 when [s / n] is even and back
    otherwise; the migration point is drawn from the program's first
    six equivalence points. With [pipeline], the transfer stage streams
    the image in page-sized chunks
    ({!Dapper.Session.config.cfg_pipeline}) — faults landing mid-stream
    must still commit-or-rollback exactly like the sequential path.
    [mechanism] pins the copy style instead of drawing it from the run
    stream (eager for vanilla/pre-copy, post-copy for lazy/hybrid;
    pre-copy and hybrid warm the destination with fault-free rounds
    first) — the congestion draw and fault schedule stay seed-aligned
    with the unpinned run. *)
val sweep :
  ?pipeline:bool ->
  ?mechanism:Dapper_traffic.Budget.mechanism ->
  ?progress:(run_report -> unit) ->
  spec:Dapper_util.Fault.spec ->
  seeds:int ->
  unit ->
  (summary, failure) result
