(** The session watchdog: stage deadlines enforced {e before} each
    stage runs.

    [run] drives the six-stage session pipeline exactly as
    [Session.run] does, but holds a blackout budget (ms) and a
    {!Deadline.t} of measured stage costs. Before each stage it
    projects the stage's cost — the EWMA history for
    pause/dump/recode/restore/commit, an analytic
    [Transport.transfer_ns] projection of the image at hand for the
    transfer (so a degraded link is caught with zero history, before
    any bytes move) — and if the projection no longer fits the
    remaining budget, the stage is cancelled {e early}: the session
    rolls back through the ordinary 2PC path (source resumed, nothing
    stranded) and the attempt returns the retriable
    [Dapper_error.Deadline_exceeded (stage, projected_ms)].

    Every completed stage's measured cost is folded back into the
    deadline store, so a store shared across attempts projects better
    with every migration.

    A stage with no history runs unguarded — the watchdog never guesses
    a cost it has not measured (the transfer's analytic projection is
    the deliberate exception). *)

type attempt = {
  ga_outcome : (Dapper.Session.outcome, Dapper_util.Dapper_error.t) result;
  ga_blackout_ms : float;
      (** how long the source was paused this attempt: completed stage
          costs, plus — on a failed transfer — the wire attempts and
          backoff the failure already charged *)
  ga_cancelled : Dapper_util.Dapper_error.stage option;
      (** the stage the watchdog cancelled, when it did *)
  ga_budget_ms : float;  (** the budget enforced (resolved) *)
  ga_hot_pages : int;
      (** dump-time page population (eager + lazy) — the fault tail's
          denominator; 0 when the attempt failed before the dump *)
  ga_lazy_left : int;
      (** lazy pages still unfetched after commit (restore debt minus
          the commit drain); 0 for eager mechanisms and failures *)
}

(** [run ?deadlines ?margin ?budget_ms cfg p] — one guarded migration
    attempt. [budget_ms] defaults to {!Deadline.budget_ms} over the
    config's pause budget at the source node's speed, scaled by
    [margin] (default 1.0); [deadlines] defaults to a fresh (empty)
    store, i.e. only the transfer is projected. *)
val run :
  ?deadlines:Deadline.t ->
  ?margin:float ->
  ?budget_ms:float ->
  Dapper.Session.config ->
  Dapper_machine.Process.t ->
  attempt
