(** The session watchdog: the transfer deadline enforced {e before} any
    bytes move.

    [run] steps through the six-stage session pipeline by hand rather
    than through [Session.run], because it must be able to cancel
    between recode and transfer. It holds a blackout budget (ms).
    Before the transfer it projects the wire cost of the image at hand
    with [Transport.transfer_ns], so a degraded link is caught on the
    first attempt. If the stages already spent plus that projection no longer
    fit the budget, the transfer is cancelled {e early}: the session
    rolls back through the ordinary 2PC path (source resumed, nothing
    stranded) and the attempt returns the retriable
    [Dapper_error.Deadline_exceeded (Transfer, projected_ms)]. The other
    stages run unguarded. *)

type attempt = {
  ga_outcome : (Dapper.Session.outcome, Dapper_util.Dapper_error.t) result;
  ga_blackout_ms : float;
      (** how long the source was paused this attempt: completed stage
          costs, plus — on a failed transfer — the wire attempts and
          backoff the failure already charged *)
  ga_cancelled : Dapper_util.Dapper_error.stage option;
      (** the stage the watchdog cancelled, when it did *)
}

(** [run ~budget_ms cfg p] — one guarded migration attempt. *)
val run :
  budget_ms:float -> Dapper.Session.config -> Dapper_machine.Process.t -> attempt
