(** Stage-cost history and deadline derivation for the session watchdog.

    A [Deadline.t] keeps one EWMA of modeled cost (ms) per migration
    stage. {!Guard} consults it before running a stage: a stage whose
    projected cost no longer fits the remaining blackout budget is
    cancelled {e early} — rolled back through the ordinary 2PC path and
    charged as [Dapper_error.Deadline_exceeded] — instead of being
    discovered over budget after the blackout already happened.

    History arrives through {!observe} after every completed stage
    (the guard feeds it), so it belongs to the caller that owns the
    store: a fresh store projects nothing until its own stages have
    run. The transfer stage is the exception: its cost is projected
    analytically from the image size and the transport at hand (see
    {!Guard}), because a degraded or flaky transport shows up there
    immediately — before any history exists. *)

type t

(** [alpha] is the EWMA weight of the newest observation, in (0, 1]
    (default 0.3). Raises [Invalid_argument] otherwise. *)
val create : ?alpha:float -> unit -> t

(** Fold one measured stage cost into the history. *)
val observe : t -> Dapper_util.Dapper_error.stage -> float -> unit

(** Projected cost of [stage], or [None] with no history (the guard
    runs un-projected stages rather than guessing). *)
val projected : t -> Dapper_util.Dapper_error.stage -> float option

(** [budget_ms ~ops_per_ns ~pause_budget ()] converts a session's
    instruction-denominated pause budget into the blackout time it
    represents at the source node's speed
    ([pause_budget / (ops_per_ns * 1e6)] ms), scaled by [margin]
    (default 1.0). Raises [Invalid_argument] on non-positive
    [ops_per_ns] or [margin]. *)
val budget_ms : ?margin:float -> ops_per_ns:float -> pause_budget:int -> unit -> float
