(** The degradation ladder: what a migration does instead of failing.

    When breakers are open or the downtime-budget picker reports
    nothing fits ({!Dapper_traffic.Budget.choose_detail}), the control
    plane walks down a deterministic ladder rather than blowing the
    blackout or abandoning the job:

    + [Full] — no degradation: the budget picker chooses freely;
    + [Hybrid_only] — pin hybrid pre+post-copy, the minimum-blackout
      mechanism;
    + [Precopy_only] — pin pre-copy + eager residual: nothing depends
      on the source link after restore, so an unreliable transport is
      only trusted during the (retried, checksummed) eager window;
    + [Postponed] — do not migrate now; back off and retry after
      {!postpone_backoff_ms}.

    Each rung taken is recorded by the callers in their outcome
    records, so a degraded fleet is visible, never silent. *)

type rung = Full | Hybrid_only | Precopy_only | Postponed

val rung_name : rung -> string
val all_rungs : rung list

(** One rung down; [None] past [Postponed] (the caller rolls back —
    explicitly, with the source intact). *)
val next : rung -> rung option

(** The copy mechanism a rung pins, [None] when the budget picker (or
    the caller's schedule) decides. *)
val mechanism : rung -> Dapper_traffic.Budget.mechanism option

(** Capped exponential backoff before re-attempting a postponed
    eviction: [min cap (base * 2^attempt)]. Raises [Invalid_argument]
    on non-positive base, cap below base, or negative attempt. *)
val postpone_backoff_ms : ?base_ms:float -> ?cap_ms:float -> attempt:int -> unit -> float
