(** Sustained-chaos runs: the whole health plane under one roof.

    Each seeded run draws a {e correlated} fault scenario — one
    destination rack (or, a quarter of the time, every rack) turns bad
    for a window around the scheduled migration: its wire slows 4-8x
    and payloads start dropping, corrupting, delaying, and failing
    restores. A migration control loop then drives the job to its
    destination through bounded attempts, while a Loadgen-style
    open-loop request plane measures what the tenant's clients saw:
    per-request latency (with every attempt's blackout window and the
    post-copy fault tail in the path), availability against an SLO,
    and the during-migration tail.

    With [su_control = true], the loop runs the self-healing plane:
    - placement takes the planned rack while its {!Breaker} admits
      work, else sheds to the lowest rack whose breaker does; with every
      breaker open it postpones for {!postpone_backoff_ms} and
      re-evaluates from scratch;
    - the budget picker chooses the mechanism from the wire the chosen
      rack shows now;
    - the {!Guard} watchdog cancels an attempt whose transfer no longer
      fits the blackout budget (a rollback instead of a blown
      blackout), and a cancel pins hybrid pre+post-copy for every later
      attempt;
    - the transport's retry backoff is jittered per attempt.

    With [su_control = false], the same scenario is replayed against a
    naive loop: always the planned rack, one fixed mechanism, no
    cancellation — only the transport's own retries between attempts.

    Either way a run makes at most 16 attempts, and each ends in an
    explicit commit or an explicit 2PC rollback with the source still
    running — there are no lost states and no unbounded retry loops, by
    construction.

    Every run serves 8 lanes at 4 requests/ms (mean service 1.2 ms on
    the source, 1.0 ms on the destination) against a 25 ms SLO, places
    across 4 racks of 2 page servers each, pre-copies at most 6 rounds
    of 20k source instructions, and holds each attempt's blackout to
    1.2x the calibrated healthy stop-and-copy blackout. *)

type cfg = {
  su_requests : int;          (** request-plane draws per run *)
  su_migrate_at_ms : float;   (** when the eviction is scheduled *)
  su_control : bool;          (** health plane on or off *)
}

(** 20k requests, migrate at 1 s, control on. *)
val default_cfg : cfg

(** How far a run fell back from a free choice of mechanism: [Full],
    the budget picker chose; [Hybrid_only], a deadline cancel pinned
    hybrid pre+post-copy, the minimum-blackout mechanism; [Postponed],
    every breaker was open and the run waited before trying again. *)
type rung = Full | Hybrid_only | Postponed

(** Capped exponential backoff before re-attempting a postponed
    eviction: [min 8000 (500 * 2^attempt)] ms. Raises
    [Invalid_argument] on a negative attempt. *)
val postpone_backoff_ms : attempt:int -> float

type verdict = Committed | Degraded of rung | Rolled_back

val verdict_name : verdict -> string

(** One timestamped control-plane decision, for the degradation trace:
    kinds are [degrade], [postpone], [shed], [breaker-trip],
    [deadline-cancel], [commit], [rollback]. *)
type event = { ev_ms : float; ev_kind : string; ev_detail : string }

type run = {
  r_seed : int64;
  r_verdict : verdict;
  r_attempts : int;
  r_postpones : int;
  r_sheds : int;
  r_trips : int;              (** breaker trips, summed over racks *)
  r_cancels : int;            (** watchdog deadline cancels *)
  r_final_rack : int option;  (** where the job landed, if it did *)
  r_blackout_ms : float;      (** summed over every attempt's window *)
  r_requests : int;
  r_ok : int;                 (** requests within the SLO *)
  r_availability : float;
  r_all : Dapper_traffic.Sketch.t;
  r_during : Dapper_traffic.Sketch.t;
  r_events : event list;      (** chronological *)
  r_fingerprint : int64;
}

(** [run cfg scfg ~fresh ~seed] — one seeded run. [fresh] builds a
    process image (one is consumed for calibration, one is migrated);
    [scfg] supplies nodes, binaries, and the link (its transport is
    replaced per attempt). Raises [Invalid_argument] on a bad [cfg] or
    a calibration failure. *)
val run :
  cfg ->
  Dapper.Session.config ->
  fresh:(unit -> Dapper_machine.Process.t) ->
  seed:int64 ->
  run

type summary = {
  y_control : bool;
  y_seeds : int;
  y_committed : int;
  y_degraded : int;
  y_rolled_back : int;
  y_postponed : int;
  y_attempts : int;
  y_sheds : int;
  y_trips : int;
  y_cancels : int;
  y_availability : float;
  y_all : Dapper_traffic.Sketch.t;
  y_during : Dapper_traffic.Sketch.t;
}

(** p99 of the merged during-migration sketch (0 when empty). *)
val mig_p99 : summary -> float

(** [paired cfg scfg ~fresh ~seeds ~seed0] — {!run} seeds [seed0,
    seed0+1, ...] in order with the health plane on, then again off
    (whatever [cfg.su_control] says), summarize each arm, and check the
    invariants every such pair must hold. Returns the control-on arm,
    the control-off arm, and one message per breach (none when all
    hold):
    - each arm's explicit verdicts (committed + degraded + rolled
      back) account for all [seeds], so no run was lost;
    - no run took more than 16 attempts, the hard bound per run;
    - control-on's {!mig_p99} is at most control-off's. *)
val paired :
  cfg ->
  Dapper.Session.config ->
  fresh:(unit -> Dapper_machine.Process.t) ->
  seeds:int ->
  seed0:int64 ->
  (run list * summary) * (run list * summary) * string list

val summary_line : summary -> string

(** The run's degradation trace, one formatted line per event. *)
val event_lines : run -> string list
