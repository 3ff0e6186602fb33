(** Open-loop load plane: millions of simulated requests across a live
    migration, each charged the real stall.

    The generator plays a seeded arrival process ({!Arrival}) against a
    [lg_lanes]-lane FCFS server on the simulated clock while one real
    migration — driven through the actual {!Session} pipeline on the
    actual process image — runs at [lg_migrate_at_ms]. Requests are
    charged what the mechanism actually costs them:

    - requests whose service would start inside the blackout (the
      session's pause→resume window, from its stage log) wait for the
      resume — open-loop arrivals keep landing meanwhile, so the
      backlog drains through the lanes and the tail stretches exactly
      as queueing theory says it must;
    - under pre-copy ([Precopy]/[Hybrid]) the source serves through
      the rounds (at a small dirty-tracking overhead), and the blackout
      shrinks to what {!Session.precopy} left residual;
    - under post-copy ([Postcopy]/[Hybrid]) requests landing after the
      resume fault against the not-yet-fetched page set (the session's
      real [sf_lazy_pages]), each fault charged a
      {!Transport.fetch_stall_ns} sample — round trips, injected
      delays, retry backoff — plus the page-server queue wait from the
      rack pool ({!Rack.acquire_wait}).

    Per-request latencies stream into two {!Sketch}es (all requests,
    and requests charged a migration stall) and into an order-sensitive
    FNV-1a fingerprint, so same-seed runs are byte-identical — the
    golden-fingerprint tests pin exactly this. The loop is {!serve},
    which the sustained-chaos harness ([Dapper_health.Sustained]) also
    runs, over the blackouts of every attempt its control plane made. *)

open Dapper_util
open Dapper_machine
open Dapper_net
module Session = Dapper.Session

type cfg = {
  lg_seed : int64;
  lg_requests : int;        (** total arrivals to simulate *)
  lg_clients : int;         (** client population behind the rate *)
  lg_client_rps : float;    (** per-client requests per second *)
  lg_mmpp : (float * float) array option;
  (** MMPP states as [(rate multiplier, mean hold ms)] over the base
      rate; [None] = plain Poisson *)
  lg_lanes : int;           (** parallel FCFS service lanes *)
  lg_service_src_ms : float;  (** mean request service on the source *)
  lg_service_dst_ms : float;  (** mean request service on the destination *)
  lg_migrate_at_ms : float; (** when the migration begins *)
  lg_max_rounds : int;      (** pre-copy round cap ([Precopy]/[Hybrid]) *)
  lg_downtime_budget_ms : float;  (** pre-copy stop condition *)
  lg_round_instrs : int;
  (** source instructions interpreted per pre-copy round — the dirty-set
      generator (a fixed budget, so wall clock stays bounded while the
      modeled round time rides the wire model) *)
  lg_racks : Rack.t option; (** page-server pool charged on faults *)
  lg_rack : int;            (** the migrating job's rack *)
}

(** Mean request service time for a per-request instruction cost on a
    node: [instrs / (ops_per_ns * 1e6)] ms — how the bench calibrates
    [lg_service_*_ms] from real workload runs. *)
val service_ms : node:Node.t -> instrs_per_req:float -> float

type stats = {
  ls_mechanism : Budget.mechanism;
  ls_requests : int;
  ls_stalled : int;
  (** requests that arrived inside the migration window (pre-copy start
      through resume) or were charged a post-copy fault *)
  ls_faulted : int;       (** of those, post-copy page faults *)
  ls_precopy_ms : float;  (** pre-copy round time (source kept serving) *)
  ls_blackout_ms : float; (** pause → resume service gap *)
  ls_precopy : Session.precopy_stats option;
  ls_all : Sketch.t;      (** every request latency *)
  ls_during : Sketch.t;   (** latencies of the stalled requests *)
  ls_fingerprint : int64; (** FNV-1a over latency bits, arrival order *)
  ls_outcome : Session.outcome;
}

(** [run cfg scfg p mech] migrates [p] with [mech] under load. The
    session config's transport kind is adapted to the mechanism
    (scp for [Vanilla]/[Precopy], page-server for [Postcopy]/[Hybrid]);
    pass a transport of the right kind to keep a [retrying] wrapper.
    Session-stage failures surface unchanged (the source is rolled
    back by the session machinery). *)
val run :
  cfg ->
  Session.config ->
  Process.t ->
  Budget.mechanism ->
  (stats, Dapper_error.t) result

(** {1 The shared request plane} *)

(** Where a migration meets the request stream, in simulated ms. *)
type timeline = {
  tl_start : float;  (** migration start (pre-copy, if any) *)
  tl_blackouts : (float * float) list;  (** chronological, disjoint *)
  tl_resume : float;  (** service moves over; [infinity] if never *)
  tl_end : float;
  (** the source pays the dirty-tracking overhead until then, and a
      request arriving in [[tl_start, tl_end)] counts as during *)
}

(** [serve] plays [requests] arrivals against [lanes] FCFS lanes around
    the timeline. [service_rng] draws each service time; after
    [tl_resume], [fault_rng] faults a request with probability
    [remaining / max 1 hot_pages] while any of the [lazy_left] pages
    remain (0 for eager mechanisms), charging it [fault_stall
    start_ms]. Every latency goes to [on_latency]. Returns the sketch
    of all latencies, the during-migration sketch (arrived in the
    window, or faulted), the fault count, and the FNV-1a fingerprint
    over the latency bits in arrival order. *)
val serve :
  requests:int -> lanes:int -> service_src_ms:float -> service_dst_ms:float ->
  arrivals:Arrival.t -> service_rng:Rng.t -> fault_rng:Rng.t -> timeline ->
  lazy_left:int -> hot_pages:int -> fault_stall:(float -> float) ->
  on_latency:(float -> unit) -> Sketch.t * Sketch.t * int * int64

(** The pre-copy prologue: {!Session.precopy} (running [round_instrs]
    source instructions per round) when the mechanism pre-copies, then
    the resident pages into [cfg_resident_pages] ([[]] otherwise). *)
val precopy :
  Session.config -> Process.t -> Budget.mechanism -> round_instrs:int ->
  max_rounds:int -> downtime_budget_ms:float ->
  Session.config * Session.precopy_stats option

(** [fingerprint_line stats] renders the golden-test line: mechanism,
    request/stall/fault counts, blackout, the six quantiles at
    [%.6f], and the latency-stream fingerprint in hex. *)
val fingerprint_line : stats -> string
