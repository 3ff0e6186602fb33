(** A process-wide registry of named counters and fixed-bucket
    histograms.

    Every number a migration reports lives in its per-run record
    ([Session.outcome], [Rewrite.stats], [Transport.tx_stats]
    and [page_stats], the fleet and health stats). The registry keeps
    only the few aggregates something reads across runs:

    - [transport.tx.attempts], [session.precopy.rounds] and
      [session.precopy.pages] — counters the wall-clock benchmark
      (perfbench) reads by name, as deltas around each activity;
    - [session.stage_ms.<stage>] — one histogram per session stage of
      the modeled stage cost, printed by
      [Session.stage_histogram_table] ([micro --trace]).

    Like {!Trace}, every recorded value derives from the simulated
    cost model, never the wall clock, so the registry is replayable:
    the same seeded runs always produce the same contents.

    Metrics are registered on first use; re-requesting a name returns
    the same metric (re-registering a name as the other type raises
    [Invalid_argument]). *)

type counter
type histogram

(** Get or create. *)
val counter : string -> counter

(** Get or create, with millisecond-oriented upper bucket bounds
    (0.01 ms to 5 s) plus one overflow bucket. *)
val histogram : string -> histogram

val inc : ?by:int -> counter -> unit
val counter_value : counter -> int

val observe : histogram -> float -> unit
val histogram_sum : histogram -> float
val histogram_count : histogram -> int

(** [(upper_bound, count)] per bucket, ending with the [infinity]
    overflow bucket. *)
val histogram_buckets : histogram -> (float * int) list

type metric = Counter of counter | Histogram of histogram

val find : string -> metric option

(** Zero every metric's value (registrations persist). *)
val reset : unit -> unit
