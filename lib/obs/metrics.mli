(** A process-wide registry of named counters.

    Every number a migration reports lives in its per-run record
    ([Session.outcome], [Rewrite.stats], [Transport.tx_stats]
    and [page_stats], the fleet and health stats). The registry keeps
    only the three counters the wall-clock benchmark (perfbench) reads
    by name, as deltas around each activity: [transport.tx.attempts],
    [session.precopy.rounds] and [session.precopy.pages].

    Like {!Trace}, every recorded value derives from the simulated run,
    never the wall clock, so the registry is replayable: the same seeded
    runs always produce the same contents.

    Counters are registered on first use; re-requesting a name returns
    the same counter. *)

type counter

(** Get or create. *)
val counter : string -> counter

val inc : ?by:int -> counter -> unit
val counter_value : counter -> int

type metric = Counter of counter

val find : string -> metric option
