(** Seeded open-loop arrival processes on the simulated clock.

    Open-loop means arrivals never wait for completions — the stream of
    request times is fixed by the seed alone, which is what exposes
    queueing collapse during a migration blackout (a closed-loop
    generator would politely stop sending). Two processes:

    - {!poisson}: exponential inter-arrivals at a constant rate — the
      classic M/·/· arrival side, memoryless per draw;
    - {!mmpp}: a Markov-modulated Poisson process — the generator
      holds in a state for an exponentially distributed time, emitting
      at that state's rate, then moves to the next state cyclically.
      Two states (quiet/burst) model diurnal or flash-crowd traffic;
      the per-state exponential holding times make the modulation
      itself memoryless, so crossing a state boundary simply redraws
      the inter-arrival at the new rate.

    All draws come from one splitmix64 stream per generator: same seed,
    same arrival times, bit for bit. *)

type t

(** [poisson ~seed ~rate_per_ms] emits at constant [rate_per_ms] > 0
    (requests per simulated millisecond). *)
val poisson : seed:int64 -> rate_per_ms:float -> t

(** [mmpp ~seed states] cycles through [states] = [(rate_per_ms,
    mean_hold_ms)] pairs, all positive, at least one state. A single
    state degenerates to {!poisson} with extra draws. *)
val mmpp : seed:int64 -> (float * float) array -> t

(** Next absolute arrival time in ms — non-decreasing across calls. *)
val next : t -> float

(** A unit-mean exponential draw from [rng] (inverse CDF). *)
val expo : Dapper_util.Rng.t -> float
