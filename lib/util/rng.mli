(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component of the simulator draws from an explicit
    [Rng.t] so that experiments are reproducible run to run. *)

type t

(** [create seed] returns a generator whose stream is fully determined by
    [seed]. *)
val create : int64 -> t

(** [split t] derives a new independent generator from [t], advancing [t]. *)
val split : t -> t

(** Next raw 64-bit value. *)
val next : t -> int64

(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)
val int : t -> int -> int

(** [float t] is uniform in [0, 1). *)
val float : t -> float

(** [bool t] is a fair coin flip. *)
val bool : t -> bool

(** [shuffle t a] permutes array [a] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit
