(** A binary min-heap of timed events: the discrete-event core shared by
    the cluster simulators ({!Dapper_cluster.Scheduler},
    {!Dapper_cluster.Fleet}, {!Dapper_cluster.Fleet_xl}) and usable as a
    generic priority pool (e.g. lowest-index free-slot selection, with
    [time = 0.0] and [key = slot id]).

    Entries pop in ascending [(time, key, seq)] order, where [seq] is
    the push sequence number: ties on time break on the caller's [key]
    first (e.g. slot index, so "earliest slot wins" scans translate
    exactly), then on push order. The tie-break makes pop order {e
    stable}: two entries pushed at the same time with the same key pop
    in the order they were pushed. Times must be finite; [push] raises
    [Invalid_argument] on NaN. *)

type 'a t

(** [create ()] is an empty heap. [capacity] pre-sizes the backing
    array (it still grows on demand). *)
val create : ?capacity:int -> unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

(** [push h ~time v] schedules [v] at [time]. [key] (default 0) is the
    secondary sort key for same-time entries. *)
val push : 'a t -> ?key:int -> time:float -> 'a -> unit

(** Earliest entry without removing it. *)
val peek : 'a t -> (float * 'a) option

val peek_time : 'a t -> float option

(** Remove and return the earliest entry. *)
val pop : 'a t -> (float * 'a) option

(** Total pushes over the heap's lifetime — cheap event accounting for
    schedulers reporting events per simulated second. *)
val pushed : 'a t -> int


(** Pop everything: the heap-sort of the remaining entries, earliest
    first (the list-sort model the qcheck suite checks against). *)
val drain : 'a t -> (float * 'a) list
