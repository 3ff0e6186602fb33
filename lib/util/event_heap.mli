(** A binary min-heap of timed events: the discrete-event core of the
    cluster simulators {!Dapper_cluster.Scheduler} and
    {!Dapper_cluster.Fleet_xl}, and their priority pool of free slots
    (lowest index first, with [time = 0.0] and [key = slot id]).

    Entries pop in ascending [(time, key, seq)] order, where [seq] is
    the push sequence number: ties on time break on the caller's [key]
    first (e.g. slot index, so "earliest slot wins" scans translate
    exactly), then on push order. The tie-break makes pop order {e
    stable}: two entries pushed at the same time with the same key pop
    in the order they were pushed. Times must be finite; [push] raises
    [Invalid_argument] on NaN. *)

type 'a t

(** [create ()] is an empty heap; its array grows on demand. *)
val create : unit -> 'a t

(** [push h ~time v] schedules [v] at [time]. [key] (default 0) is the
    secondary sort key for same-time entries. *)
val push : 'a t -> ?key:int -> time:float -> 'a -> unit

(** Earliest entry without removing it. *)
val peek : 'a t -> (float * 'a) option

(** Remove and return the earliest entry. *)
val pop : 'a t -> (float * 'a) option

(** Pop everything: the heap-sort of the remaining entries, earliest
    first (the list-sort model the qcheck suite checks against). *)
val drain : 'a t -> (float * 'a) list
