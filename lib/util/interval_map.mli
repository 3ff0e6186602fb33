(** Immutable interval map over [int64] half-open intervals [\[lo, hi)],
    backed by sorted arrays and binary search.

    Replaces the linear [List.find_opt] interval scans on the rewriter's
    pointer-translation hot path: a lookup is O(log n) instead of O(n).
    Intervals are expected to be pairwise disjoint — with overlapping
    intervals a lookup returns the one with the greatest [lo] covering
    the point, which may differ from a first-match list scan (use
    {!disjoint} to check when the input is untrusted). *)

type 'a t

(** Build from [(lo, hi, payload)] triples; the list is not required to
    be sorted. O(n log n). *)
val of_list : (int64 * int64 * 'a) list -> 'a t

(** [true] when no two intervals overlap (the precondition under which
    lookups agree with a first-match linear scan). *)
val disjoint : 'a t -> bool

(** Payload of the interval containing the point, if any. O(log n). *)
val find : 'a t -> int64 -> 'a option

(** Like {!find} but also returns the interval bounds. *)
val find_interval : 'a t -> int64 -> (int64 * int64 * 'a) option

