(** Hash- and binary-search indexes over a binary's stack maps.

    The unwinder, monitor, rewriter, DSU checker and exploit harness all
    resolve functions, equivalence points and live values; with plain
    {!Stackmap} every resolution is a linear list scan, which dominates
    the recode hot path (O(frames x functions x live values) per
    migration). This module builds, {e once per binary}, a set of O(1)/
    O(log n) indexes:

    - functions by name (hashtable) and by address range (sorted array,
      binary search);
    - equivalence points by id, by resume address and by trap/call
      address (hashtables per function);
    - live values by [lv_key] and by diagnostic name per equivalence
      point.

    All lookups preserve the first-match semantics of the linear scans
    they replace. [get] memoizes indexes by physical identity of the
    (immutable) map list, so repeated migrations and reshuffles of the
    same binary never rebuild. A lookup counter feeds the migration
    cost report. *)

type t

(** Build an index (unconditionally). Prefer {!get}. *)
val build : Stackmap.func_map list -> t

(** Memoized [build]: returns the cached index when [maps] was indexed
    before. Keyed by physical identity with a content-digest (hash of
    the serialized maps) fallback in a bounded MRU cache, so regenerated
    binaries with identical stack maps share one index while changed
    content can never alias a stale one. *)
val get : Stackmap.func_map list -> t

(** Digest of the serialized stack maps — the content half of {!get}'s
    cache key, exposed so output-level memoization (the rewrite-result
    cache) can key entries by binary content. Cheap when the maps were
    indexed before (shares the index cache's stored digest). *)
val content_digest : Stackmap.func_map list -> Digest.t

(** Indexed equivalents of the {!Stackmap} linear lookups. *)

val find_func : t -> string -> Stackmap.func_map option
val func_of_addr : t -> int64 -> Stackmap.func_map option
val eqpoint_by_id : t -> string -> int -> Stackmap.eqpoint option
val eqpoint_by_resume : t -> string -> int64 -> Stackmap.eqpoint option

(** Equivalence point whose [ep_addr] (trap or call instruction) equals
    the address. *)
val eqpoint_at_addr : t -> string -> int64 -> Stackmap.eqpoint option

(** First [Entry]-kind equivalence point of the function. *)
val entry_eqpoint : t -> string -> Stackmap.eqpoint option

(** Live value with the given key at [(function, ep_id)]. *)
val live_value : t -> string -> int -> Stackmap.lv_key -> Stackmap.live_value option

(** Live value with the given diagnostic name at [(function, ep_id)]. *)
val live_value_named : t -> string -> int -> string -> Stackmap.live_value option

(** {1 Observability}

    Process-global count of indexed lookups; the rewriter reports the
    delta over each run in [Rewrite.stats]. *)

val lookup_count : unit -> int
