(** Hash- and binary-search indexes over a binary's stack maps.

    The unwinder, monitor, rewriter, DSU checker and exploit harness all
    resolve functions, equivalence points and live values; with plain
    {!Stackmap} every resolution is a linear list scan, which dominates
    the recode hot path (O(frames x functions x live values) per
    migration). {!build} makes a set of O(1)/O(log n) indexes, once per
    binary ([Binary]'s constructor calls it):

    - functions by name (hashtable) and by address range (sorted array,
      binary search);
    - equivalence points by id, by resume address and by trap/call
      address (hashtables per function);
    - live values by [lv_key] and by diagnostic name per equivalence
      point.

    All lookups preserve the first-match semantics of the linear scans
    they replace. The tables are never written after {!build}, so every
    user of a binary, on any domain, shares them. Lookups go through a
    handle ({!t}) that counts the lookups made through it. *)

(** The indexes of one map list. *)
type tables

val build : Stackmap.func_map list -> tables

(** A lookup handle over some tables, with its own lookup count. *)
type t

(** A fresh handle over [tables], its count at 0. *)
val handle : tables -> t

(** Lookups made through this handle so far. *)
val lookups : t -> int

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
