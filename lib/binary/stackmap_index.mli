(** Counted stack-map lookups.

    A rewrite reports how many stack-map lookups it made
    ([Rewrite.stats]'s [st_index_lookups], printed as "index lookups"
    by [Session.cost_report], rerand and perfbench). Its unwind and its
    frame placement look things up through a handle over one binary's
    map list, which answers each lookup with {!Stackmap}'s first-match
    scan and counts it. Each lookup counts one; a live value counts
    two, one for its function and one for the value.
    Callers whose count nobody reads call {!Stackmap} directly. *)

(** A lookup handle over one map list, with its own lookup count. *)
type t

(** A fresh handle over the maps, its count at 0. *)
val handle : Stackmap.func_map list -> t

(** Lookups made through this handle so far. *)
val lookups : t -> int

val find_func : t -> string -> Stackmap.func_map option
val func_of_addr : t -> int64 -> Stackmap.func_map option

(** Equivalence point of the named function, by id, by resume address
    or by trap/call address. *)
val eqpoint_by_id : t -> string -> int -> Stackmap.eqpoint option
val eqpoint_by_resume : t -> string -> int64 -> Stackmap.eqpoint option
val eqpoint_at_addr : t -> string -> int64 -> Stackmap.eqpoint option

(** Live value with the given key at [(function, ep_id)]. *)
val live_value : t -> string -> int -> Stackmap.lv_key -> Stackmap.live_value option
