(** Pluggable destination policies for eviction scheduling: which
    slow-tier node class hosts an evicted job ({!choose_dest}, used by
    the datacenter-scale {!Fleet_xl}, whose slow tier is
    heterogeneous).

    Every choice is deterministic: candidates are presented in class
    order and every rule breaks ties on the earliest candidate, so two
    runs of the same configuration place identically. *)

type t =
  | First_fit
      (** pack onto the lowest-numbered free slot (bin-packing) *)
  | Energy_aware  (** lowest active watts per unit of speed *)
  | Slo_aware
      (** cheapest destination whose estimated completion meets the
          job's deadline, else the fastest *)

val name : t -> string

(** A destination candidate: a slow-tier node class with at least one
    free slot. [dc_lowest_slot] is the smallest free slot id in the
    class (global bin-packing order); [dc_est_ms] the estimated
    wait + migration + execution time of the job being placed there. *)
type dest = {
  dc_index : int;
  dc_lowest_slot : int;
  dc_ops_per_ns : float;
  dc_core_w : float;
  dc_est_ms : float;
}

(** Active watts divided by speed: joules charged per unit of work —
    the quantity energy-aware placement minimizes. *)
val watts_per_speed : dest -> float

(** The chosen destination, or [None] when there are no candidates.
    [deadline_ms] only affects [Slo_aware]: prefer the cheapest
    candidate with [dc_est_ms <= deadline_ms], falling back to the
    fastest when none meets it. *)
val choose_dest : t -> ?deadline_ms:float -> dest list -> dest option
