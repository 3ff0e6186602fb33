(** Simulated machine nodes and their cost/power models.

    Calibrated against the paper's testbed: an Intel Xeon E5-2620 v4
    server (8 cores @ 2.1 GHz, 108 W observed at 7 busy threads) and
    Raspberry Pi 4 boards (4x Cortex-A72 @ 1.5 GHz, 5.1 W at 3 busy
    threads). Execution time converts simulator instruction counts to
    nanoseconds through [ops_per_ns]. *)

open Dapper_isa

type t = {
  n_name : string;
  n_arch : Arch.t;
  n_cores : int;
  n_ops_per_ns : float;      (** effective instructions per nanosecond per core *)
  n_mem_gbps : float;        (** effective checkpoint/restore memory bandwidth *)
  n_idle_w : float;
  n_core_w : float;          (** additional watts per busy core *)
}

val xeon : t
val rpi : t

(** Faster slow-tier classes for heterogeneous, datacenter-scale
    sweeps: a Raspberry Pi 5 (~1.5x the Pi 4's speed at a slightly
    worse watts-per-speed) and a Jetson-class board (fastest of the
    three, least efficient per unit of work). *)
val rpi5 : t

val jetson : t

(** Nanoseconds to execute [instrs] simulator instructions on one core. *)
val exec_ns : t -> int64 -> float
