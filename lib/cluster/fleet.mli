(** A process-level fleet manager: the Fig. 8 experiment executed with
    {e real} simulated processes rather than analytic job costs.

    An infinite round-robin queue of compiled jobs is processed on a
    Xeon, optionally extended with Raspberry Pis. When every Xeon slot
    is busy, the queue backs up and a free Pi slot triggers eviction:
    the most recently started Xeon job is live-migrated onto the Pi by
    driving a {!Dapper.Session} through its stages, and the freed Xeon
    slot takes the next queued job — the paper's "simple scheduler to
    evict tasks ... when the x86-64 server runs out of CPU resources".

    Time advances in fixed 50 ms quanta. Each quantum refills idle Xeon
    slots, tries one eviction per free Pi slot in slot order, then
    advances every busy slot in slot order: a slot interprets
    [quantum x ops/ms] instructions of its job, so heterogeneous speeds,
    migration overheads and energy all come from the same clock. Node
    speeds are divided by 4200, so the Xeon interprets 1000
    instructions per simulated millisecond and downscaled jobs take
    realistic multiples of the quantum. *)

open Dapper_codegen

type config = {
  f_window_ms : float;
  f_xeon_slots : int;
  f_rpis : int;
  f_rpi_slots_each : int;
  f_evict : bool;          (** false: Pis stay idle (baseline) *)
  f_bytes_scale : float;
  f_pause_budget : int;
      (** drain budget for eviction pauses; a budget too small to
          quiesce a job makes the eviction retry at a later quantum *)
}

(** Evictions migrate over {!Dapper.Session.default_config}'s transport
    (eager scp over infiniband) with no fault plane. *)
val default_config : config

type stats = {
  f_jobs_done : int;
  f_jobs_done_rpi : int;
  f_evictions : int;
  f_eviction_failures : int;
      (** evictions lost to structural failures (or the job exiting
          during the pause); the job is not migrated *)
  f_eviction_retries : int;
      (** eviction attempts abandoned on a transient failure (e.g. drain
          budget exhausted): the job resumes on its Xeon slot and the
          eviction is retried at a later quantum *)
  f_recoveries : (string * int) list;
      (** recovery events per job name (sorted): every abandoned or
          failed eviction that rolled the job back to its source slot *)
  f_migration_ms_total : float;
  f_energy_kj : float;
  f_jobs_per_kj : float;
}

exception Fleet_error of string

(** [run config jobs] processes the queue for the window. Each job run
    is a fresh process of the job's binary for the hosting node's
    architecture; evicted jobs continue from their live state. *)
val run : config -> Link.compiled list -> stats
