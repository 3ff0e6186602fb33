(** Heterogeneous batch-processing simulation (paper Fig. 8).

    An infinite queue of HPC jobs is processed for a fixed window on a
    Xeon server, optionally extended with Raspberry Pi boards: when the
    server has more jobs than cores, Dapper evicts jobs to the Pis (each
    eviction pays the measured migration overhead). A discrete-event
    simulation tracks completions and integrates the power model over
    busy time, yielding jobs/kJ and throughput. *)


type job_kind = {
  jk_name : string;
  jk_xeon_ms : float;        (** execution time on a Xeon core *)
  jk_rpi_ms : float;         (** execution time on a Pi core *)
  jk_migration_ms : float;   (** one-time Dapper eviction cost *)
}

type config = {
  c_window_ms : float;       (** paper: 30 minutes *)
  c_xeon_slots : int;        (** paper: 7 job threads on the 8-core Xeon *)
  c_rpis : int;              (** 0, 1 or 3 boards *)
  c_rpi_slots_each : int;    (** paper: 3 job threads per Pi *)
}

type result = {
  r_jobs_done : int;
  r_jobs_xeon : int;
  r_jobs_rpi : int;
  r_energy_kj : float;
  r_jobs_per_kj : float;
  r_throughput_per_min : float;
}

(** Build a job kind whose one-time eviction cost is the total of a
    migration session's per-stage records — the analytic scheduler's
    migration costs come from real sessions, not hand-entered numbers. *)
val job_kind_of_session :
  name:string -> xeon_ms:float -> rpi_ms:float ->
  times:Dapper.Session.phase_times -> job_kind

(** [run config kinds] processes a round-robin queue of [kinds]. *)
val run : config -> job_kind list -> result

(** Relative improvement of [subject] over [baseline] in percent. *)
val efficiency_gain_pct : baseline:result -> subject:result -> float
val throughput_gain_pct : baseline:result -> subject:result -> float

val default_window_ms : float
