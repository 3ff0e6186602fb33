(** A process-level fleet manager: the Fig. 8 experiment executed with
    {e real} simulated processes rather than analytic job costs.

    An infinite round-robin queue of compiled jobs is processed on a
    Xeon, optionally extended with Raspberry Pis. When every Xeon slot
    is busy, the queue backs up and a free Pi slot triggers eviction:
    the most recently started Xeon job is live-migrated onto the Pi by
    driving a {!Dapper.Session} through its five stages, and the freed
    Xeon slot takes the next queued job — the paper's
    "simple scheduler to evict tasks ... when the x86-64 server runs
    out of CPU resources".

    Time advances in fixed quanta; each busy slot interprets
    [quantum_ms x ops/ms] instructions of its job per quantum, so
    heterogenous speeds, migration overheads and energy all come from
    the same clock.

    The engine is event-driven: quantum boundaries, eviction attempts
    and per-slot advances are entries in a shared {!Event_heap} rather
    than per-quantum scans over every slot. Within a timestamp, event
    keys replay the old scan's phase order exactly (boundary
    bookkeeping, then evictions in Pi-slot order, then advances in
    global slot order), so results — including trace output — are
    identical to the former quantum-scan loop; only idle slots no
    longer cost work. *)

open Dapper_util
open Dapper_net
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
  f_transport : Transport.t;
      (** transport evictions migrate over (default: eager scp over
          infiniband); wrap with {!Transport.retrying} to survive an
          unreliable link *)
  f_fault : Fault.t option;
      (** chaos plane threaded into every eviction session; also drawn
          at {!Fault.Dest_node} before each eviction — a crash kills the
          destination node for the rest of the window *)
}

val default_config : config

(** The fixed quantum, 50 ms. Node speeds are divided by 4200, so the
    Xeon interprets 1000 instructions per simulated millisecond and
    downscaled jobs take realistic multiples of the quantum. *)
val quantum_ms : float

type stats = {
  f_jobs_done : int;
  f_jobs_done_rpi : int;
  f_evictions : int;
  f_eviction_failures : int;
      (** evictions lost to structural failures (or the job exiting
          during the pause); the job is not migrated *)
  f_eviction_retries : int;
      (** eviction attempts abandoned on a transient failure (e.g. drain
          budget exhausted, transfer timed out, destination node lost):
          the job resumes on its Xeon slot and the eviction is retried at
          a later quantum, possibly on a different node *)
  f_nodes_lost : int;
      (** destination nodes killed by the fault plane; a dead node's
          slots leave the eviction pool for the rest of the window *)
  f_recoveries : (string * int) list;
      (** recovery events per job name (sorted): every abandoned or
          failed eviction that rolled the job back to its source slot *)
  f_migration_ms_total : float;
  f_energy_kj : float;
  f_jobs_per_kj : float;
  f_events : int;
      (** heap events processed over the window — the engine's work, in
          place of the former [quanta x slots] scan cost *)
}

exception Fleet_error of string

(** Stall debt a victim slot still owes after an eviction attempt that
    charged it [charged_ms] failed: only the attempt's own tentative
    charge is given back; stall debt predating the attempt stands
    (never negative). A failed eviction that charged nothing leaves the
    ledger untouched. *)
val settle_failed_eviction : owed_ms:float -> charged_ms:float -> float

(** [run config jobs] processes the queue for the window. Each job run
    is a fresh process of the job's binary for the hosting node's
    architecture; evicted jobs continue from their live state. *)
val run : config -> Link.compiled list -> stats
