(** Datacenter-scale fleet engine: the Fig. 8 eviction scheduler at
    10,000 nodes and a million jobs.

    Where {!Fleet} drives real simulated processes through full
    migration sessions, [Fleet_xl] uses the analytic job costs of
    {!Scheduler} — but keeps the fleet mechanics that matter at scale:

    - a heterogeneous slow tier of node {e classes} (e.g. Pi 4 / Pi 5 /
      Jetson), each with its own speed and power model;
    - destination selection by a pluggable {!Placement} policy, with
      per-job SLO deadlines ([x_slo_factor] x the job's fast-tier
      runtime, measured from dispatch to completion). Policies also
      gate {e admission}: slo-aware defers a job no free destination
      can serve on deadline, and energy-aware refuses boards far off
      the fleet's best watts-per-speed — deferred jobs stay queued and
      are reconsidered after every event;
    - migration transfers queued behind per-rack page-server pools
      ({!Dapper_net.Rack}), so transfer capacity — not CPU — saturates
      first;
    - a sharded job queue with deterministic work-stealing
      ({!Dapper_net.Shard_queue});
    - chaos node loss as periodic heap events: a crash kills a slow
      node, voids its in-flight jobs' completions (generation
      counters), and re-enqueues those jobs.

    The engine is pure discrete-event simulation on {!Event_heap}: cost
    is proportional to events (dispatches, completions, loss draws),
    not to [nodes x quanta], which is what makes the 10k-node / 1M-job
    sweep run in seconds. Every decision breaks ties deterministically,
    so runs replay identically. *)

open Dapper_util
open Dapper_net

(** One slow-tier node class: [xc_nodes] machines of [xc_node], each
    hosting [xc_slots_per_node] job slots. *)
type class_cfg = {
  xc_node : Node.t;
  xc_nodes : int;
  xc_slots_per_node : int;
}

type config = {
  x_window_ms : float;
  x_xeon_slots : int;        (** fast-tier slots (xeon, never killed) *)
  x_classes : class_cfg list;
  x_jobs : int;              (** finite batch, all queued at time 0 *)
  x_placement : Placement.t;
  x_shards : int;            (** job-queue shards *)
  x_racks : int;
  x_page_servers_each : int;
  x_slo_factor : float;
      (** per-job deadline = factor x the job's fast-tier runtime *)
  x_fault : Fault.t option;
  x_loss_every_ms : float;   (** period of chaos node-loss draws *)
  x_rack_gate : (rack:int -> now_ms:float -> bool) option;
      (** health admission per rack: [false] removes the rack's free
          slots from the candidate set, shedding its load to the other
          racks. Unwired: every caller passes [None] (every rack
          admitted). *)
  x_rack_report : (rack:int -> now_ms:float -> ok:bool -> unit) option;
      (** outcome feedback per rack: [ok:false] when a node on the rack
          is killed by the chaos plane, [ok:true] when a slow-tier job
          completes there. Unwired, like [x_rack_gate]. *)
}

type stats = {
  x_jobs_done : int;
  x_jobs_fast : int;
  x_jobs_slow : int;
  x_jobs_lost_in_flight : int;
      (** jobs voided by a node death and re-enqueued *)
  x_nodes_lost : int;
  x_migrations : int;
  x_migration_ms_total : float;
  x_rack_queue_ms : float;
      (** total time migrations queued behind busy page servers *)
  x_steals : int;            (** queue pops served by a shard steal *)
  x_slo_met : int;
  x_slo_missed : int;
  x_energy_kj : float;
      (** the fast tier is charged in full (idle + active); a slow
          board that served no job over the run counts as power-gated
          and draws nothing — how destination policies save energy *)
  x_jobs_per_kj : float;
  x_throughput_per_min : float;
  x_makespan_ms : float;     (** completion time of the last counted job *)
  x_nodes_powered : int;     (** slow boards that served at least one job *)
  x_events : int;            (** heap events processed *)
  x_events_per_sim_s : float;
}

(** [run config kinds] drains the batch (kinds cycled over [x_jobs]
    jobs) through the fleet. Raises [Invalid_argument] on an empty kind
    list or non-positive job count. *)
val run : config -> Scheduler.job_kind list -> stats
