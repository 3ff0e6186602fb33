(* fleet: a seeded job mix through Fleet_xl.run under each placement
   policy at 2000 nodes, then one Scheduler.run at the fig8 config. The
   event engine (Event_heap, Placement, Shard_queue, Rack) does the work
   and no interpreter runs, so this is the baseline for merging the
   fleet engines. *)

open Dapper_net
open Dapper_cluster
open Common

let nodes = 2000

(* Small enough that a round of three policies takes well under a second,
   so a measured window holds a dozen rounds or more. *)
let jobs = 40_000
let policies = Placement.[ First_fit; Energy_aware; Slo_aware ]

(* One job mix for the whole run, so every round repeats the same work;
   [times] holds each policy's Fleet_xl.run times and [events] its
   event count, the same in every round. *)
type t = {
  kinds : Scheduler.job_kind list;
  times : (string, (float * float) list) Hashtbl.t;
  events : (string, int) Hashtbl.t;
}

(* Four job kinds: 20-120 s on a Xeon core, 2.5-4x that on a Pi, and a
   0.3-1.5 s eviction. *)
let job_mix rng =
  List.init 4 (fun i ->
      let xeon = uniform rng 20_000.0 120_000.0 in
      { Scheduler.jk_name = Printf.sprintf "job%d" i;
        jk_xeon_ms = xeon;
        jk_rpi_ms = xeon *. uniform rng 2.5 4.0;
        jk_migration_ms = uniform rng 300.0 1500.0 })

(* The fig8-xl topology: 20% Jetson, 30% Pi 5, 50% Pi 4 boards. *)
let config policy =
  let jetson = nodes / 5 and rpi5 = nodes * 3 / 10 in
  { Fleet_xl.x_window_ms = 86_400_000.0;
    x_xeon_slots = 7 * nodes / 10;
    x_classes =
      [ { Fleet_xl.xc_node = Node.jetson; xc_nodes = jetson; xc_slots_per_node = 4 };
        { xc_node = Node.rpi5; xc_nodes = rpi5; xc_slots_per_node = 3 };
        { xc_node = Node.rpi; xc_nodes = nodes - jetson - rpi5; xc_slots_per_node = 3 } ];
    x_jobs = jobs;
    x_placement = policy;
    x_shards = 64;
    x_racks = nodes / 40;
    x_page_servers_each = 4;
    x_slo_factor = 2.5;
    x_fault = None;
    x_loss_every_ms = 0.0;
    x_rack_gate = None;
    x_rack_report = None }

let fig8 =
  { Scheduler.c_window_ms = Scheduler.default_window_ms; c_xeon_slots = 7; c_rpis = 3;
    c_rpi_slots_each = 3 }

(* One checked Fleet_xl.run. *)
let run_xl ?(jobs = jobs) kinds policy =
  let s =
    Span.record "fleet_xl.run" (fun () -> Fleet_xl.run { (config policy) with x_jobs = jobs } kinds)
  in
  add "fleet.events" (float_of_int s.Fleet_xl.x_events);
  add "fleet.steals" (float_of_int s.Fleet_xl.x_steals);
  add "fleet.migrations" (float_of_int s.Fleet_xl.x_migrations);
  push ("fleet.modeled_jobs_per_kj." ^ Placement.name policy) s.Fleet_xl.x_jobs_per_kj;
  outcome (s.Fleet_xl.x_jobs_done = jobs) "fleet: %s finished %d of %d jobs"
    (Placement.name policy) s.Fleet_xl.x_jobs_done jobs;
  s

(* The fleet has nothing to compile and no program to warm up. Its set-up
   is one first-fit run of 200k jobs on a job mix of its own, the engine's
   first and cold run, so setup_s on fleet times the event engine and not
   nothing; at 40k jobs that run took ~60 ms and its median moved by a
   third between sets of runs. *)
let prepare ~seed =
  ignore (run_xl ~jobs:200_000 (job_mix (rng ~seed "fleet.setup")) Placement.First_fit);
  { kinds = job_mix (rng ~seed "fleet"); times = Hashtbl.create 4; events = Hashtbl.create 4 }

(* A round: every policy once, then the fig8 scheduler. A policy's event
   count must not change from round to round. *)
let round st =
  List.iter
    (fun policy ->
      let name = Placement.name policy in
      let s = time_step st.times name (fun () -> run_xl st.kinds policy) in
      match Hashtbl.find_opt st.events name with
      | None -> Hashtbl.replace st.events name s.Fleet_xl.x_events
      | Some first ->
        outcome (s.Fleet_xl.x_events = first) "fleet: %s took %d events, %d in its first round"
          name s.Fleet_xl.x_events first)
    policies;
  let r = Span.record "scheduler.run" (fun () -> Scheduler.run fig8 st.kinds) in
  outcome (r.Scheduler.r_jobs_done > 0) "fleet: the fig8 scheduler finished no job"

(* Events of a round over the sum of each policy's run time. *)
let metrics st =
  let events = Hashtbl.fold (fun _ n acc -> acc + n) st.events 0 in
  [ ("fleet_events_per_s", float_of_int events /. sum_step_times st.times) ]
