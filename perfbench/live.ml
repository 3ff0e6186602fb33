(* live-traffic: Loadgen.run over redis, a seeded MMPP open loop on the
   simulated clock, once per copy mechanism per round. Every request is
   charged from its arrival, so a stall counts against the requests that
   queue behind it. The load plane (Arrival, Sketch, Loadgen) does most
   of the work, and pre-copy and post-copy run here, not in pingpong. *)

open Dapper_util
open Dapper_machine
open Dapper_net
open Dapper_workloads
open Dapper
open Common
module Tr = Dapper_traffic

(* The fig7-live set-up: 4 lanes at 15% utilisation, 0.25 req/s per
   client, a 20k-instruction floor per request; 500k requests rather than
   1M, so a measured window holds several rounds. *)
let lanes = 4
let util = 0.15
let client_rps = 0.25
let floor_instrs = 20_000.0
let requests = 500_000
let ops = 6000

let mechanisms = Tr.Budget.[ Vanilla; Precopy; Postcopy; Hybrid ]

(* One load seed and migration point for the whole run, so every round
   repeats the same work; [times] holds each mechanism's Loadgen.run
   times and [first] its first round's stats. *)
type t = {
  compiled : Link.compiled;
  total : int64;
  load_seed : int64;
  frac : float;
  times : (string, (float * float) list) Hashtbl.t;
  first : (string, Tr.Loadgen.stats) Hashtbl.t;
}

let prepare ~seed =
  let compiled =
    Span.record "link.compile" (fun () ->
        Link.compile ~app:"redis-live" (Servers.redis ~keys:4096 ~ops ()))
  in
  let p = Process.load compiled.Link.cp_x86 in
  match interp p (fun () -> Process.run_to_completion p ~fuel) with
  | Process.Exited_run _ ->
    note_decode_cache p;
    let rng = rng ~seed "live-traffic" in
    let load_seed = Rng.next rng in
    { compiled; total = p.Process.total_instrs; load_seed; frac = uniform rng 0.1 0.3;
      times = Hashtbl.create 4; first = Hashtbl.create 4 }
  | _ -> failwith "redis-live: native run did not exit"

(* One Loadgen.run: a fresh copy warmed to [st.frac] of its native
   length, migrated x86-64 -> aarch64 under load. Only Loadgen.run is
   timed. *)
let run_one st mech =
  let c = st.compiled in
  let p = Process.load c.Link.cp_x86 in
  let point = int_of_float (st.frac *. Int64.to_float st.total) in
  (match interp p (fun () -> Process.run p ~max_instrs:point) with
   | Process.Progress -> note_decode_cache p
   | _ -> failwith "redis-live: ended before its migration point");
  let instrs_per_req = Float.max (Int64.to_float st.total /. float_of_int ops) floor_instrs in
  let s_src = Tr.Loadgen.service_ms ~node:Node.xeon ~instrs_per_req in
  let s_dst = Tr.Loadgen.service_ms ~node:Node.rpi ~instrs_per_req in
  let rate = util *. float_of_int lanes /. s_src in
  let lg =
    { Tr.Loadgen.lg_seed = st.load_seed;
      lg_requests = requests;
      lg_clients = int_of_float (Float.ceil (rate *. 1000.0 /. client_rps));
      lg_client_rps = client_rps;
      lg_mmpp = Some [| (0.8, 120.0); (1.6, 40.0) |];
      lg_lanes = lanes;
      lg_service_src_ms = s_src;
      lg_service_dst_ms = s_dst;
      lg_migrate_at_ms = 0.25 *. float_of_int requests /. rate;
      lg_max_rounds = 5;
      lg_downtime_budget_ms = 25.0;
      lg_round_instrs = 200_000;
      lg_racks = Some (Rack.create ~racks:4 ~servers_each:2);
      lg_rack = 0 }
  in
  let scfg =
    { (Session.default_config ~src_bin:c.Link.cp_x86 ~dst_bin:c.Link.cp_arm) with
      Session.cfg_bytes_scale = bytes_scale }
  in
  time_step st.times (Tr.Budget.mechanism_name mech) (fun () ->
      Span.record "loadgen.run" (fun () -> Tr.Loadgen.run lg scfg p mech))

let mig_p99 (st : Tr.Loadgen.stats) =
  if Tr.Sketch.count st.Tr.Loadgen.ls_during = 0 then 0.0
  else Tr.Sketch.quantile st.Tr.Loadgen.ls_during 0.99

(* A round: every mechanism once on the run's load and migration point.
   Each round after the first must reproduce the first round's
   fingerprint line of every mechanism. *)
let round st =
  List.iter
    (fun mech ->
      let name = Tr.Budget.mechanism_name mech in
      match run_one st mech with
      | Error e -> outcome false "live-traffic: %s: %s" name (Dapper_error.to_string e)
      | Ok ls ->
        add "loadgen.requests" (float_of_int ls.Tr.Loadgen.ls_requests);
        add "loadgen.stalled" (float_of_int ls.Tr.Loadgen.ls_stalled);
        add "loadgen.faulted" (float_of_int ls.Tr.Loadgen.ls_faulted);
        push ("loadgen.modeled_mig_p99_ms." ^ name) (mig_p99 ls);
        (match Hashtbl.find_opt st.first name with
         | None ->
           outcome true "";
           Hashtbl.replace st.first name ls
         | Some first ->
           outcome
             (Tr.Loadgen.fingerprint_line ls = Tr.Loadgen.fingerprint_line first)
             "live-traffic: %s rerun on the same seed changed its fingerprint" name))
    mechanisms

(* Requests of a round over the sum of each mechanism's run time.
   Hybrid's modeled mig-p99 must stay below vanilla's. *)
let metrics st =
  (match (Hashtbl.find_opt st.first "hybrid", Hashtbl.find_opt st.first "vanilla") with
   | Some h, Some v ->
     outcome (mig_p99 h < mig_p99 v) "live-traffic: hybrid mig p99 %.1f ms not below vanilla %.1f ms"
       (mig_p99 h) (mig_p99 v)
   | _ -> ());
  let requests = Hashtbl.fold (fun _ ls acc -> acc + ls.Tr.Loadgen.ls_requests) st.first 0 in
  [ ("requests_per_s", float_of_int requests /. sum_step_times st.times) ]
