open Dapper_cluster

let check = Alcotest.check

let kinds =
  [ { Scheduler.jk_name = "cg"; jk_xeon_ms = 9000.0; jk_rpi_ms = 25000.0; jk_migration_ms = 1500.0 };
    { Scheduler.jk_name = "mg"; jk_xeon_ms = 12000.0; jk_rpi_ms = 33000.0; jk_migration_ms = 1800.0 };
    { Scheduler.jk_name = "ep"; jk_xeon_ms = 7000.0; jk_rpi_ms = 20000.0; jk_migration_ms = 1200.0 };
    { Scheduler.jk_name = "ft"; jk_xeon_ms = 5000.0; jk_rpi_ms = 14000.0; jk_migration_ms = 1100.0 } ]

let base_config =
  { Scheduler.c_window_ms = Scheduler.default_window_ms; c_xeon_slots = 7; c_rpis = 0;
    c_rpi_slots_each = 3 }

let test_baseline_sane () =
  let r = Scheduler.run base_config kinds in
  check Alcotest.bool "jobs done" true (r.r_jobs_done > 0);
  check Alcotest.bool "all on xeon" true (r.r_jobs_rpi = 0 && r.r_jobs_xeon = r.r_jobs_done);
  check Alcotest.bool "energy positive" true (r.r_energy_kj > 0.0)

let test_pis_improve_efficiency_and_throughput () =
  let base = Scheduler.run base_config kinds in
  let one = Scheduler.run { base_config with c_rpis = 1 } kinds in
  let three = Scheduler.run { base_config with c_rpis = 3 } kinds in
  check Alcotest.bool "1 pi adds jobs" true (one.r_jobs_done > base.r_jobs_done);
  check Alcotest.bool "3 pis add more jobs" true (three.r_jobs_done > one.r_jobs_done);
  check Alcotest.bool "1 pi improves jobs/kJ" true
    (Scheduler.efficiency_gain_pct ~baseline:base ~subject:one > 0.0);
  check Alcotest.bool "3 pis improve jobs/kJ" true
    (Scheduler.efficiency_gain_pct ~baseline:base ~subject:three > 0.0);
  (* paper's bands: efficiency +15-39%, throughput +37-52% for 3 Pis;
     allow slack around them *)
  let eff3 = Scheduler.efficiency_gain_pct ~baseline:base ~subject:three in
  let thr3 = Scheduler.throughput_gain_pct ~baseline:base ~subject:three in
  check Alcotest.bool (Printf.sprintf "eff3 %.1f%% plausible" eff3) true
    (eff3 > 5.0 && eff3 < 80.0);
  check Alcotest.bool (Printf.sprintf "thr3 %.1f%% plausible" thr3) true
    (thr3 > 15.0 && thr3 < 90.0)

let test_migration_overhead_hurts () =
  let cheap = Scheduler.run { base_config with c_rpis = 1 } kinds in
  let pricey =
    Scheduler.run { base_config with c_rpis = 1 }
      (List.map (fun k -> { k with Scheduler.jk_migration_ms = 20_000.0 }) kinds)
  in
  check Alcotest.bool "higher migration cost, fewer jobs" true
    (pricey.r_jobs_done < cheap.r_jobs_done)

let test_window_scaling () =
  let short = Scheduler.run { base_config with c_window_ms = 60_000.0 } kinds in
  let long = Scheduler.run base_config kinds in
  check Alcotest.bool "longer window, more jobs" true (long.r_jobs_done > short.r_jobs_done)

(* ----- the process-level fleet (real jobs, real migrations) ----- *)

let fleet_config =
  { Fleet.default_config with
    f_window_ms = 14_000.0; f_xeon_slots = 3; f_rpis = 1; f_rpi_slots_each = 2 }

let fleet_jobs () = [ Registry_helpers.compute () ]

(* [Fleet.run] is deterministic and its stats are immutable, so the two
   fleets several tests read are each run once, by whichever test comes
   first; the value does not depend on which one that is. *)
let evicting = lazy (Fleet.run fleet_config (fleet_jobs ()))
let eviction_off = lazy (Fleet.run { fleet_config with f_evict = false } (fleet_jobs ()))

let test_fleet_eviction_happens () =
  let st = Lazy.force evicting in
  check Alcotest.bool "jobs completed" true (st.f_jobs_done > 0);
  check Alcotest.bool "evictions happened" true (st.f_evictions > 0);
  check Alcotest.bool "some jobs finished on the rpi" true (st.f_jobs_done_rpi > 0);
  check Alcotest.bool "migration time accounted" true (st.f_migration_ms_total > 0.0)

let test_fleet_eviction_beats_baseline () =
  let with_evict = Lazy.force evicting in
  let without = Lazy.force eviction_off in
  check Alcotest.bool "throughput improves" true
    (with_evict.f_jobs_done > without.f_jobs_done);
  check Alcotest.bool "efficiency improves" true
    (with_evict.f_jobs_per_kj > without.f_jobs_per_kj)

let test_fleet_edge_configs () =
  (* no Pis and eviction disabled must behave like the xeon-only baseline *)
  let jobs = fleet_jobs () in
  let no_pis = Fleet.run { fleet_config with f_rpis = 0 } jobs in
  check Alcotest.int "no pis, no evictions" 0 no_pis.f_evictions;
  check Alcotest.int "no pis, nothing on rpi" 0 no_pis.f_jobs_done_rpi;
  let no_evict = Lazy.force eviction_off in
  check Alcotest.int "eviction off" 0 no_evict.f_evictions;
  check Alcotest.bool "pis idle but drawing idle power" true
    (no_evict.f_energy_kj > no_pis.f_energy_kj);
  check Alcotest.bool "empty job list rejected" true
    (match Fleet.run fleet_config [] with
     | exception Fleet.Fleet_error _ -> true
     | _ -> false)

let test_fleet_eviction_retries () =
  (* Jobs whose main is one long call-free loop can only be paused at
     the entry checker: evictions attempted mid-loop exhaust the drain
     budget. Such a failure must not lose the job — it keeps running on
     its Xeon slot and the eviction is retried at a later quantum — and
     must be counted as a retry, not a lost eviction. *)
  let callfree =
    let open Dapper_clite.Cl in
    let m = create "callfree" in
    Dapper_clite.Cstd.add m;
    func m "main" [] (fun b ->
        decl b "acc" (i 0);
        for_ b "k" (i 0) (i 30_000) (fun b ->
            set b "acc" (add (v "acc") (band (v "k") (i 7))));
        ret b (rem_ (v "acc") (i 97)));
    Dapper_codegen.Link.compile ~app:"callfree" (finish m)
  in
  let st =
    Fleet.run { fleet_config with Fleet.f_pause_budget = 50_000 } [ callfree ]
  in
  check Alcotest.bool "transient pause failures counted as retries" true
    (st.Fleet.f_eviction_retries > 0);
  check Alcotest.bool "retried jobs are not lost" true (st.Fleet.f_jobs_done > 0);
  let recovered = List.fold_left (fun a (_, n) -> a + n) 0 st.Fleet.f_recoveries in
  check Alcotest.int "recoveries = retries + structural failures"
    (st.Fleet.f_eviction_retries + st.Fleet.f_eviction_failures)
    recovered;
  (* with a generous budget the same fleet never needs to retry *)
  let easy = Lazy.force evicting in
  check Alcotest.int "pausable jobs never retry" 0 easy.Fleet.f_eviction_retries

(* ----- equivalence gate: the engines reproduce the seed -----

   These fingerprints were captured from the seed implementation
   (commit ef5e10d) with the exact fixtures above; every rewrite of the
   engines since must reproduce them. Every figure-relevant field is
   pinned at full float precision: a one-ulp drift or a reordered
   eviction fails the gate. *)

let sched_fp r =
  Printf.sprintf "jobs=%d xeon=%d rpi=%d energy=%.6f jpk=%.6f thr=%.6f"
    r.Scheduler.r_jobs_done r.r_jobs_xeon r.r_jobs_rpi r.r_energy_kj
    r.r_jobs_per_kj r.r_throughput_per_min

let fleet_fp st =
  Printf.sprintf
    "jobs=%d rpi=%d ev=%d evf=%d evr=%d mig=%.6f energy=%.6f jpk=%.6f recov=[%s]"
    st.Fleet.f_jobs_done st.f_jobs_done_rpi st.f_evictions
    st.f_eviction_failures st.f_eviction_retries
    st.f_migration_ms_total st.f_energy_kj st.f_jobs_per_kj
    (String.concat ";"
       (List.map (fun (a, n) -> Printf.sprintf "%s,%d" a n) st.f_recoveries))

let test_scheduler_matches_seed () =
  List.iter
    (fun (rpis, golden) ->
      check Alcotest.string
        (Printf.sprintf "scheduler seed fingerprint, %d rpis" rpis)
        golden
        (sched_fp (Scheduler.run { base_config with c_rpis = rpis } kinds)))
    [ (0, "jobs=1523 xeon=1523 rpi=0 energy=194.400000 jpk=7.834362 thr=50.766667");
      (1, "jobs=1741 xeon=1487 rpi=254 energy=203.580000 jpk=8.551921 thr=58.033333");
      (3, "jobs=2183 xeon=1529 rpi=654 energy=221.940000 jpk=9.835992 thr=72.766667") ]

let test_fleet_matches_seed () =
  check Alcotest.string "fleet seed fingerprint, evicting"
    "jobs=27 rpi=7 ev=9 evf=0 evr=0 mig=251.383580 energy=0.869400 jpk=31.055901 recov=[]"
    (fleet_fp (Lazy.force evicting));
  check Alcotest.string "fleet seed fingerprint, eviction off"
    "jobs=21 rpi=0 ev=0 evf=0 evr=0 mig=0.000000 energy=0.841400 jpk=24.958403 recov=[]"
    (fleet_fp (Lazy.force eviction_off))

(* ----- placement policies ----- *)

let dests =
  [ { Placement.dc_index = 0; dc_lowest_slot = 10; dc_ops_per_ns = 3.0;
      dc_core_w = 2.8; dc_est_ms = 140.0 };
    { Placement.dc_index = 1; dc_lowest_slot = 20; dc_ops_per_ns = 2.2;
      dc_core_w = 1.6; dc_est_ms = 190.0 };
    { Placement.dc_index = 2; dc_lowest_slot = 30; dc_ops_per_ns = 1.5;
      dc_core_w = 1.0; dc_est_ms = 280.0 } ]

let test_placement_dests () =
  let pick ?deadline_ms p =
    Option.get (Placement.choose_dest p ?deadline_ms dests)
  in
  check Alcotest.int "first-fit packs the lowest slot" 0
    (pick Placement.First_fit).Placement.dc_index;
  check Alcotest.int "energy-aware: best watts-per-speed" 2
    (pick Placement.Energy_aware).Placement.dc_index;
  check Alcotest.int "slo-aware: cheapest meeting the deadline" 1
    (pick ~deadline_ms:200.0 Placement.Slo_aware).Placement.dc_index;
  check Alcotest.int "slo-aware: loose deadline, cheapest overall" 2
    (pick ~deadline_ms:1000.0 Placement.Slo_aware).Placement.dc_index;
  check Alcotest.int "slo-aware: hopeless deadline, fastest" 0
    (pick ~deadline_ms:10.0 Placement.Slo_aware).Placement.dc_index

(* ----- the datacenter-scale engine ----- *)

let xl_config ~policy =
  { Fleet_xl.x_window_ms = 86_400_000.0;
    x_xeon_slots = 7;
    x_classes =
      [ { Fleet_xl.xc_node = Dapper_net.Node.jetson; xc_nodes = 2; xc_slots_per_node = 4 };
        { xc_node = Dapper_net.Node.rpi5; xc_nodes = 3; xc_slots_per_node = 3 };
        { xc_node = Dapper_net.Node.rpi; xc_nodes = 5; xc_slots_per_node = 3 } ];
    x_jobs = 1_000;
    x_placement = policy;
    x_shards = 4;
    x_racks = 2;
    x_page_servers_each = 4;
    x_slo_factor = 2.5;
    x_fault = None;
    x_loss_every_ms = 0.0;
    x_rack_gate = None;
    x_rack_report = None }

let test_xl_deterministic () =
  let a = Fleet_xl.run (xl_config ~policy:Placement.First_fit) kinds in
  let b = Fleet_xl.run (xl_config ~policy:Placement.First_fit) kinds in
  check Alcotest.bool "identical runs" true (a = b);
  check Alcotest.int "batch drains" 1_000 a.Fleet_xl.x_jobs_done;
  check Alcotest.bool "slow tier used" true (a.Fleet_xl.x_jobs_slow > 0);
  check Alcotest.bool "migrations queued behind page servers" true
    (a.Fleet_xl.x_rack_queue_ms > 0.0);
  check Alcotest.bool "events accounted" true
    (a.Fleet_xl.x_events >= a.Fleet_xl.x_jobs_done)

let test_xl_policies_diverge () =
  let ff = Fleet_xl.run (xl_config ~policy:Placement.First_fit) kinds in
  let ea = Fleet_xl.run (xl_config ~policy:Placement.Energy_aware) kinds in
  let slo = Fleet_xl.run (xl_config ~policy:Placement.Slo_aware) kinds in
  check Alcotest.int "slo-aware misses no deadline" 0 slo.Fleet_xl.x_slo_missed;
  check Alcotest.bool "first-fit misses deadlines on the slow boards" true
    (ff.Fleet_xl.x_slo_missed > 0);
  check Alcotest.bool "energy-aware powers fewer boards" true
    (ea.Fleet_xl.x_nodes_powered < ff.Fleet_xl.x_nodes_powered);
  check Alcotest.bool "first-fit finishes first" true
    (ff.Fleet_xl.x_makespan_ms <= ea.Fleet_xl.x_makespan_ms);
  check Alcotest.bool "all policies drain the batch" true
    (ff.Fleet_xl.x_jobs_done = 1_000 && ea.x_jobs_done = 1_000 && slo.x_jobs_done = 1_000)

(* Chaos at scale: node-loss draws are heap events. A certain-kill
   fault plane fells one slow node per draw; in-flight jobs on the dead
   node are voided by their generation counter, re-enqueued, and still
   finish — the batch never loses a job. *)
let test_xl_node_loss_events () =
  let st =
    Fleet_xl.run
      { (xl_config ~policy:Placement.First_fit) with
        Fleet_xl.x_fault =
          Some
            (Dapper_util.Fault.make ~seed:5
               { Dapper_util.Fault.calm with Dapper_util.Fault.fs_kill_node = 1.0 });
        x_loss_every_ms = 30_000.0 }
      kinds
  in
  check Alcotest.bool "nodes die" true (st.Fleet_xl.x_nodes_lost > 0);
  check Alcotest.bool "in-flight jobs voided and re-enqueued" true
    (st.Fleet_xl.x_jobs_lost_in_flight > 0);
  check Alcotest.int "no job is ever lost" 1_000 st.Fleet_xl.x_jobs_done;
  check Alcotest.bool "at most the whole slow tier dies" true
    (st.Fleet_xl.x_nodes_lost <= 10)

let suites =
  [ ( "cluster",
      [ Alcotest.test_case "baseline sane" `Quick test_baseline_sane;
        Alcotest.test_case "pis improve" `Quick test_pis_improve_efficiency_and_throughput;
        Alcotest.test_case "migration overhead" `Quick test_migration_overhead_hurts;
        Alcotest.test_case "window scaling" `Quick test_window_scaling;
        Alcotest.test_case "fleet: real evictions" `Slow test_fleet_eviction_happens;
        Alcotest.test_case "fleet: eviction beats baseline" `Slow
          test_fleet_eviction_beats_baseline;
        Alcotest.test_case "fleet: edge configurations" `Quick test_fleet_edge_configs;
        Alcotest.test_case "fleet: transient eviction failures retried" `Slow
          test_fleet_eviction_retries;
        Alcotest.test_case "equivalence gate: scheduler matches seed" `Quick
          test_scheduler_matches_seed;
        Alcotest.test_case "equivalence gate: fleet matches seed" `Slow
          test_fleet_matches_seed;
        Alcotest.test_case "placement: destination selection" `Quick
          test_placement_dests;
        Alcotest.test_case "xl: deterministic drain" `Quick test_xl_deterministic;
        Alcotest.test_case "xl: policies diverge" `Quick test_xl_policies_diverge;
        Alcotest.test_case "xl: node loss as heap events" `Quick
          test_xl_node_loss_events ] ) ]
