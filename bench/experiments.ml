(* The paper's evaluation, experiment by experiment. Each function prints
   the corresponding figure's rows; see EXPERIMENTS.md for the mapping
   and calibration notes. *)

open Dapper_isa
open Dapper_util
open Dapper_machine
open Dapper_net
open Dapper_workloads
open Dapper
open Dapper_security
open Dapper_cluster
module Link = Dapper_codegen.Link

let fuel = 400_000_000

(* Simulated working sets are downscaled relative to the paper's class
   A/B footprints; this factor restores paper-magnitude byte counts for
   the network/memory cost models (see EXPERIMENTS.md, Calibration). *)
let bytes_scale = 1500.0

(* Likewise, the PARSEC/NPB inputs are downscaled so native runs finish in
   simulator-friendly instruction counts; Fig. 6 and Fig. 8 scale
   execution times back to full-size inputs. *)
let exec_scale = 100_000.0

let node_of = function Arch.X86_64 -> Node.xeon | Arch.Aarch64 -> Node.rpi

let native_instrs c arch =
  let p = Process.load (Link.binary_for c arch) in
  match Process.run_to_completion p ~fuel with
  | Process.Exited_run _ -> p.Process.total_instrs
  | _ -> failwith (c.Link.cp_app ^ ": native run failed")

let exec_ms arch instrs = Node.exec_ns (node_of arch) instrs /. 1e6

let exec_ms_scaled arch instrs = exec_ms arch instrs *. exec_scale

(* Run [frac] of the program on x86, migrate, return migration result. *)
let migrate_at ?lazy_pages ?pipeline ?recode_workers ?memo c ~total_instrs ~frac =
  let p = Process.load c.Link.cp_x86 in
  let warm = max 10_000 (int_of_float (Int64.to_float total_instrs *. frac)) in
  (match Process.run p ~max_instrs:warm with
   | Process.Progress -> ()
   | _ -> failwith (c.Link.cp_app ^ ": finished before migration point"));
  match
    Session.migrate ?lazy_pages ?pipeline ?recode_workers ?memo ~bytes_scale
      ~src_node:Node.xeon ~dst_node:Node.rpi ~src_bin:c.Link.cp_x86
      ~dst_bin:c.Link.cp_arm p
  with
  | Ok r -> (p, r)
  | Error e -> failwith (c.Link.cp_app ^ ": " ^ Dapper_error.to_string e)

(* ----- Fig. 5: cross-ISA transformation cost breakdown ----- *)

let fig5_benchmarks =
  [ "npb-ep.A"; "npb-cg.A"; "npb-mg.A"; "npb-ft.A"; "npb-is.A"; "linpack";
    "dhrystone"; "kmeans"; "redis" ]

let fig5 () =
  let measured =
    List.map
      (fun name ->
        let c = Registry.compiled (Registry.find name) in
        let total = native_instrs c Arch.X86_64 in
        let _, r = migrate_at c ~total_instrs:total ~frac:0.5 in
        let recode_arm =
          Session.recode_ns Node.rpi
            ~bytes:(int_of_float (float_of_int r.Session.r_image_bytes *. bytes_scale))
            r.Session.r_rewrite
          /. 1e6
        in
        (name, r, recode_arm))
      fig5_benchmarks
  in
  let rows =
    List.map
      (fun (name, r, recode_arm) ->
        let t = r.Session.r_times in
        [ name; Tbl.ms t.t_checkpoint_ms; Tbl.ms t.t_recode_ms; Tbl.ms recode_arm;
          Tbl.ms t.t_scp_ms; Tbl.ms t.t_restore_ms; Tbl.ms (Session.total_ms t);
          Printf.sprintf "%d KiB" (r.Session.r_image_bytes / 1024) ])
      measured
  in
  Tbl.print
    ~title:"Fig 5: cross-ISA transformation cost (x86-64 -> aarch64, InfiniBand)"
    ~header:[ "benchmark"; "checkpoint"; "recode@x86"; "recode@arm"; "scp"; "restore";
              "total(x86 recode)"; "image" ]
    rows;
  let n = float_of_int (List.length measured) in
  let rx =
    List.fold_left (fun a (_, r, _) -> a +. r.Session.r_times.t_recode_ms) 0.0 measured /. n
  in
  let ra = List.fold_left (fun a (_, _, x) -> a +. x) 0.0 measured /. n in
  Printf.printf
    "avg recode: %.1f ms on x86-64 vs %.1f ms on aarch64 (paper: 253.69 vs 1004.91; ratio %.2fx vs paper 3.96x)\n\n"
    rx ra (ra /. rx)

(* ----- Fig. 5 delta: pipelined / parallel / incremental recode -----

   Same migration point as Fig. 5 (frac 0.5), four fast paths against the
   sequential baseline:
     - pipelined: recode streams into the transfer in 256 KiB chunks, so
       only the exposed tail of recode+scp is charged ("hidden" column);
     - +4 workers: pipelined with the recode cost model spread across
       four source cores;
     - warm memo: a second migration of the unchanged binary at the same
       point against a memo populated by a cold first run — only changed
       pages/threads are re-rewritten and shipped.
   Byte-equivalence of every fast path against the sequential pipeline is
   enforced separately by `verify fastpath` (lib/verify/oracle.ml). *)

let fig5_pipelined () =
  let measured =
    List.map
      (fun name ->
        let c = Registry.compiled (Registry.find name) in
        let total = native_instrs c Arch.X86_64 in
        let seq_proc, seq = migrate_at c ~total_instrs:total ~frac:0.5 in
        ignore seq_proc;
        let _, pipe = migrate_at ~pipeline:true c ~total_instrs:total ~frac:0.5 in
        let _, par =
          migrate_at ~pipeline:true ~recode_workers:4 c ~total_instrs:total
            ~frac:0.5
        in
        let memo = Plan_cache.create_memo () in
        let _, _cold = migrate_at ~memo c ~total_instrs:total ~frac:0.5 in
        let _, warm = migrate_at ~memo c ~total_instrs:total ~frac:0.5 in
        (name, seq, pipe, par, warm))
      fig5_benchmarks
  in
  let rows =
    List.map
      (fun (name, seq, pipe, par, warm) ->
        let st = seq.Session.r_times and pt = pipe.Session.r_times in
        let hidden =
          (st.t_recode_ms +. st.t_scp_ms) -. (pt.t_recode_ms +. pt.t_scp_ms)
        in
        let wrw = warm.Session.r_rewrite in
        [ name; Tbl.ms (Session.total_ms st); Tbl.ms (Session.total_ms pt);
          Tbl.ms hidden; Tbl.ms (Session.total_ms par.Session.r_times);
          Tbl.ms (Session.total_ms warm.Session.r_times);
          Printf.sprintf "%d/%d"
            (Rewrite.(wrw.st_memo_thread_hits))
            (Rewrite.(wrw.st_memo_page_hits)) ])
      measured
  in
  Tbl.print
    ~title:
      "Fig 5 delta: sequential vs pipelined vs +4 workers vs warm memo \
       (x86-64 -> aarch64, InfiniBand)"
    ~header:
      [ "benchmark"; "sequential"; "pipelined"; "hidden"; "+4 workers";
        "warm memo"; "memo hits t/p" ]
    rows;
  let n = float_of_int (List.length measured) in
  let avg f = List.fold_left (fun a x -> a +. f x) 0.0 measured /. n in
  let seq_avg = avg (fun (_, s, _, _, _) -> Session.total_ms s.Session.r_times) in
  let pipe_avg = avg (fun (_, _, p, _, _) -> Session.total_ms p.Session.r_times) in
  let par_avg = avg (fun (_, _, _, p, _) -> Session.total_ms p.Session.r_times) in
  let warm_avg = avg (fun (_, _, _, _, w) -> Session.total_ms w.Session.r_times) in
  Printf.printf
    "avg end-to-end: %.1f ms sequential -> %.1f ms pipelined (%.1f%%), %.1f ms \
     with 4 recode workers (%.1f%%), %.1f ms warm-incremental (%.1f%%)\n\n"
    seq_avg pipe_avg
    ((seq_avg -. pipe_avg) /. seq_avg *. 100.0)
    par_avg
    ((seq_avg -. par_avg) /. seq_avg *. 100.0)
    warm_avg
    ((seq_avg -. warm_avg) /. seq_avg *. 100.0)

(* ----- Fig. 6: PARSEC total execution time, native vs migrated ----- *)

let fig6 () =
  let rows =
    List.map
      (fun name ->
        let sp = Registry.find name in
        let c = Registry.compiled sp in
        let ix = native_instrs c Arch.X86_64 in
        let ia = native_instrs c Arch.Aarch64 in
        let tx = exec_ms_scaled Arch.X86_64 ix and ta = exec_ms_scaled Arch.Aarch64 ia in
        (* run half on x86, migrate, finish on arm *)
        let src, r = migrate_at c ~total_instrs:ix ~frac:0.5 in
        let after =
          match Process.run_to_completion r.Session.r_process ~fuel with
          | Process.Exited_run _ -> r.Session.r_process.Process.total_instrs
          | _ -> failwith (name ^ ": migrated run failed")
        in
        let t_dapper =
          exec_ms_scaled Arch.X86_64 src.Process.total_instrs
          +. Session.total_ms r.Session.r_times
          +. exec_ms_scaled Arch.Aarch64 after
        in
        let sec v = Printf.sprintf "%.1f s" (v /. 1000.0) in
        [ name; sec tx; sec t_dapper; sec ta ])
      [ "blackscholes"; "swaptions"; "streamcluster" ]
  in
  Tbl.print
    ~title:"Fig 6: PARSEC end-to-end execution time (4 threads)"
    ~header:[ "application"; "native x86-64"; "dapper (migrated mid-run)"; "native aarch64" ]
    rows;
  print_newline ()

(* ----- Fig. 7: vanilla vs lazy migration ----- *)

let fig7 () =
  let phase_rows name c frac =
    let total = native_instrs c Arch.X86_64 in
    List.map
      (fun lazy_pages ->
        let _, r = migrate_at ~lazy_pages c ~total_instrs:total ~frac in
        (* drive the restored process to completion so lazy page fetches
           actually happen; their cost is the indirect restore *)
        (match Process.run_to_completion r.Session.r_process ~fuel with
         | Process.Exited_run _ | Process.Idle -> ()
         | Process.Crashed cr -> failwith (name ^ ": " ^ cr.cr_reason)
         | Process.Progress -> failwith (name ^ ": fuel"));
        let t = r.Session.r_times in
        let indirect =
          match r.Session.r_page_server with
          | Some s -> s.Transport.srv_ns /. 1e6
          | None -> 0.0
        in
        [ name; (if lazy_pages then "lazy" else "vanilla");
          Tbl.ms t.t_checkpoint_ms; Tbl.ms t.t_recode_ms; Tbl.ms t.t_scp_ms;
          Tbl.ms (t.t_restore_ms +. indirect);
          Tbl.ms (Session.total_ms t +. indirect);
          Printf.sprintf "%d KiB" (r.Session.r_image_bytes / 1024) ])
      [ false; true ]
  in
  let rows =
    List.concat_map
      (fun (name, frac, label) ->
        let c = Registry.compiled (Registry.find name) in
        List.map (fun row -> match row with
            | b :: rest -> (b ^ "@" ^ label) :: rest
            | [] -> [])
          (phase_rows name c frac))
      [ ("npb-cg.A", 0.05, "init"); ("npb-cg.A", 0.5, "mid"); ("npb-cg.A", 0.85, "end");
        ("npb-mg.A", 0.05, "init"); ("npb-mg.A", 0.5, "mid"); ("npb-mg.A", 0.85, "end") ]
  in
  Tbl.print
    ~title:"Fig 7a: vanilla vs lazy migration (x86-64 -> aarch64)"
    ~header:[ "benchmark"; "mode"; "checkpoint"; "recode"; "scp"; "restore(+indirect)";
              "total"; "image" ]
    rows;
  (* redis with growing databases *)
  let redis_rows =
    List.concat_map
      (fun keys ->
        let m = Servers.redis ~keys ~ops:6000 () in
        let c = Link.compile ~app:(Printf.sprintf "redis-%dk" (keys / 1000)) m in
        let total = native_instrs c Arch.X86_64 in
        List.map
          (fun lazy_pages ->
            let _, r = migrate_at ~lazy_pages c ~total_instrs:total ~frac:0.7 in
            (match Process.run_to_completion r.Session.r_process ~fuel with
             | Process.Exited_run _ -> ()
             | _ -> failwith "redis migrated run failed");
            let t = r.Session.r_times in
            let indirect =
              match r.Session.r_page_server with
              | Some s -> s.Transport.srv_ns /. 1e6
              | None -> 0.0
            in
            [ Printf.sprintf "redis %d keys" keys;
              (if lazy_pages then "lazy" else "vanilla");
              Tbl.ms t.t_checkpoint_ms; Tbl.ms t.t_recode_ms; Tbl.ms t.t_scp_ms;
              Tbl.ms (t.t_restore_ms +. indirect);
              Tbl.ms (Session.total_ms t +. indirect);
              Printf.sprintf "%d KiB" (r.Session.r_image_bytes / 1024) ])
          [ false; true ])
      [ 2048; 8192; 32768 ]
  in
  Tbl.print
    ~title:"Fig 7b: redis with growing in-memory databases"
    ~header:[ "server"; "mode"; "checkpoint"; "recode"; "scp"; "restore(+indirect)";
              "total"; "image" ]
    redis_rows;
  print_newline ()

(* ----- Fig. 7-live: migration under open-loop live traffic ----- *)

module Tr = Dapper_traffic

(* One row of the live-traffic table. *)
type live_row = {
  lv_label : string;
  lv_mechanism : string;
  lv_stalled : int;
  lv_faulted : int;
  lv_precopy_ms : float;
  lv_blackout_ms : float;
  lv_p50 : float;
  lv_p99 : float;
  lv_p999 : float;
  lv_mig_p50 : float;
  lv_mig_p99 : float;
  lv_mig_p999 : float;
}

let live_lanes = 4
let live_util = 0.15    (* offered load as a fraction of lane capacity *)
let live_rps = 0.25     (* per-client request rate: populations in the millions *)
let live_seed = 0x11AFFE17L
let live_requests = 1_000_000

(* Per-request cost floor for the service-time calibration: the replayed
   IR services spend a few hundred interpreted instructions per op, but a
   real server request also pays parsing, syscalls and the network stack.
   20k instructions is ~5 us on the xeon — a realistic in-memory-store
   service time — and keeps the load window wide enough to straddle the
   migration instead of drowning inside the blackout. *)
let live_floor_instrs = 20_000.0

(* Run workload [c] under open-loop load while migrating with [mech].
   The service-time model is calibrated from the workload's own native
   run ([total] instructions over [ops] requests); the client population
   is whatever it takes to offer [live_util] of lane capacity at
   [live_rps] per client. *)
let live_stats ~reverse c ~ops ~total mech =
  let src_arch, dst_arch =
    if reverse then (Arch.Aarch64, Arch.X86_64) else (Arch.X86_64, Arch.Aarch64)
  in
  let src_node = node_of src_arch and dst_node = node_of dst_arch in
  let src_bin = Link.binary_for c src_arch
  and dst_bin = Link.binary_for c dst_arch in
  let p = Process.load src_bin in
  let warm = max 10_000 (int_of_float (Int64.to_float total *. 0.5)) in
  (match Process.run p ~max_instrs:warm with
   | Process.Progress -> ()
   | _ -> failwith (c.Link.cp_app ^ ": finished before migration point"));
  let instrs_per_req =
    Float.max (Int64.to_float total /. float_of_int ops) live_floor_instrs
  in
  let s_src = Tr.Loadgen.service_ms ~node:src_node ~instrs_per_req in
  let s_dst = Tr.Loadgen.service_ms ~node:dst_node ~instrs_per_req in
  let rate = live_util *. float_of_int live_lanes /. s_src in
  let clients = int_of_float (Float.ceil (rate *. 1000.0 /. live_rps)) in
  let window = float_of_int live_requests /. rate in
  let scfg =
    { (Session.default_config ~src_bin ~dst_bin) with
      Session.cfg_src_node = src_node;
      cfg_dst_node = dst_node;
      cfg_recode_node = src_node;
      cfg_bytes_scale = bytes_scale }
  in
  let lg =
    { Tr.Loadgen.lg_seed = live_seed;
      lg_requests = live_requests;
      lg_clients = clients;
      lg_client_rps = live_rps;
      (* quiet/burst modulation averaging exactly the base rate:
         (0.8*120 + 1.6*40) / 160 = 1 *)
      lg_mmpp = Some [| (0.8, 120.0); (1.6, 40.0) |];
      lg_lanes = live_lanes;
      lg_service_src_ms = s_src;
      lg_service_dst_ms = s_dst;
      lg_migrate_at_ms = 0.25 *. window;
      lg_max_rounds = 5;
      lg_downtime_budget_ms = 25.0;
      lg_round_instrs = 200_000;
      lg_racks = Some (Rack.create ~racks:4 ~servers_each:2);
      lg_rack = 0 }
  in
  match Tr.Loadgen.run lg scfg p mech with
  | Ok st -> st
  | Error e -> failwith (c.Link.cp_app ^ ": " ^ Dapper_error.to_string e)

let live_row_of label (st : Tr.Loadgen.stats) =
  let q s p =
    if Tr.Sketch.count s = 0 then 0.0 else Tr.Sketch.quantile s p
  in
  { lv_label = label;
    lv_mechanism = Tr.Budget.mechanism_name st.Tr.Loadgen.ls_mechanism;
    lv_stalled = st.Tr.Loadgen.ls_stalled;
    lv_faulted = st.Tr.Loadgen.ls_faulted;
    lv_precopy_ms = st.Tr.Loadgen.ls_precopy_ms;
    lv_blackout_ms = st.Tr.Loadgen.ls_blackout_ms;
    lv_p50 = q st.Tr.Loadgen.ls_all 0.5;
    lv_p99 = q st.Tr.Loadgen.ls_all 0.99;
    lv_p999 = q st.Tr.Loadgen.ls_all 0.999;
    lv_mig_p50 = q st.Tr.Loadgen.ls_during 0.5;
    lv_mig_p99 = q st.Tr.Loadgen.ls_during 0.99;
    lv_mig_p999 = q st.Tr.Loadgen.ls_during 0.999 }

let live_mechanisms = Tr.Budget.[ Vanilla; Postcopy; Hybrid ]

let fig7_live () =
  let workloads =
    [ ("redis", Servers.redis ~keys:4096 ~ops:6000 (), 6000, false);
      ("redis", Servers.redis ~keys:4096 ~ops:6000 (), 6000, true);
      ("nginx", Servers.nginx ~requests:600 (), 600, false) ]
  in
  let all_rows =
    List.concat_map
      (fun (name, m, ops, reverse) ->
        let c = Link.compile ~app:(name ^ "-live") m in
        let src_arch = if reverse then Arch.Aarch64 else Arch.X86_64 in
        let total = native_instrs c src_arch in
        let label =
          Printf.sprintf "%s %s" name
            (if reverse then "arm->x86" else "x86->arm")
        in
        List.map
          (fun mech ->
            let st = live_stats ~reverse c ~ops ~total mech in
            (live_row_of label st, st))
          live_mechanisms)
      workloads
  in
  Tbl.print
    ~title:
      "Fig 7-live: tail latency across a migration (1M open-loop requests)"
    ~header:
      [ "workload"; "mechanism"; "stalled"; "faults"; "precopy"; "blackout";
        "p50"; "p99"; "p999"; "mig p50"; "mig p99"; "mig p999" ]
    (List.map
       (fun (r, _) ->
         [ r.lv_label; r.lv_mechanism; string_of_int r.lv_stalled;
           string_of_int r.lv_faulted; Tbl.ms r.lv_precopy_ms;
           Tbl.ms r.lv_blackout_ms; Tbl.ms r.lv_p50; Tbl.ms r.lv_p99;
           Tbl.ms r.lv_p999; Tbl.ms r.lv_mig_p50; Tbl.ms r.lv_mig_p99;
           Tbl.ms r.lv_mig_p999 ])
       all_rows);
  (* Downtime-budget policy: projections calibrated from the measured
     redis forward rows, then the mechanism the policy would pick at
     each budget. *)
  (match
     List.filter (fun (r, _) -> r.lv_label = "redis x86->arm") all_rows
   with
   | (v, vst) :: rest ->
     let find name =
       List.find_opt (fun (r, _) -> r.lv_mechanism = name) rest
     in
     let vt = vst.Tr.Loadgen.ls_outcome.Session.r_times in
     let image_wire =
       int_of_float (float_of_int vst.Tr.Loadgen.ls_outcome.Session.r_image_bytes
                     *. bytes_scale)
     in
     let wire_ns_per_byte =
       if image_wire = 0 then 0.0
       else vt.Session.t_scp_ms *. 1e6 /. float_of_int image_wire
     in
     let residual_bytes =
       match find "hybrid" with
       | Some (_, hst) ->
         (match hst.Tr.Loadgen.ls_precopy with
          | Some pcs ->
            int_of_float
              (float_of_int
                 (List.length pcs.Session.pcs_residual
                  * Dapper_binary.Layout.page_size)
               *. bytes_scale)
          | None -> 0)
       | None -> 0
     in
     let lazy_fixed =
       match find "lazy" with
       | Some (lr, _) -> lr.lv_blackout_ms
       | None -> v.lv_blackout_ms
     in
     let est =
       { Tr.Budget.e_image_bytes = image_wire;
         e_residual_bytes = residual_bytes;
         e_fixed_ms = Session.total_ms vt -. vt.Session.t_scp_ms;
         e_lazy_fixed_ms = lazy_fixed;
         e_wire_ns_per_byte = wire_ns_per_byte }
     in
     Tbl.print
       ~title:"Fig 7-live: downtime-budget mechanism selection (redis)"
       ~header:[ "budget"; "chosen"; "projected downtime"; "fits budget" ]
       (List.map
          (fun budget ->
            let mech, fits = Tr.Budget.choose_detail ~budget_ms:budget est in
            [ Tbl.ms budget; Tr.Budget.mechanism_name mech;
              Tbl.ms (Tr.Budget.downtime_ms est mech);
              (if fits then "yes" else "no (least-bad fallback)") ])
          [ 2000.0; 500.0; 100.0; 10.0 ])
   | [] -> ());
  print_newline ()

(* ----- Fig. 8: energy efficiency and throughput on the hybrid cluster ----- *)

(* Per-job costs for the Fig. 8 family: measured native runs and a real
   migration per NPB class-B kind, reduced to analytic job costs. *)
let fig8_kinds () =
  List.map
    (fun name ->
      let c = Registry.compiled (Registry.find name) in
      let ix = native_instrs c Arch.X86_64 in
      let ia = native_instrs c Arch.Aarch64 in
      let total = ix in
      let _, r = migrate_at c ~total_instrs:total ~frac:0.3 in
      Scheduler.job_kind_of_session ~name
        ~xeon_ms:(exec_ms_scaled Arch.X86_64 ix /. 10.0)
        ~rpi_ms:(exec_ms_scaled Arch.Aarch64 ia /. 10.0)
        ~times:r.Session.r_times)
    [ "npb-ep.B"; "npb-cg.B"; "npb-mg.B"; "npb-ft.B" ]

let fig8 () =
  let kinds = fig8_kinds () in
  Tbl.print ~title:"Fig 8 inputs: per-job costs (NPB class B)"
    ~header:[ "job"; "xeon"; "rpi"; "migration" ]
    (List.map
       (fun k ->
         [ k.Scheduler.jk_name; Tbl.ms k.jk_xeon_ms; Tbl.ms k.jk_rpi_ms;
           Tbl.ms k.jk_migration_ms ])
       kinds);
  let base_cfg =
    { Scheduler.c_window_ms = Scheduler.default_window_ms; c_xeon_slots = 7; c_rpis = 0;
      c_rpi_slots_each = 3 }
  in
  let base = Scheduler.run base_cfg kinds in
  let rows =
    List.map
      (fun rpis ->
        let r = Scheduler.run { base_cfg with c_rpis = rpis } kinds in
        [ (match rpis with 0 -> "xeon only" | n -> Printf.sprintf "xeon + %d rpi" n);
          string_of_int r.r_jobs_done;
          string_of_int r.r_jobs_rpi;
          Printf.sprintf "%.1f" r.r_energy_kj;
          Printf.sprintf "%.3f" r.r_jobs_per_kj;
          (if rpis = 0 then "-"
           else Tbl.pct (Scheduler.efficiency_gain_pct ~baseline:base ~subject:r /. 100.0));
          (if rpis = 0 then "-"
           else Tbl.pct (Scheduler.throughput_gain_pct ~baseline:base ~subject:r /. 100.0)) ])
      [ 0; 1; 3 ]
  in
  Tbl.print
    ~title:"Fig 8: 30-minute batch window, dynamic eviction to Raspberry Pis"
    ~header:[ "configuration"; "jobs"; "on rpi"; "energy kJ"; "jobs/kJ"; "eff gain";
              "throughput gain" ]
    rows;
  Printf.printf "paper: energy efficiency +15%%..39%%, throughput +37%%..52%%\n\n"

(* Fig. 8 cross-validation: the same eviction experiment with real
   processes and real live migrations (downscaled window/jobs; see
   Fleet's speed_scale). *)
let fig8_fleet () =
  let job = Registry.compiled (Registry.find "nginx") in
  let cfg =
    { Fleet.default_config with
      f_window_ms = 20_000.0; f_xeon_slots = 4; f_rpis = 2; f_rpi_slots_each = 2;
      f_bytes_scale = bytes_scale }
  in
  let base = Fleet.run { cfg with f_rpis = 0; f_evict = false } [ job ] in
  let evicting = Fleet.run cfg [ job ] in
  Tbl.print
    ~title:"Fig 8 (cross-validation): real processes, real live migrations"
    ~header:[ "configuration"; "jobs"; "on rpi"; "evictions"; "energy kJ"; "jobs/kJ" ]
    [ [ "xeon only"; string_of_int base.f_jobs_done; "0"; "0";
        Printf.sprintf "%.3f" base.f_energy_kj;
        Printf.sprintf "%.2f" base.f_jobs_per_kj ];
      [ "xeon + 2 rpi (dapper eviction)"; string_of_int evicting.f_jobs_done;
        string_of_int evicting.f_jobs_done_rpi; string_of_int evicting.f_evictions;
        Printf.sprintf "%.3f" evicting.f_energy_kj;
        Printf.sprintf "%.2f" evicting.f_jobs_per_kj ] ];
  Printf.printf
    "every evicted job was paused at equivalence points, dumped, rewritten for aarch64 and restored live (%d migrations, %.0f ms total overhead)\n\n"
    evicting.f_evictions evicting.f_migration_ms_total

(* ----- Fig. 8 XL: the eviction scheduler at datacenter scale ----- *)

let fig8_xl_policies = Placement.[ First_fit; Energy_aware; Slo_aware ]

(* Slow tier split 20% Jetson-class / 30% Pi 5 / 50% Pi 4. The fastest
   boards get the lowest slot ids (racked first), so first-fit packs
   onto Jetsons, energy-aware walks the order backwards to the Pi 4s,
   and slo-aware lands on the Pi 5s — the three policies genuinely
   diverge instead of shadowing each other. *)
let fig8_xl_config ~nodes ~jobs ~policy =
  let jetson = max 1 (nodes / 5) in
  let rpi5 = max 1 (nodes * 3 / 10) in
  let rpi = max 1 (nodes - jetson - rpi5) in
  { Fleet_xl.x_window_ms = 86_400_000.0 (* 24 h *);
    x_xeon_slots = max 7 (7 * nodes / 10);
    x_classes =
      [ { Fleet_xl.xc_node = Node.jetson; xc_nodes = jetson; xc_slots_per_node = 4 };
        { xc_node = Node.rpi5; xc_nodes = rpi5; xc_slots_per_node = 3 };
        { xc_node = Node.rpi; xc_nodes = rpi; xc_slots_per_node = 3 } ];
    x_jobs = jobs;
    x_placement = policy;
    x_shards = max 1 (min 64 (nodes / 8));
    x_racks = max 1 (nodes / 40);
    x_page_servers_each = 4;
    x_slo_factor = 2.5;
    x_fault = None;
    x_loss_every_ms = 0.0;
    x_rack_gate = None;
    x_rack_report = None }

let fig8_xl_scales =
  [ (10, 1_000); (100, 10_000); (1_000, 100_000); (10_000, 1_000_000) ]

let fig8_xl () =
  let kinds = fig8_kinds () in
  let rows =
    List.concat_map
      (fun (nodes, jobs) ->
        List.map
          (fun policy ->
            let s = Fleet_xl.run (fig8_xl_config ~nodes ~jobs ~policy) kinds in
            [ Placement.name policy; string_of_int nodes; string_of_int jobs;
              string_of_int s.Fleet_xl.x_jobs_done; string_of_int s.x_jobs_slow;
              string_of_int s.x_nodes_powered;
              Printf.sprintf "%d/%d" s.x_slo_met (s.x_slo_met + s.x_slo_missed);
              Printf.sprintf "%.3f" s.x_jobs_per_kj;
              Printf.sprintf "%.0f" s.x_throughput_per_min;
              Printf.sprintf "%.0f" s.x_events_per_sim_s;
              Printf.sprintf "%.0f" (s.x_makespan_ms /. 1000.0) ])
          fig8_xl_policies)
      fig8_xl_scales
  in
  Tbl.print
    ~title:
      "Fig 8 XL: eviction fleet at scale (heterogeneous slow tier, per-rack page servers)"
    ~header:
      [ "policy"; "nodes"; "jobs"; "done"; "slow"; "boards on"; "slo met"; "jobs/kJ";
        "thr/min"; "events/sim-s"; "makespan s" ]
    rows;
  Printf.printf
    "event-driven engine: cost scales with events, not nodes x quanta; first-fit packs the fast boards, energy-aware holds the efficient ones, slo-aware pays exactly for deadlines\n\n"

(* ----- Fig. 9 & 10: stack shuffling cost and entropy ----- *)

let shuffle_benchmarks =
  [ "nginx"; "redis"; "npb-ep.A"; "npb-cg.A"; "npb-mg.A"; "npb-ft.A"; "npb-is.A";
    "linpack"; "dhrystone"; "kmeans" ]

(* Shuffle cost model: the SBI pass is dominated by disassembling and
   re-encoding the code section of both the checkpointed process and the
   transformed source binary (paper: time proportional to code size). *)
let shuffle_ns node text_bytes =
  let per_byte_ns = 2000.0 in
  float_of_int text_bytes *. per_byte_ns
  *. (Node.xeon.Node.n_ops_per_ns /. node.Node.n_ops_per_ns)

let fig9 () =
  let rows =
    List.concat_map
      (fun name ->
        let c = Registry.compiled (Registry.find name) in
        List.map
          (fun arch ->
            let bin = Link.binary_for c arch in
            let node = node_of arch in
            (* run, pause, dump, shuffle, rewrite, restore - for real *)
            let p = Process.load bin in
            ignore (Process.run p ~max_instrs:400_000);
            (match Monitor.request_pause p ~budget:40_000_000 with
             | Ok _ -> ()
             | Error e -> failwith (Dapper_error.to_string e));
            let image = Dapper_error.ok_exn (Dapper_criu.Dump.dump p) in
            let shuffled, _ = Shuffle.shuffle_binary (Rng.create 11L) bin in
            let image', rw =
              Dapper_error.ok_exn (Rewrite.rewrite image ~src:bin ~dst:shuffled)
            in
            let _ = Dapper_error.ok_exn (Dapper_criu.Restore.restore image' shuffled) in
            let dump_stats = Dapper_criu.Dump.stats_of image in
            (* checkpoint/restore costs at their calibration anchors (the
               nodes the paper measured each phase on) *)
            let checkpoint_ms =
              Session.checkpoint_ms ~node:Node.xeon
                ~bytes:(int_of_float
                          (float_of_int
                             (dump_stats.Dapper_criu.Dump.pages_dumped
                              * Dapper_binary.Layout.page_size)
                           *. bytes_scale))
            in
            let shuffle_ms = shuffle_ns node (Dapper_binary.Binary.text_size bin) /. 1e6 in
            let image_bytes =
              int_of_float
                (float_of_int (Dapper_criu.Images.total_bytes image') *. bytes_scale)
            in
            let recode_ms = Session.recode_ns node ~bytes:image_bytes rw /. 1e6 in
            let restore_ms = Session.restore_ms ~node:Node.rpi ~bytes:image_bytes in
            [ name; Arch.name arch; Tbl.ms checkpoint_ms; Tbl.ms shuffle_ms;
              Tbl.ms recode_ms; Tbl.ms restore_ms;
              Tbl.ms (checkpoint_ms +. shuffle_ms +. recode_ms +. restore_ms) ])
          Arch.all)
      shuffle_benchmarks
  in
  Tbl.print
    ~title:"Fig 9: stack shuffling transformation cost breakdown"
    ~header:[ "benchmark"; "arch"; "checkpoint"; "shuffle(SBI)"; "recode"; "restore"; "total" ]
    rows;
  Printf.printf "paper: average 573 ms on x86-64, 3.2 s on aarch64 (proportional to code size)\n\n"

(* ----- Fig 9-chaos: the self-healing control plane under sustained faults ----- *)

module Health = Dapper_health

let fig9_chaos_seed0 = 0x9CA05EEDL

let fig9_chaos_setup () =
  let m = Servers.redis ~keys:2048 ~ops:3000 () in
  let c = Link.compile ~app:"redis-chaos" m in
  let total = native_instrs c Arch.X86_64 in
  let src_bin = Link.binary_for c Arch.X86_64 in
  let dst_bin = Link.binary_for c Arch.Aarch64 in
  let warm = max 10_000 (int_of_float (Int64.to_float total *. 0.5)) in
  let fresh () =
    let p = Process.load src_bin in
    (match Process.run p ~max_instrs:warm with
     | Process.Progress -> ()
     | _ -> failwith "redis-chaos: finished before migration point");
    p
  in
  let scfg =
    { (Session.default_config ~src_bin ~dst_bin) with
      Session.cfg_src_node = node_of Arch.X86_64;
      cfg_dst_node = node_of Arch.Aarch64;
      cfg_recode_node = node_of Arch.X86_64;
      cfg_bytes_scale = bytes_scale }
  in
  (scfg, fresh)

let fig9_chaos_sustained () =
  let scfg, fresh = fig9_chaos_setup () in
  let on, off, violations =
    Health.Sustained.paired Health.Sustained.default_cfg scfg ~fresh ~seeds:200
      ~seed0:fig9_chaos_seed0
  in
  let q s p =
    if Tr.Sketch.count s = 0 then 0.0 else Tr.Sketch.quantile s p
  in
  Tbl.print
    ~title:
      "Fig 9-chaos: 200 seeds of sustained correlated faults, control plane \
       on vs off"
    ~header:
      [ "control"; "committed"; "degraded"; "rolled back"; "postponed";
        "attempts"; "sheds"; "trips"; "cancels"; "availability"; "mig p99";
        "p99" ]
    (List.map
       (fun (_, (y : Health.Sustained.summary)) ->
         [ (if y.Health.Sustained.y_control then "on" else "off");
           string_of_int y.Health.Sustained.y_committed;
           string_of_int y.Health.Sustained.y_degraded;
           string_of_int y.Health.Sustained.y_rolled_back;
           string_of_int y.Health.Sustained.y_postponed;
           string_of_int y.Health.Sustained.y_attempts;
           string_of_int y.Health.Sustained.y_sheds;
           string_of_int y.Health.Sustained.y_trips;
           string_of_int y.Health.Sustained.y_cancels;
           Printf.sprintf "%.4f" y.Health.Sustained.y_availability;
           Tbl.ms (Health.Sustained.mig_p99 y);
           Tbl.ms (q y.Health.Sustained.y_all 0.99) ])
       [ on; off ]);
  (* one sample degradation trace, so the event plumbing is visible *)
  (match List.find_opt (fun r -> r.Health.Sustained.r_events <> []) (fst on) with
   | Some r ->
     Printf.printf "sample degradation trace (seed %016Lx, %s):\n"
       r.Health.Sustained.r_seed
       (Health.Sustained.verdict_name r.Health.Sustained.r_verdict);
     List.iter print_endline (Health.Sustained.event_lines r)
   | None -> ());
  (* every run of both arms, folded in seed order: any change to a
     single run's outcome moves this line *)
  let digest =
    List.fold_left
      (fun h (r : Health.Sustained.run) ->
        List.fold_left Bytebuf.fnv64_mix h
          [ r.r_fingerprint; Int64.of_int r.r_attempts; Int64.of_int r.r_sheds;
            Int64.of_int r.r_trips; Int64.of_int r.r_cancels;
            Int64.of_int r.r_postpones; Int64.of_int r.r_ok ])
      Bytebuf.fnv64_offset
      (fst on @ fst off)
  in
  Printf.printf "runs digest: %016Lx\n" digest;
  print_newline ();
  if violations <> [] then begin
    List.iter prerr_endline violations;
    exit 1
  end

let fig10 () =
  let per_arch arch =
    List.map
      (fun name ->
        let c = Registry.compiled (Registry.find name) in
        let _, stats = Shuffle.shuffle_binary (Rng.create 23L) (Link.binary_for c arch) in
        (name, Shuffle.average_bits stats))
      shuffle_benchmarks
  in
  let x = per_arch Arch.X86_64 and a = per_arch Arch.Aarch64 in
  let rows =
    List.map2
      (fun (name, bx) (_, ba) ->
        [ name; Printf.sprintf "%.2f" bx; Printf.sprintf "%.2f" ba ])
      x a
  in
  let avg l = List.fold_left (fun s (_, b) -> s +. b) 0.0 l /. float_of_int (List.length l) in
  Tbl.print ~title:"Fig 10: average bits of entropy from stack shuffling"
    ~header:[ "benchmark"; "x86-64 bits"; "aarch64 bits" ]
    (rows @ [ [ "AVERAGE"; Printf.sprintf "%.2f" (avg x); Printf.sprintf "%.2f" (avg a) ] ]);
  Printf.printf
    "paper: x86-64 avg 4.74 (nginx 5.76, redis 5.38, NPB 3.09); aarch64 avg 3.33 (lower: load/store-pair exclusion)\n\n"

(* ----- Fig. 11: attack-surface reduction vs the Popcorn baseline ----- *)

let fig11 () =
  let rows, reds =
    List.fold_left
      (fun (rows, reds) name ->
        let sp = Registry.find name in
        let m = Lazy.force sp.Registry.sp_modul in
        let dapper_bin = Registry.compiled sp in
        let popcorn =
          Link.compile_with_inline_runtime ~app:sp.Registry.sp_name
            ~runtime_ir:(Popcorn.runtime_ir ()) m
        in
        let per_arch arch =
          let g_d = Gadgets.scan (Link.binary_for dapper_bin arch) in
          let g_p = Gadgets.scan (Link.binary_for popcorn arch) in
          (g_d, g_p, Gadgets.reduction_pct ~baseline:g_p ~subject:g_d)
        in
        let dx, px, rx = per_arch Arch.X86_64 in
        let da, pa, ra = per_arch Arch.Aarch64 in
        ( rows
          @ [ [ name;
                string_of_int px.Gadgets.g_total; string_of_int dx.Gadgets.g_total;
                Printf.sprintf "%.1f%%" rx;
                string_of_int pa.Gadgets.g_total; string_of_int da.Gadgets.g_total;
                Printf.sprintf "%.1f%%" ra ] ],
          (rx, ra) :: reds ))
      ([], [])
      shuffle_benchmarks
  in
  let avg sel = List.fold_left (fun s r -> s +. sel r) 0.0 reds /. float_of_int (List.length reds) in
  Tbl.print
    ~title:"Fig 11: ROP gadget reduction vs Popcorn-style inline runtime"
    ~header:[ "benchmark"; "popcorn x86"; "dapper x86"; "reduction x86"; "popcorn arm";
              "dapper arm"; "reduction arm" ]
    (rows
     @ [ [ "AVERAGE"; ""; ""; Printf.sprintf "%.1f%%" (avg fst); ""; "";
           Printf.sprintf "%.1f%%" (avg snd) ] ]);
  Printf.printf "paper: average reduction 59.28%% (x86-64), 71.91%% (aarch64)\n\n"

(* ----- Section IV-B: exploit mitigation ----- *)

let exploits () =
  let trials = 10 in
  let rows =
    List.concat_map
      (fun attack ->
        let c = Link.compile ~app:"vuln" (Exploits.vulnerable_module attack) in
        List.map
          (fun arch ->
            let bin = Link.binary_for c arch in
            let plain = Exploits.run ~attack ~target:bin ~knowledge:bin in
            let pwned = ref 0 and crashed = ref 0 in
            for seed = 1 to trials do
              let shuffled, _ =
                Shuffle.shuffle_binary (Rng.create (Int64.of_int (seed * 7919))) bin
              in
              match Exploits.run ~attack ~target:shuffled ~knowledge:bin with
              | Exploits.Pwned -> incr pwned
              | Exploits.Crashed _ -> incr crashed
              | Exploits.Defeated -> ()
            done;
            [ Exploits.attack_name attack; Arch.name arch;
              Exploits.outcome_to_string plain;
              Printf.sprintf "%d/%d pwned, %d crashed, %d clean-defeated" !pwned trials
                !crashed (trials - !pwned - !crashed) ])
          Arch.all)
      Exploits.all_attacks
  in
  Tbl.print ~title:"Section IV-B: exploit outcomes (plain vs across 10 reshuffles)"
    ~header:[ "attack"; "arch"; "unprotected"; "dapper-shuffled" ]
    rows;
  (* BOPC empirical success rate across shuffles vs the analytic bound *)
  let c = Link.compile ~app:"vuln" (Exploits.vulnerable_module Exploits.Bopc) in
  let bin = c.Link.cp_x86 in
  let trials = 60 in
  let wins = ref 0 in
  for seed = 1 to trials do
    let shuffled, _ = Shuffle.shuffle_binary (Rng.create (Int64.of_int seed)) bin in
    match Exploits.run ~attack:Exploits.Bopc ~target:shuffled ~knowledge:bin with
    | Exploits.Pwned -> incr wins
    | _ -> ()
  done;
  Printf.printf
    "BOPC 3-write payload vs %d reshuffles: %d successes (%.2f%%); paper's analytic bound for 4 bits: 0.195%%\n\n"
    trials !wins
    (100.0 *. float_of_int !wins /. float_of_int trials)

(* ----- ablations of DESIGN.md's call-outs ----- *)

let ablation () =
  let opts_off = { Dapper_codegen.Opts.default with promote = false } in
  let sp = Registry.find "npb-cg.A" in
  let m = Lazy.force sp.Registry.sp_modul in
  let with_p = Link.compile ~app:"cg-promote" m in
  let without_p = Link.compile ~opts:opts_off ~app:"cg-nopromote" m in
  let reg_resident (c : Link.compiled) arch =
    let bin = Link.binary_for c arch in
    List.fold_left
      (fun acc (fm : Dapper_binary.Stackmap.func_map) ->
        acc + List.length fm.fm_promoted)
      0 bin.Dapper_binary.Binary.bin_stackmaps
  in
  Tbl.print ~title:"Ablation: callee-saved register promotion (npb-cg.A)"
    ~header:[ "config"; "x86 reg-resident"; "arm reg-resident" ]
    [ [ "promotion on"; string_of_int (reg_resident with_p Arch.X86_64);
        string_of_int (reg_resident with_p Arch.Aarch64) ];
      [ "promotion off"; string_of_int (reg_resident without_p Arch.X86_64);
        string_of_int (reg_resident without_p Arch.Aarch64) ] ];
  (* pair fusion vs aarch64 entropy: isolate pinning by disabling
     promotion, which otherwise keeps the fusable argument stores out of
     memory entirely *)
  let fuse_on =
    Link.compile
      ~opts:{ Dapper_codegen.Opts.default with promote = false }
      ~app:"nginx-fuse"
      (Lazy.force (Registry.find "nginx").sp_modul)
  in
  let fuse_off =
    Link.compile
      ~opts:{ Dapper_codegen.Opts.default with arm_pair_fusion = false; promote = false }
      ~app:"nginx-nofuse"
      (Lazy.force (Registry.find "nginx").sp_modul)
  in
  let stats c =
    let _, st = Shuffle.shuffle_binary (Rng.create 3L) c.Link.cp_arm in
    let pinned = List.fold_left (fun a fe -> a + fe.Shuffle.fe_pinned) 0 st.sh_funcs in
    (Shuffle.average_bits st, pinned)
  in
  let bits_on, pin_on = stats fuse_on in
  let bits_off, pin_off = stats fuse_off in
  Tbl.print ~title:"Ablation: aarch64 load/store-pair fusion vs entropy (nginx)"
    ~header:[ "config"; "aarch64 bits"; "pair-pinned allocations" ]
    [ [ "fusion on (paper)"; Printf.sprintf "%.2f" bits_on; string_of_int pin_on ];
      [ "fusion off"; Printf.sprintf "%.2f" bits_off; string_of_int pin_off ] ];
  (* promotion is the other source of the aarch64 entropy deficit *)
  let arm_bits opts name =
    let c = Link.compile ~opts ~app:name (Lazy.force (Registry.find "nginx").sp_modul) in
    let _, st = Shuffle.shuffle_binary (Rng.create 3L) c.Link.cp_arm in
    Shuffle.average_bits st
  in
  Tbl.print ~title:"Ablation: promotion vs aarch64 entropy (nginx)"
    ~header:[ "config"; "aarch64 bits" ]
    [ [ "promotion on (paper)"; Printf.sprintf "%.2f" (arm_bits Dapper_codegen.Opts.default "ng-p1") ];
      [ "promotion off";
        Printf.sprintf "%.2f"
          (arm_bits { Dapper_codegen.Opts.default with promote = false } "ng-p0") ] ];
  (* backedge checkers vs pause latency *)
  let drain opts =
    let c = Link.compile ~opts ~app:"cg-drain" m in
    let p = Process.load c.Link.cp_x86 in
    ignore (Process.run p ~max_instrs:500_000);
    match Monitor.request_pause p ~budget:40_000_000 with
    | Ok stats -> Int64.to_int stats.Monitor.ps_instrs_drained
    | Error e -> failwith (Dapper_error.to_string e)
  in
  (* DSU padding slack: how much body growth a hot update absorbs *)
  let grown extra =
    (* the same function with [extra] additional statements *)
    let mm = Dapper_clite.Cl.create "padded" in
    Dapper_clite.Cstd.add mm;
    Dapper_clite.Cl.func mm "hot" [ ("x", Dapper_ir.Ir.I64) ] (fun b ->
        let open Dapper_clite.Cl in
        decl b "t" (v "x");
        for _ = 1 to extra do
          set b "t" (add (mul (v "t") (i 3)) (i 1))
        done;
        ret b (v "t"));
    Dapper_clite.Cl.func mm "main" [] (fun b ->
        let open Dapper_clite.Cl in
        ret b (call "hot" [ i 5 ]));
    Dapper_clite.Cl.finish mm
  in
  let compatible pad base extra =
    let opts = { Dapper_codegen.Opts.default with pad_quantum = pad } in
    let v1 = Link.compile ~opts ~app:"padded" (grown base) in
    let v2 = Link.compile ~opts ~app:"padded" (grown (base + extra)) in
    List.for_all2
      (fun (a : Dapper_binary.Binary.symbol) (b : Dapper_binary.Binary.symbol) ->
        Int64.equal a.sym_addr b.sym_addr)
      v1.Link.cp_x86.bin_symbols v2.Link.cp_x86.bin_symbols
  in
  let max_growth pad base =
    let rec go n =
      if n > 60 then 60 else if compatible pad base n then go (n + 1) else n - 1
    in
    go 1
  in
  (* average over several base sizes to smooth quantum-boundary effects *)
  let avg_growth pad =
    let bases = [ 0; 1; 2; 3 ] in
    List.fold_left (fun a b -> a + max_growth pad b) 0 bases / List.length bases
  in
  Tbl.print
    ~title:"Ablation: DSU padding slack (statements a hot function can grow by, avg)"
    ~header:[ "pad_quantum"; "extra statements before symbols move" ]
    (List.map
       (fun pad -> [ string_of_int pad; string_of_int (avg_growth pad) ])
       [ 16; 128; 512; 1024 ]);
  Tbl.print ~title:"Ablation: backedge checkers vs pause drain (npb-cg.A)"
    ~header:[ "config"; "instructions drained before quiescence" ]
    [ [ "function entries only (paper)";
        string_of_int (drain Dapper_codegen.Opts.default) ];
      [ "entries + loop headers";
        string_of_int
          (drain { Dapper_codegen.Opts.default with backedge_checkers = true }) ] ];
  print_newline ()

(* ----- periodic re-randomization: rewrite-plan cache across epochs ----- *)

let rerand () =
  Plan_cache.clear ();
  let c = Registry.compiled (Registry.find "redis") in
  let bin = c.Link.cp_x86 in
  let p = Process.load bin in
  ignore (Process.run p ~max_instrs:100_000);
  let rows = ref [] in
  let report epoch (rw : Rewrite.stats) =
    rows :=
      [ string_of_int epoch; string_of_int rw.Rewrite.st_frames;
        string_of_int rw.Rewrite.st_values; string_of_int rw.Rewrite.st_plan_hits;
        string_of_int rw.Rewrite.st_plan_misses;
        string_of_int rw.Rewrite.st_index_lookups;
        string_of_int rw.Rewrite.st_interval_lookups ]
      :: !rows
  in
  (match
     Policy.rerandomize_periodically ~report p ~current:bin ~rng:(Rng.create 7L)
       ~interval:50_000 ~epochs:5
   with
   | Error e -> failwith (Dapper_error.to_string e)
   | Ok (_, epochs) ->
     Tbl.print
       ~title:"Periodic re-randomization: rewrite-plan cache across epochs (redis, x86-64)"
       ~header:
         [ "epoch"; "frames"; "values"; "plan hits"; "plan misses"; "index lookups";
           "interval probes" ]
       (List.rev !rows);
     Printf.printf
       "completed %d reshuffle epochs; shuffling permutes only frame offsets, so every epoch after the first reuses cached (offset-free) rewrite plans\n\n"
       epochs);
  (* The same counters in a cross-ISA migration's cost report. *)
  let q = Process.load bin in
  ignore (Process.run q ~max_instrs:100_000);
  match
    Session.migrate ~src_node:Node.xeon ~dst_node:Node.rpi ~src_bin:bin
      ~dst_bin:c.Link.cp_arm q
  with
  | Ok r -> Printf.printf "cross-ISA migration: %s\n\n" (Session.cost_report r)
  | Error e -> failwith (Dapper_error.to_string e)

let all () =
  fig5 ();
  fig5_pipelined ();
  fig6 ();
  fig7 ();
  fig7_live ();
  fig8 ();
  fig8_fleet ();
  fig8_xl ();
  fig9 ();
  fig9_chaos_sustained ();
  fig10 ();
  fig11 ();
  exploits ();
  ablation ()
