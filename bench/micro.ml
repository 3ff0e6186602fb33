(* Bechamel micro-benchmarks: one Test.make per table/figure, measuring
   the core operation that experiment exercises (wall-clock of the real
   OCaml implementation, not the simulated cost model). *)

open Bechamel
open Toolkit
open Dapper_machine
open Dapper_workloads
open Dapper
open Dapper_security
open Dapper_cluster
module Link = Dapper_codegen.Link

let fixture () =
  let c = Registry.compiled (Registry.find "npb-cg.A") in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:400_000);
  (match Monitor.request_pause p ~budget:40_000_000 with
   | Ok _ -> ()
   | Error e -> failwith (Dapper_util.Dapper_error.to_string e));
  let image = Dapper_util.Dapper_error.ok_exn (Dapper_criu.Dump.dump p) in
  (c, p, image)

(* Redis-like server paused mid-request-loop. *)
let redis_fixture () =
  let c = Registry.compiled (Registry.find "redis") in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:200_000);
  (match Monitor.request_pause p ~budget:40_000_000 with
   | Ok _ -> ()
   | Error e -> failwith (Dapper_util.Dapper_error.to_string e));
  let image = Dapper_util.Dapper_error.ok_exn (Dapper_criu.Dump.dump p) in
  (c, image)

let tests () =
  let c, p, image = fixture () in
  let image_arm, _ =
    Dapper_util.Dapper_error.ok_exn
      (Rewrite.rewrite image ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm)
  in
  let arm_files = Dapper_criu.Images.to_wire image_arm in
  let arm_bytes = Dapper_criu.Images.wire_bytes arm_files in
  let twin =
    Dapper_util.Dapper_error.ok_exn (Dapper_criu.Restore.restore image_arm c.Link.cp_arm)
  in
  if not (Process.same_state p twin) then
    failwith "restored twin differs from the fixture";
  let scp = Dapper_net.Transport.scp Dapper_net.Link.infiniband in
  let rc, rimage = redis_fixture () in
  let kinds =
    [ { Scheduler.jk_name = "cg"; jk_xeon_ms = 9000.0; jk_rpi_ms = 25000.0;
        jk_migration_ms = 1500.0 } ]
  in
  let cfg =
    { Scheduler.c_window_ms = Scheduler.default_window_ms; c_xeon_slots = 7; c_rpis = 3;
      c_rpi_slots_each = 3 }
  in
  let qs_bin =
    (Option.get (Dapper_verify.Corpus.find "mini-quickstart")).Link.cp_x86
  in
  let qs_log =
    match Dapper_replay.Replayer.record qs_bin with
    | Ok log -> log
    | Error e -> failwith e
  in
  Test.make_grouped ~name:"dapper" ~fmt:"%s/%s"
    [ Test.make ~name:"fig5-criu-dump" (Staged.stage (fun () ->
          ignore (Dapper_criu.Dump.dump p)));
      Test.make ~name:"fig5-unwind" (Staged.stage (fun () ->
          ignore
            (Unwind.unwind_all image
               (Dapper_binary.Stackmap_index.handle c.Link.cp_x86.bin_stackmaps)
               ~anchors:c.Link.cp_x86.bin_anchors)));
      Test.make ~name:"fig5-rewrite-x86-to-arm" (Staged.stage (fun () ->
          ignore (Rewrite.rewrite image ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm)));
      Test.make ~name:"fig5-criu-restore" (Staged.stage (fun () ->
          ignore (Dapper_criu.Restore.restore image_arm c.Link.cp_arm)));
      (* The checksummed wire: a clean transmit of the recoded image's
         files, its page table sent as its pages, hashes every byte of
         every file twice with the word-wide digest (sender manifest,
         arrival check) and charges its modeled time without sleeping, so
         this is the digest cost of the transfer stage. *)
      Test.make ~name:"transfer-verify" (Staged.stage (fun () ->
          ignore
            (Dapper_net.Transport.transmit scp
               ~stats:(Dapper_net.Transport.fresh_tx_stats ()) ~bytes:arm_bytes
               arm_files)));
      (* The commit acknowledgement: every data, heap and TLS page of the
         paused fixture against its restored aarch64 twin, by number and
         bytes. *)
      Test.make ~name:"commit-ack" (Staged.stage (fun () ->
          ignore (Process.same_state p twin)));
      (* The state digest replay takes at every anchor: every data, heap
         and TLS page of the paused fixture. *)
      Test.make ~name:"commit-observe" (Staged.stage (fun () ->
          ignore (Process.observe p)));
      (* The two stages that hold a migration's pages: a dump of the
         paused fixture and a restore of its recoded aarch64 image. Both
         pass pages by reference, so this is their bookkeeping. *)
      Test.make ~name:"dump-restore" (Staged.stage (fun () ->
          ignore (Dapper_criu.Dump.dump p);
          ignore (Dapper_criu.Restore.restore image_arm c.Link.cp_arm)));
      (* Incremental recode: every rewrite after the first hits the
         output memo (unchanged fixture), so this measures the digest +
         patch-replay fast path against fig5-rewrite-x86-to-arm above. *)
      Test.make ~name:"fig5-rewrite-warm-memo"
        (let memo = Plan_cache.create_memo () in
         ignore
           (Dapper_util.Dapper_error.ok_exn
              (Rewrite.rewrite ~memo image ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm));
         Staged.stage (fun () ->
             ignore
               (Rewrite.rewrite ~memo image ~src:c.Link.cp_x86 ~dst:c.Link.cp_arm)));
      (* The chunked-overlap scheduler itself (pure arithmetic over the
         chunk list): cost of planning a 1 MiB image in 64 KiB chunks. *)
      Test.make ~name:"fig5-pipeline-schedule" (Staged.stage (fun () ->
          ignore
            (Dapper_net.Transport.pipeline_schedule
               (Dapper_net.Transport.scp Dapper_net.Link.infiniband)
               ~bytes:(1 lsl 20) ~chunk_bytes:65536 ~recode_ns:2.0e6)));
      Test.make ~name:"fig6-interp-100k-instrs" (Staged.stage (fun () ->
          let q = Process.load c.Link.cp_arm in
          ignore (Process.run q ~max_instrs:100_000)));
      (* A fresh process's first 5k instructions, the regime of a
         pingpong hop, where decoding is not amortized: nginx from its
         entry point on x86-64. *)
      Test.make ~name:"interp-cold-5k-instrs"
        (let nginx = (Registry.compiled (Registry.find "nginx")).Link.cp_x86 in
         Staged.stage (fun () ->
             let q = Process.load nginx in
             ignore (Process.run q ~max_instrs:5_000)));
      (* Record/replay overhead: a full recorded execution (eqpoint walk
         with per-anchor snapshots) and a validating replay of that
         recording, against the plain fig6 interpretation baseline. *)
      Test.make ~name:"replay-record" (Staged.stage (fun () ->
          ignore (Dapper_replay.Replayer.record qs_bin)));
      Test.make ~name:"replay-run" (Staged.stage (fun () ->
          ignore (Dapper_replay.Replayer.replay ~log:qs_log qs_bin)));
      Test.make ~name:"fig7-crit-show" (Staged.stage (fun () ->
          ignore (Dapper_criu.Crit.show image)));
      Test.make ~name:"fig8-scheduler-30min" (Staged.stage (fun () ->
          ignore (Scheduler.run cfg kinds)));
      (* The event queue itself: push 4096 entries with scattered times
         and drain them — the per-event log-time cost every simulator
         loop above pays. *)
      Test.make ~name:"event-heap-churn" (Staged.stage (fun () ->
          let h = Dapper_util.Event_heap.create () in
          let state = ref 0x2545F4914F6C in
          for i = 0 to 4095 do
            state := ((!state * 25214903917) + 11) land 0xFFFF_FFFF_FFFF;
            Dapper_util.Event_heap.push h ~key:(i land 7)
              ~time:(float (!state land 0xFFFF)) i
          done;
          ignore (Dapper_util.Event_heap.drain h)));
      (* Engine overhead of the scaled fleet simulator: a full 10-node /
         1k-job fig8-xl run, so ns/run here divided by x_events is the
         per-event dispatch cost at small scale. *)
      Test.make ~name:"fig8-xl-sched-overhead" (Staged.stage (fun () ->
          ignore
            (Fleet_xl.run
               (Experiments.fig8_xl_config ~nodes:10 ~jobs:1_000
                  ~policy:Placement.First_fit)
               kinds)));
      Test.make ~name:"fig9-shuffle-sbi" (Staged.stage (fun () ->
          ignore (Shuffle.shuffle_binary (Dapper_util.Rng.create 1L) c.Link.cp_x86)));
      Test.make ~name:"fig10-entropy" (Staged.stage (fun () ->
          let _, stats = Shuffle.shuffle_binary (Dapper_util.Rng.create 2L) c.Link.cp_arm in
          ignore (Shuffle.average_bits stats)));
      Test.make ~name:"fig11-gadget-scan" (Staged.stage (fun () ->
          ignore (Gadgets.scan c.Link.cp_x86)));
      (* A whole recode of the redis fixture, stack-map lookups and plan
         cache included. *)
      Test.make ~name:"redis-recode-x86-to-arm" (Staged.stage (fun () ->
          ignore (Rewrite.rewrite rimage ~src:rc.Link.cp_x86 ~dst:rc.Link.cp_arm))) ]

let results_file = "BENCH_RESULTS.json"

(* --trace FILE: one traced end-to-end scp migration of the npb fixture
   on the simulated clock, exported as Chrome trace_event JSON plus a
   plain-text flame summary. Under eager scp nothing charges the clock
   outside the six stage spans, so the per-stage span totals printed by
   the flame summary agree with the cost report's phase times. *)
let run_trace file =
  let module Trace = Dapper_obs.Trace in
  let c = Registry.compiled (Registry.find "npb-cg.A") in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:400_000);
  Trace.start ();
  match
    Session.migrate ~src_node:Dapper_net.Node.xeon ~dst_node:Dapper_net.Node.rpi
      ~src_bin:c.Link.cp_x86 ~dst_bin:c.Link.cp_arm p
  with
  | Error e -> failwith ("traced migration failed: " ^ Dapper_util.Dapper_error.to_string e)
  | Ok r ->
    Trace.stop ();
    Trace.export ~file;
    print_endline (Session.cost_report r);
    print_string (Trace.flame_summary ());
    Printf.printf "wrote %s (%d trace events)\n" file
      (List.length (Trace.events ()))

let run_micro ?(json = false) ?(smoke = false) ?trace () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let quota = Time.second (if smoke then 0.05 else 0.5) in
  let cfg =
    Benchmark.cfg ~limit:(if smoke then 50 else 1000) ~quota ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances (tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  print_endline "== Bechamel micro-benchmarks (monotonic clock per run) ==";
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some [ est ] -> Some est
        | _ -> None
      in
      rows := (name, est) :: !rows)
    results;
  let rows = List.sort compare !rows in
  Dapper_util.Tbl.print ~title:"micro" ~header:[ "operation"; "time/run" ]
    (List.map
       (fun (name, est) ->
         [ name;
           (match est with Some e -> Printf.sprintf "%.0f ns" e | None -> "n/a") ])
       rows);
  if json then begin
    let module J = Dapper_util.Json in
    let entries =
      List.map
        (fun (name, est) ->
          J.Obj
            [ ("name", J.String name);
              ("ns_per_run", match est with Some e -> J.Float e | None -> J.Null) ])
        rows
    in
    let doc =
      J.Obj
        [ ("suite", J.String "dapper-micro"); ("smoke", J.Bool smoke);
          ("benchmarks", J.List entries) ]
    in
    let oc = open_out results_file in
    output_string oc (J.to_string doc);
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote %s (%d benchmarks)\n" results_file (List.length entries)
  end;
  Option.iter run_trace trace

let run () = run_micro ()
