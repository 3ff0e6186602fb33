(* Observability plane: trace well-formedness on the simulated clock,
   the metrics registry, agreement between the new accounting plane and
   the legacy per-run stats records, and replay determinism. *)

open Dapper_machine
open Dapper
module Trace = Dapper_obs.Trace
module Metrics = Dapper_obs.Metrics
module Link = Dapper_codegen.Link
module Node = Dapper_net.Node
module Transport = Dapper_net.Transport
module Oracle = Dapper_verify.Oracle
module Corpus = Dapper_verify.Corpus

let check = Alcotest.check

(* Replay the event stream with a stack: every End must close the
   innermost open Begin, timestamps never decrease, and a finished
   trace leaves no span open. *)
let check_well_formed events =
  let stack = ref [] in
  let last_ts = ref neg_infinity in
  List.iter
    (fun (e : Trace.event) ->
      check Alcotest.bool "monotone timestamps" true (e.Trace.ev_ts_ns >= !last_ts);
      last_ts := e.Trace.ev_ts_ns;
      match e.Trace.ev_phase with
      | Trace.Begin -> stack := e.Trace.ev_name :: !stack
      | Trace.End ->
        (match !stack with
         | top :: rest ->
           check Alcotest.string "exit matches innermost open span" top
             e.Trace.ev_name;
           stack := rest
         | [] -> Alcotest.fail "End event with no open span"))
    events;
  check Alcotest.int "all spans closed" 0 (List.length !stack)

let migrate_once () =
  let c = Registry_helpers.compute () in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:120_000);
  match
    Migrate.migrate ~src_node:Node.xeon ~dst_node:Node.rpi
      ~src_bin:c.Link.cp_x86 ~dst_bin:c.Link.cp_arm p
  with
  | Error e -> Alcotest.fail (Migrate.error_to_string e)
  | Ok r -> r

(* ----- the trace sink ----- *)

let test_trace_disabled_is_noop () =
  Trace.stop ();
  Trace.reset ();
  check Alcotest.int "the body still runs" 7
    (Trace.with_span "ghost" (fun c ->
         Trace.set_dur c 2.0e6;
         Trace.advance 5.0e6;
         7));
  Trace.leaf "ghost-leaf" ~dur_ns:1.0e6;
  check Alcotest.int "nothing recorded while disabled" 0
    (List.length (Trace.events ()));
  check (Alcotest.float 0.0) "clock pinned at zero" 0.0 (Trace.now_ns ())

let test_trace_clock_semantics () =
  Trace.start ();
  Trace.with_span "outer" (fun outer ->
      Trace.set_dur outer 9.0e6;
      Trace.advance 2.0e6;
      Trace.with_span "inner" (fun inner ->
          Trace.set_dur inner 1.0e6;
          Trace.advance 3.0e6);
      (* explicit duration shorter than what children charged: the
         clock never moves backwards *)
      check (Alcotest.float 0.0) "clock kept by bigger child charge" 5.0e6
        (Trace.now_ns ()));
  (* explicit duration longer than charges: clock jumps forward *)
  check (Alcotest.float 0.0) "clock jumps to begin + dur" 9.0e6 (Trace.now_ns ());
  check Alcotest.int "every span closed" 0 (Trace.open_spans ());
  check_well_formed (Trace.events ());
  check (Alcotest.float 0.0) "outer span total" 9.0
    (Trace.total_ms "outer");
  check (Alcotest.float 0.0) "inner span total" 3.0
    (Trace.total_ms "inner");
  Trace.stop ();
  Trace.reset ()

(* Regression: manual open/close pairing used to leak the open span
   when the instrumented code raised — the next close then hit the
   wrong span (or failed) far from the real fault. with_span must close
   exactly once on every exit path, recording the exception as a
   closing arg. *)
let test_with_span_closes_on_raise () =
  Trace.start ();
  let exception Boom in
  check Alcotest.bool "exception re-raised" true
    (match
       Trace.with_span "outer" (fun _ ->
           Trace.with_span "doomed" (fun c ->
               Trace.set_dur c 4.0e6;
               Trace.add_arg c "stage" "mid";
               raise Boom))
     with
    | exception Boom -> true
    | () -> false);
  check Alcotest.int "no span leaked by the raise" 0 (Trace.open_spans ());
  Trace.stop ();
  let events = Trace.events () in
  check_well_formed events;
  (* the doomed span's End event carries the accumulated args plus the
     appended exception marker, and its set_dur still moved the clock *)
  (match
     List.find_opt
       (fun (e : Trace.event) ->
         e.Trace.ev_phase = Trace.End && e.Trace.ev_name = "doomed")
       events
   with
  | None -> Alcotest.fail "doomed span has no End event"
  | Some e ->
    check Alcotest.bool "closing arg recorded" true
      (List.mem_assoc "stage" e.Trace.ev_args);
    check Alcotest.bool "exception arg appended" true
      (List.mem_assoc "exception" e.Trace.ev_args));
  check (Alcotest.float 0.0) "set_dur applied despite the raise" 4.0
    (Trace.total_ms "doomed");
  Trace.reset ()

let test_traced_migration_well_formed () =
  Trace.start ();
  let r = migrate_once () in
  Trace.stop ();
  let events = Trace.events () in
  check Alcotest.bool "events recorded" true (events <> []);
  check Alcotest.int "no span left open" 0 (Trace.open_spans ());
  check_well_formed events;
  (* per-stage span totals agree with the session's phase times (eager
     scp: nothing charges the clock outside the stage spans) *)
  let t = r.Migrate.r_times in
  let close what want got =
    check Alcotest.bool
      (Printf.sprintf "%s: %.6f ~ %.6f" what want got)
      true
      (abs_float (want -. got) < 1e-6)
  in
  let stage s = Trace.total_ms ~cat:"session" s in
  close "checkpoint = pause + dump spans" t.Migrate.t_checkpoint_ms
    (stage "pause" +. stage "dump");
  close "recode span" t.Migrate.t_recode_ms (stage "recode");
  close "transfer span" t.Migrate.t_scp_ms (stage "transfer");
  close "restore = restore + commit spans" t.Migrate.t_restore_ms
    (stage "restore" +. stage "commit");
  (* the Chrome export carries one object per event *)
  (match Trace.to_chrome_json () with
   | Dapper_util.Json.Obj kvs ->
     (match List.assoc "traceEvents" kvs with
      | Dapper_util.Json.List evs ->
        check Alcotest.int "one JSON object per event" (List.length events)
          (List.length evs)
      | _ -> Alcotest.fail "traceEvents is not a list")
   | _ -> Alcotest.fail "chrome export is not an object");
  Trace.reset ()

(* ----- the metrics registry ----- *)

let test_metrics_registry () =
  let c = Metrics.counter "obs.test.counter" in
  Metrics.inc c;
  Metrics.inc c ~by:4;
  check Alcotest.int "counter accumulates" 5 (Metrics.counter_value c);
  check Alcotest.bool "re-request returns the same metric" true
    (Metrics.counter "obs.test.counter" == c);
  check Alcotest.bool "re-registering as another type rejected" true
    (match Metrics.gauge "obs.test.counter" with
     | exception Invalid_argument _ -> true
     | _ -> false);
  let g = Metrics.gauge "obs.test.gauge" in
  Metrics.set g 2.0;
  Metrics.add g 1.5;
  check (Alcotest.float 0.0) "gauge set + add" 3.5 (Metrics.gauge_value g);
  let h = Metrics.histogram ~bounds:[| 1.0; 10.0 |] "obs.test.hist" in
  List.iter (Metrics.observe h) [ 0.5; 5.0; 50.0; 0.2 ];
  check Alcotest.int "histogram count" 4 (Metrics.histogram_count h);
  check (Alcotest.float 1e-9) "histogram sum" 55.7 (Metrics.histogram_sum h);
  (match Metrics.histogram_buckets h with
   | [ (b1, c1); (b2, c2); (b3, c3) ] ->
     check (Alcotest.float 0.0) "first bound" 1.0 b1;
     check Alcotest.int "le 1" 2 c1;
     check (Alcotest.float 0.0) "second bound" 10.0 b2;
     check Alcotest.int "le 10" 1 c2;
     check Alcotest.bool "overflow bucket unbounded" true (b3 = infinity);
     check Alcotest.int "overflow" 1 c3
   | _ -> Alcotest.fail "expected 3 buckets");
  check Alcotest.bool "descending bounds rejected" true
    (match Metrics.histogram ~bounds:[| 2.0; 1.0 |] "obs.test.bad" with
     | exception Invalid_argument _ -> true
     | _ -> false);
  Metrics.reset ();
  check Alcotest.int "reset zeroes counters" 0 (Metrics.counter_value c);
  check Alcotest.int "reset zeroes histograms" 0 (Metrics.histogram_count h);
  check Alcotest.bool "reset keeps registrations" true
    (List.mem "obs.test.counter" (Metrics.names ()))

let find_counter name =
  match Metrics.find name with
  | Some (Metrics.Counter c) -> Metrics.counter_value c
  | _ -> Alcotest.failf "missing counter %s" name

let find_histogram name =
  match Metrics.find name with
  | Some (Metrics.Histogram h) -> h
  | _ -> Alcotest.failf "missing histogram %s" name

(* The registry is the aggregate view over the same events the legacy
   per-run records tally: after a registry reset, one migration per
   corpus program must leave registry totals equal to the sum of the
   per-run stats. *)
let test_metrics_match_legacy_stats () =
  Metrics.reset ();
  let frames = ref 0 and values = ref 0 and ptrs = ref 0 in
  let hits = ref 0 and misses = ref 0 in
  let index = ref 0 and interval = ref 0 in
  let attempts = ref 0 in
  let checkpoint = ref 0.0 and recode = ref 0.0 in
  let scp = ref 0.0 and restore = ref 0.0 in
  let migrated = ref 0 in
  List.iter
    (fun (name, c) ->
      let p = Process.load c.Link.cp_x86 in
      if not (Oracle.advance_to_point p ~budget:30_000_000 0) then
        Alcotest.failf "%s exited before its first equivalence point" name;
      match
        Migrate.migrate ~src_node:Node.xeon ~dst_node:Node.rpi
          ~src_bin:c.Link.cp_x86 ~dst_bin:c.Link.cp_arm p
      with
      | Error e -> Alcotest.fail (Migrate.error_to_string e)
      | Ok r ->
        incr migrated;
        let rw = r.Migrate.r_rewrite in
        frames := !frames + rw.Rewrite.st_frames;
        values := !values + rw.Rewrite.st_values;
        ptrs := !ptrs + rw.Rewrite.st_ptrs_translated;
        hits := !hits + rw.Rewrite.st_plan_hits;
        misses := !misses + rw.Rewrite.st_plan_misses;
        index := !index + rw.Rewrite.st_index_lookups;
        interval := !interval + rw.Rewrite.st_interval_lookups;
        attempts := !attempts + r.Migrate.r_transfer.Transport.tx_attempts;
        let t = r.Migrate.r_times in
        checkpoint := !checkpoint +. t.Migrate.t_checkpoint_ms;
        recode := !recode +. t.Migrate.t_recode_ms;
        scp := !scp +. t.Migrate.t_scp_ms;
        restore := !restore +. t.Migrate.t_restore_ms)
    (Corpus.all ());
  check Alcotest.bool "corpus migrated" true (!migrated > 0);
  check Alcotest.int "rewrite.runs" !migrated (find_counter "rewrite.runs");
  check Alcotest.int "rewrite.frames" !frames (find_counter "rewrite.frames");
  check Alcotest.int "rewrite.values" !values (find_counter "rewrite.values");
  check Alcotest.int "rewrite.ptrs_translated" !ptrs
    (find_counter "rewrite.ptrs_translated");
  check Alcotest.int "rewrite.plan_hits" !hits (find_counter "rewrite.plan_hits");
  check Alcotest.int "rewrite.plan_misses" !misses
    (find_counter "rewrite.plan_misses");
  check Alcotest.int "rewrite.index_lookups" !index
    (find_counter "rewrite.index_lookups");
  check Alcotest.int "rewrite.interval_lookups" !interval
    (find_counter "rewrite.interval_lookups");
  check Alcotest.int "transport.tx.attempts" !attempts
    (find_counter "transport.tx.attempts");
  check Alcotest.int "session.commits" !migrated (find_counter "session.commits");
  check Alcotest.int "session.rollbacks" 0 (find_counter "session.rollbacks");
  let stage s = Metrics.histogram_sum (find_histogram ("session.stage_ms." ^ s)) in
  let close what want got =
    check Alcotest.bool
      (Printf.sprintf "%s: %.6f ~ %.6f" what want got)
      true
      (abs_float (want -. got) < 1e-9)
  in
  close "stage histograms: checkpoint" !checkpoint (stage "pause" +. stage "dump");
  close "stage histograms: recode" !recode (stage "recode");
  close "stage histograms: scp" !scp (stage "transfer");
  close "stage histograms: restore" !restore (stage "restore" +. stage "commit");
  check Alcotest.int "one observation per stage per migration" !migrated
    (Metrics.histogram_count (find_histogram "session.stage_ms.commit"));
  (* the cost_report histogram table reflects the same registry *)
  let table = Migrate.stage_histogram_table () in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "histogram table lists the commit stage" true
    (contains table "commit")

(* ----- replay determinism ----- *)

let chaos_trace () =
  let c = Option.get (Corpus.find "mini-sieve") in
  Trace.start ();
  (match
     Dapper_verify.Chaos.run_one ~spec:(Dapper_util.Fault.uniform 0.2) ~seed:3
       ~src:Dapper_isa.Arch.X86_64 ~dst:Dapper_isa.Arch.Aarch64 c
   with
  | Ok _ -> ()
  | Error f -> Alcotest.fail (Dapper_verify.Chaos.failure_to_string f));
  Trace.stop ();
  let json = Dapper_util.Json.to_string (Trace.to_chrome_json ()) in
  Trace.reset ();
  json

let test_chaos_replay_trace_identical () =
  let t1 = chaos_trace () in
  let t2 = chaos_trace () in
  check Alcotest.bool "trace non-trivial" true (String.length t1 > 2);
  check Alcotest.int "same size" (String.length t1) (String.length t2);
  check Alcotest.bool "two replays of one seed: byte-identical traces" true
    (String.equal t1 t2)

let suites =
  [ ( "obs",
      [ Alcotest.test_case "trace disabled is a no-op" `Quick
          test_trace_disabled_is_noop;
        Alcotest.test_case "trace clock semantics" `Quick test_trace_clock_semantics;
        Alcotest.test_case "with_span closes on raise" `Quick
          test_with_span_closes_on_raise;
        Alcotest.test_case "traced migration well-formed" `Quick
          test_traced_migration_well_formed;
        Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
        Alcotest.test_case "metrics match legacy stats (corpus)" `Quick
          test_metrics_match_legacy_stats;
        Alcotest.test_case "chaos replay: byte-identical traces" `Quick
          test_chaos_replay_trace_identical ] ) ]
