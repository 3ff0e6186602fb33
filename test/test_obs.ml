(* Observability plane: trace well-formedness on the simulated clock,
   the metrics registry, agreement between the registry entries kept and
   the per-run records, and replay determinism. *)

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

(* Summed duration (ms) of the closed spans called [name] (of category
   [cat], if given) in [events]. *)
let span_ms ?cat name events =
  let total = ref 0.0 and stack = ref [] in
  List.iter
    (fun (e : Trace.event) ->
      match (e.Trace.ev_phase, !stack) with
      | Trace.Begin, _ -> stack := e.Trace.ev_ts_ns :: !stack
      | Trace.End, t0 :: rest ->
        stack := rest;
        if e.Trace.ev_name = name && Option.fold ~none:true ~some:(( = ) e.Trace.ev_cat) cat
        then total := !total +. ((e.Trace.ev_ts_ns -. t0) /. 1e6)
      | Trace.End, [] -> ())
    events;
  !total

(* The recorded trace as {!Trace.export} writes it. *)
let exported () =
  let file = Filename.temp_file "dapper-trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Trace.export ~file;
      In_channel.with_open_bin file In_channel.input_all)

let migrate_once () =
  let c = Registry_helpers.compute () in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:120_000);
  match
    Session.migrate ~src_node:Node.xeon ~dst_node:Node.rpi
      ~src_bin:c.Link.cp_x86 ~dst_bin:c.Link.cp_arm p
  with
  | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e)
  | Ok r -> r

(* ----- the trace sink ----- *)

let test_trace_disabled_is_noop () =
  Trace.start ();
  Trace.stop ();
  check Alcotest.int "the body still runs" 7
    (Trace.with_span "ghost" (fun c ->
         Trace.set_dur c 2.0e6;
         Trace.advance 5.0e6;
         7));
  Trace.leaf "ghost-leaf" ~dur_ns:1.0e6;
  check Alcotest.int "nothing recorded while disabled" 0
    (List.length (Trace.events ()))

let test_trace_clock_semantics () =
  Trace.start ();
  Trace.with_span "outer" (fun outer ->
      Trace.set_dur outer 9.0e6;
      Trace.advance 2.0e6;
      Trace.with_span "inner" (fun inner ->
          Trace.set_dur inner 1.0e6;
          Trace.advance 3.0e6));
  Trace.stop ();
  let events = Trace.events () in
  check_well_formed events;
  (* inner's explicit duration is shorter than what it charged, so the
     clock never moves backwards; outer's is longer than everything
     charged inside it, so the clock jumps to its begin + dur *)
  check
    Alcotest.(list (pair string (float 0.0)))
    "span timestamps"
    [ ("outer", 0.0); ("inner", 2.0e6); ("inner", 5.0e6); ("outer", 9.0e6) ]
    (List.map (fun (e : Trace.event) -> (e.Trace.ev_name, e.Trace.ev_ts_ns)) events);
  check (Alcotest.float 0.0) "outer span total" 9.0 (span_ms "outer" events);
  check (Alcotest.float 0.0) "inner span total" 3.0 (span_ms "inner" events)

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
  Trace.stop ();
  let events = Trace.events () in
  (* no span leaked by the raise *)
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
    (span_ms "doomed" events)

let test_traced_migration_well_formed () =
  Trace.start ();
  let r = migrate_once () in
  Trace.stop ();
  let events = Trace.events () in
  check Alcotest.bool "events recorded" true (events <> []);
  check_well_formed events;
  (* per-stage span totals agree with the session's phase times (eager
     scp: nothing charges the clock outside the stage spans) *)
  let t = r.Session.r_times in
  let close what want got =
    check Alcotest.bool
      (Printf.sprintf "%s: %.6f ~ %.6f" what want got)
      true
      (abs_float (want -. got) < 1e-6)
  in
  let stage s = span_ms ~cat:"session" s events in
  close "checkpoint = pause + dump spans" t.Session.t_checkpoint_ms
    (stage "pause" +. stage "dump");
  close "recode span" t.Session.t_recode_ms (stage "recode");
  close "transfer span" t.Session.t_scp_ms (stage "transfer");
  close "restore = restore + commit spans" t.Session.t_restore_ms
    (stage "restore" +. stage "commit");
  (* the Chrome export carries one object per event *)
  (match Json_read.member_opt "traceEvents" (Json_read.of_string (exported ())) with
   | Some (Dapper_util.Json.List evs) ->
     check Alcotest.int "one JSON object per event" (List.length events)
       (List.length evs)
   | _ -> Alcotest.fail "the export has no traceEvents list")

(* A traced pipelined migration marks each chunk of its transfer
   schedule with one tx-chunk leaf, in chunk order. *)
let test_traced_pipelined_chunks () =
  let c = Registry_helpers.compute () in
  let p = Process.load c.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:120_000);
  let cfg =
    { (Session.default_config ~src_bin:c.Link.cp_x86 ~dst_bin:c.Link.cp_arm) with
      Session.cfg_pipeline = true;
      cfg_chunk_bytes = 4096 }
  in
  Trace.start ();
  let r =
    match Session.run (Session.start cfg p) with
    | Ok s -> Session.finish s
    | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e)
  in
  Trace.stop ();
  let chunks =
    List.filter_map
      (fun (e : Trace.event) ->
        if e.Trace.ev_name = "tx-chunk" && e.Trace.ev_phase = Trace.Begin then
          List.assoc_opt "chunk" e.Trace.ev_args
        else None)
      (Trace.events ())
  in
  let sched =
    Transport.pipeline_schedule cfg.Session.cfg_transport ~bytes:r.Session.r_image_bytes
      ~chunk_bytes:4096 ~recode_ns:(r.Session.r_times.Session.t_recode_ms *. 1e6)
  in
  check Alcotest.bool "several chunks scheduled" true (sched.Transport.pp_chunks > 1);
  check
    Alcotest.(list string)
    "one leaf per scheduled chunk, in order"
    (List.init sched.Transport.pp_chunks string_of_int)
    chunks

(* ----- the metrics registry ----- *)

let test_metrics_registry () =
  let c = Metrics.counter "obs.test.counter" in
  Metrics.inc c;
  Metrics.inc c ~by:4;
  check Alcotest.int "counter accumulates" 5 (Metrics.counter_value c);
  check Alcotest.bool "re-request returns the same metric" true
    (Metrics.counter "obs.test.counter" == c);
  check Alcotest.bool "found by name" true
    (match Metrics.find "obs.test.counter" with
     | Some (Metrics.Counter c') -> c' == c
     | None -> false)

let find_counter name =
  match Metrics.find name with
  | Some (Metrics.Counter c) -> Metrics.counter_value c
  | None -> Alcotest.failf "missing counter %s" name

(* The registry's counters count the same events as the per-run
   records: one migration per corpus program must move the
   transmit-attempt counter by the sum of the per-run records, and
   pre-copy runs must move the pre-copy counters by exactly their rounds
   and pages — the deltas the wall-clock benchmark reads. *)
let test_kept_metrics_match_records () =
  let attempts = ref 0 in
  let attempts0 = find_counter "transport.tx.attempts" in
  let migrated = ref 0 in
  List.iter
    (fun (name, c) ->
      let p = Process.load c.Link.cp_x86 in
      if not (Oracle.advance_to_point p ~budget:30_000_000 0) then
        Alcotest.failf "%s exited before its first equivalence point" name;
      match
        Session.migrate ~src_node:Node.xeon ~dst_node:Node.rpi
          ~src_bin:c.Link.cp_x86 ~dst_bin:c.Link.cp_arm p
      with
      | Error e -> Alcotest.fail (Dapper_util.Dapper_error.to_string e)
      | Ok r ->
        incr migrated;
        attempts := !attempts + r.Session.r_transfer.Transport.tx_attempts)
    (Corpus.all ());
  check Alcotest.bool "corpus migrated" true (!migrated > 0);
  check Alcotest.int "transport.tx.attempts delta = attempts made" !attempts
    (find_counter "transport.tx.attempts" - attempts0);
  (* pre-copy: a source that keeps running between rounds re-dirties
     pages, so some runs take more than one round *)
  let rounds = ref 0 and pages = ref 0 and multi_round = ref false in
  let rounds0 = find_counter "session.precopy.rounds"
  and pages0 = find_counter "session.precopy.pages" in
  List.iter
    (fun c ->
      let p = Process.load c.Link.cp_x86 in
      ignore (Process.run p ~max_instrs:120_000);
      let st =
        Session.precopy
          (Session.default_config ~src_bin:c.Link.cp_x86 ~dst_bin:c.Link.cp_arm)
          p
          ~advance:(fun _ -> ignore (Process.run p ~max_instrs:20_000))
          ~max_rounds:4 ~downtime_budget_ms:0.0
      in
      let n = List.length st.Session.pcs_rounds in
      if n > 1 then multi_round := true;
      rounds := !rounds + n;
      pages :=
        List.fold_left ( + ) !pages st.Session.pcs_rounds)
    [ Registry_helpers.compute (); Registry_helpers.other_app () ];
  check Alcotest.bool "some pre-copy took several rounds" true !multi_round;
  check Alcotest.int "session.precopy.rounds delta = rounds run" !rounds
    (find_counter "session.precopy.rounds" - rounds0);
  check Alcotest.int "session.precopy.pages delta = pages shipped" !pages
    (find_counter "session.precopy.pages" - pages0)

(* ----- replay determinism ----- *)

let chaos_trace () =
  Trace.start ();
  (match Dapper_verify.Chaos.sweep ~spec:(Dapper_util.Fault.uniform 0.2) ~seeds:4 () with
   | Ok _ -> ()
   | Error f -> Alcotest.fail (Dapper_verify.Chaos.failure_to_string f));
  Trace.stop ();
  exported ()

let test_chaos_replay_trace_identical () =
  let t1 = chaos_trace () in
  let t2 = chaos_trace () in
  check Alcotest.bool "trace non-trivial" true (String.length t1 > 2);
  check Alcotest.int "same size" (String.length t1) (String.length t2);
  check Alcotest.bool "two replays of one sweep: byte-identical traces" true
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
        Alcotest.test_case "traced pipelined transfer: one leaf per chunk" `Quick
          test_traced_pipelined_chunks;
        Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
        Alcotest.test_case "kept metrics match per-run records (corpus)" `Quick
          test_kept_metrics_match_records;
        Alcotest.test_case "chaos replay: byte-identical traces" `Quick
          test_chaos_replay_trace_identical ] ) ]
