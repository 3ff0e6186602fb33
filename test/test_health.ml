(* Health-plane tests: model-based circuit-breaker properties (never
   serves while open, re-closes after the configured probe wins),
   watchdog transfer-deadline cancellation through the 2PC rollback
   path, the degradation rungs and postponement backoff, the
   budget-infeasible fallback, jittered retry backoff staying inside the
   closed-form envelope, and invariants of a tiny sustained-chaos
   sweep. *)

open Dapper_machine
open Dapper_net
open Dapper_health
module Link = Dapper_codegen.Link
module Netlink = Dapper_net.Link
module Session = Dapper.Session
module Budget = Dapper_traffic.Budget
module Derr = Dapper_util.Dapper_error
module Fault = Dapper_util.Fault
module Arch = Dapper_isa.Arch

let check = Alcotest.check

(* ----- breaker: model-based properties ----- *)

(* Reference model of the three-state machine, straight from the
   breaker's documented contract. Outcomes are only ever recorded
   for work the breaker allowed, mirroring real callers. *)
type model =
  | M_closed of int          (* consecutive-failure streak *)
  | M_open of float          (* trip time *)
  | M_half of int            (* consecutive probe wins *)

let model_allow cfg m ~now_ms =
  match m with
  | M_closed _ | M_half _ -> (m, true)
  | M_open since ->
    if now_ms -. since >= cfg.Breaker.b_open_ms then (M_half 0, true)
    else (m, false)

let model_success cfg m =
  match m with
  | M_closed _ -> M_closed 0
  | M_half wins ->
    if wins + 1 >= cfg.Breaker.b_probe_successes then M_closed 0
    else M_half (wins + 1)
  | M_open _ -> m

let model_failure cfg m ~now_ms =
  match m with
  | M_closed streak ->
    if streak + 1 >= cfg.Breaker.b_failure_threshold then M_open now_ms
    else M_closed (streak + 1)
  | M_half _ -> M_open now_ms
  | M_open _ -> m

let model_state = function
  | M_closed _ -> Breaker.Closed
  | M_open _ -> Breaker.Open
  | M_half _ -> Breaker.Half_open

(* An op stream: per step, a time increment and an outcome coin. The
   driver queries [allow] at each step and records the outcome only when
   the breaker served. *)
let arb_ops =
  QCheck.make
    ~print:(fun l ->
      String.concat ";"
        (List.map (fun (dt, f) -> Printf.sprintf "(+%d,%b)" dt f) l))
    QCheck.Gen.(list_size (int_range 1 120) (pair (int_range 0 150) bool))

let state_name = function
  | Breaker.Closed -> "closed"
  | Breaker.Open -> "open"
  | Breaker.Half_open -> "half-open"

let qcheck_breaker_model =
  QCheck.Test.make ~count:300
    ~name:"breaker agrees with the three-state model (never serves open)"
    (QCheck.pair arb_ops
       (QCheck.pair (QCheck.int_range 1 4) (QCheck.int_range 1 3)))
    (fun (ops, (threshold, probes)) ->
      let cfg =
        { Breaker.b_failure_threshold = threshold;
          b_probe_successes = probes;
          b_open_ms = 200.0 }
      in
      let b = Breaker.create ~cfg () in
      let model = ref (M_closed 0) in
      let now = ref 0.0 in
      List.iter
        (fun (dt, fail) ->
          now := !now +. float_of_int dt;
          let now_ms = !now in
          let m', expect = model_allow cfg !model ~now_ms in
          model := m';
          let got = Breaker.allow b ~now_ms in
          if got <> expect then
            QCheck.Test.fail_reportf "allow at %.0f: got %b, model %b" now_ms
              got expect;
          (* the headline property, independent of the model: an open
             breaker still inside its cooldown never serves *)
          if (not expect) && got then
            QCheck.Test.fail_reportf "served while open at %.0f" now_ms;
          if got then begin
            if fail then begin
              Breaker.record_failure b ~now_ms;
              model := model_failure cfg !model ~now_ms
            end
            else begin
              Breaker.record_success b ~now_ms;
              model := model_success cfg !model
            end
          end;
          if Breaker.state b <> model_state !model then
            QCheck.Test.fail_reportf "state at %.0f: got %s, model %s" now_ms
              (state_name (Breaker.state b))
              (state_name (model_state !model)))
        ops;
      true)

let test_breaker_recloses () =
  let cfg =
    { Breaker.b_failure_threshold = 2; b_probe_successes = 2;
      b_open_ms = 100.0 }
  in
  let b = Breaker.create ~cfg () in
  Breaker.record_failure b ~now_ms:0.0;
  check Alcotest.bool "one failure stays closed" true
    (Breaker.state b = Breaker.Closed);
  Breaker.record_failure b ~now_ms:1.0;
  check Alcotest.bool "threshold trips open" true
    (Breaker.state b = Breaker.Open);
  check Alcotest.int "one trip" 1 (Breaker.trips b);
  check Alcotest.bool "refuses inside cooldown" false
    (Breaker.allow b ~now_ms:50.0);
  check Alcotest.bool "probe allowed past cooldown" true
    (Breaker.allow b ~now_ms:101.0);
  check Alcotest.bool "probing is half-open" true
    (Breaker.state b = Breaker.Half_open);
  Breaker.record_success b ~now_ms:102.0;
  check Alcotest.bool "one win is not enough" true
    (Breaker.state b = Breaker.Half_open);
  Breaker.record_success b ~now_ms:103.0;
  check Alcotest.bool "probe_successes wins re-close" true
    (Breaker.state b = Breaker.Closed);
  (* a half-open failure re-opens for another cooldown *)
  Breaker.record_failure b ~now_ms:104.0;
  Breaker.record_failure b ~now_ms:105.0;
  ignore (Breaker.allow b ~now_ms:300.0);
  Breaker.record_failure b ~now_ms:301.0;
  check Alcotest.bool "failed probe re-opens" true
    (Breaker.state b = Breaker.Open);
  check Alcotest.bool "re-opened breaker refuses" false
    (Breaker.allow b ~now_ms:320.0)

(* ----- watchdog: early cancel through the 2PC rollback path ----- *)

let session_cfg () =
  let c = Registry_helpers.compute () in
  let src_bin = Link.binary_for c Arch.X86_64 in
  let dst_bin = Link.binary_for c Arch.Aarch64 in
  Session.default_config ~src_bin ~dst_bin

let test_guard_cancel_rolls_back () =
  let cfg = session_cfg () in
  let p = Process.load cfg.Session.cfg_src_bin in
  (* a budget no transfer can meet: the watchdog must cancel the
     transfer stage before any bytes move *)
  let att = Guard.run ~budget_ms:1e-6 cfg p in
  check Alcotest.bool "cancelled at the transfer stage" true
    (att.Guard.ga_cancelled = Some Derr.Transfer);
  (match att.Guard.ga_outcome with
   | Error (Derr.Deadline_exceeded (Derr.Transfer, ms)) ->
     check Alcotest.bool "projected cost is positive" true (ms > 0.0)
   | Error e -> Alcotest.failf "wrong error: %s" (Derr.to_string e)
   | Ok _ -> Alcotest.fail "committed past an impossible deadline");
  (* the cancel is a rollback, not an abandonment: the source is running
     again and completes like a native run *)
  check Alcotest.bool "source not parked" false (Process.all_quiescent p);
  (match Process.run_to_completion p ~fuel:400_000_000 with
   | Process.Exited_run _ -> ()
   | _ -> Alcotest.fail "rolled-back source did not complete")

let test_guard_commit_within_budget () =
  let cfg = session_cfg () in
  let p = Process.load cfg.Session.cfg_src_bin in
  let att = Guard.run ~budget_ms:1e9 cfg p in
  (match att.Guard.ga_outcome with
   | Ok o ->
     check Alcotest.bool "dump footprint recorded" true
       (o.Session.r_dump.Dapper_criu.Dump.pages_dumped > 0)
   | Error e -> Alcotest.failf "generous budget failed: %s" (Derr.to_string e));
  check Alcotest.bool "no cancel" true (att.Guard.ga_cancelled = None);
  check Alcotest.bool "blackout accounted" true (att.Guard.ga_blackout_ms > 0.0)

(* ----- degradation rungs ----- *)

let test_degrade_ladder () =
  check (Alcotest.float 1e-9) "backoff doubles" 2000.0
    (Sustained.postpone_backoff_ms ~attempt:2);
  check (Alcotest.float 1e-9) "backoff caps" 8000.0
    (Sustained.postpone_backoff_ms ~attempt:9);
  Alcotest.check_raises "negative attempt rejected"
    (Invalid_argument "Sustained.postpone_backoff_ms: attempt < 0") (fun () ->
      ignore (Sustained.postpone_backoff_ms ~attempt:(-1)))

(* ----- budget: the infeasible counter ----- *)

let test_budget_infeasible_fallback () =
  let est =
    { Budget.e_image_bytes = 100_000_000; e_residual_bytes = 25_000_000;
      e_fixed_ms = 1e6; e_lazy_fixed_ms = 1e6; e_wire_ns_per_byte = 100.0 }
  in
  let mech, fits = Budget.choose_detail ~budget_ms:1.0 est in
  check Alcotest.bool "nothing fits" false fits;
  (* the least-bad fallback is still the minimum-downtime mechanism *)
  let d m = Budget.downtime_ms est m in
  check Alcotest.bool "fallback minimizes downtime" true
    (List.for_all (fun m' -> d mech <= d m') Budget.[ Vanilla; Precopy; Hybrid; Postcopy ]);
  let _, fits2 = Budget.choose_detail ~budget_ms:1e12 est in
  check Alcotest.bool "feasible budget fits" true fits2

(* ----- jittered retry backoff stays inside the closed-form envelope ----- *)

let test_jittered_backoff_envelope () =
  let files =
    List.init 4 (fun i -> (Printf.sprintf "img%d" i, [ String.make 1024 'x' ]))
  in
  let spec = { Fault.calm with Fault.fs_drop = 0.5 } in
  let transmit ~seed jitter =
    let t =
      Transport.retrying ?jitter ~attempts:4 (Transport.scp Netlink.infiniband)
    in
    let stats = Transport.fresh_tx_stats () in
    let fault = Fault.make ~seed spec in
    let r = Transport.transmit t ~fault ~stats ~bytes:4096 files in
    (r, stats)
  in
  (* deterministically pick a schedule that actually forces retries *)
  let seed =
    let rec find s =
      if s > 64 then Alcotest.fail "no seed under 64 forced a retransmit"
      else
        let _, st = transmit ~seed:s None in
        if st.Transport.tx_retransmits > 0 then s else find (s + 1)
    in
    find 0
  in
  let transmit jitter = transmit ~seed jitter in
  let r_plain, s_plain = transmit None in
  let r_jit, s_jit = transmit (Some 42L) in
  (* the jitter stream never changes what happens on the wire — only
     what the waiting costs *)
  check Alcotest.bool "same outcome" true
    (Result.is_ok r_plain = Result.is_ok r_jit);
  check Alcotest.int "same attempts" s_plain.Transport.tx_attempts
    s_jit.Transport.tx_attempts;
  check Alcotest.int "same retransmits" s_plain.Transport.tx_retransmits
    s_jit.Transport.tx_retransmits;
  check Alcotest.bool "fault schedule forced retries" true
    (s_plain.Transport.tx_retransmits > 0);
  (* every charged backoff is the envelope scaled by [0.5, 1.5), so the
     totals obey the same bound (the plain run is the closed form that
     "backoff closed form" in the net suite checks) *)
  check Alcotest.bool "plain backoff positive" true
    (s_plain.Transport.tx_backoff_ns > 0.0);
  check Alcotest.bool "jittered backoff >= 0.5x envelope" true
    (s_jit.Transport.tx_backoff_ns >= 0.5 *. s_plain.Transport.tx_backoff_ns);
  check Alcotest.bool "jittered backoff < 1.5x envelope" true
    (s_jit.Transport.tx_backoff_ns < 1.5 *. s_plain.Transport.tx_backoff_ns);
  (* replayable: the same jitter seed charges the same total *)
  let _, s_jit2 = transmit (Some 42L) in
  check (Alcotest.float 0.0) "jitter replayable from seed"
    s_jit.Transport.tx_backoff_ns s_jit2.Transport.tx_backoff_ns

(* ----- sustained chaos: tiny-sweep invariants ----- *)

let test_sustained_invariants () =
  let c = Registry_helpers.compute () in
  let src_bin = Link.binary_for c Arch.X86_64 in
  let dst_bin = Link.binary_for c Arch.Aarch64 in
  let scfg = Session.default_config ~src_bin ~dst_bin in
  let fresh () = Process.load src_bin in
  let cfg =
    { Sustained.default_cfg with
      Sustained.su_requests = 4_000; su_migrate_at_ms = 300.0 }
  in
  (* both arms over the same three seeds; [paired] reports a breach of
     the verdict count, the attempt bound or the p99 ordering *)
  let (runs, _), (off_runs, _), breaches =
    Sustained.paired cfg scfg ~fresh ~seeds:3 ~seed0:7L
  in
  check Alcotest.(list string) "no invariant breached" [] breaches;
  check Alcotest.int "every seed ran" 3 (List.length runs);
  List.iter
    (fun (r : Sustained.run) ->
      check Alcotest.bool "at least one attempt" true (r.Sustained.r_attempts >= 1);
      check Alcotest.bool "availability in [0, 1]" true
        (r.Sustained.r_availability >= 0.0 && r.Sustained.r_availability <= 1.0);
      (* a landed job names its rack; a rolled-back one does not *)
      (match r.Sustained.r_verdict with
       | Sustained.Rolled_back ->
         check Alcotest.bool "no rack on rollback" true
           (r.Sustained.r_final_rack = None)
       | _ ->
         check Alcotest.bool "landed runs name a rack" true
           (r.Sustained.r_final_rack <> None)))
    runs;
  (* replayable: the same seed reproduces the same run bit for bit *)
  let again = Sustained.run cfg scfg ~fresh ~seed:7L in
  let first = List.hd runs in
  check Alcotest.int64 "same fingerprint" first.Sustained.r_fingerprint
    again.Sustained.r_fingerprint;
  check Alcotest.string "same verdict"
    (Sustained.verdict_name first.Sustained.r_verdict)
    (Sustained.verdict_name again.Sustained.r_verdict);
  (* pinned: each seed's fingerprint, verdict and attempts, with the
     control plane on and off over the same seeds *)
  let pin runs =
    List.map
      (fun (r : Sustained.run) ->
        Printf.sprintf "seed=%Ld fp=%016Lx verdict=%s attempts=%d"
          r.Sustained.r_seed r.Sustained.r_fingerprint
          (Sustained.verdict_name r.Sustained.r_verdict)
          r.Sustained.r_attempts)
      runs
  in
  check
    Alcotest.(list string)
    "control-on pins"
    [ "seed=7 fp=d734514b98199fb4 verdict=committed attempts=1";
      "seed=8 fp=1c7bce2f5228f763 verdict=committed attempts=1";
      "seed=9 fp=48164855b9e86d51 verdict=committed attempts=1" ]
    (pin runs);
  check
    Alcotest.(list string)
    "control-off pins"
    [ "seed=7 fp=0eb85ddc5db5b064 verdict=committed attempts=1";
      "seed=8 fp=e30abe5c87df6f7f verdict=committed attempts=1";
      "seed=9 fp=803ca24865862af1 verdict=committed attempts=1" ]
    (pin off_runs)

let suites =
  [ ( "health",
      [ QCheck_alcotest.to_alcotest qcheck_breaker_model;
        Alcotest.test_case "breaker trips, probes, re-closes" `Quick
          test_breaker_recloses;
        Alcotest.test_case "watchdog cancel rolls back cleanly" `Quick
          test_guard_cancel_rolls_back;
        Alcotest.test_case "generous budget commits" `Quick
          test_guard_commit_within_budget;
        Alcotest.test_case "degradation ladder" `Quick test_degrade_ladder;
        Alcotest.test_case "budget-infeasible fallback" `Quick
          test_budget_infeasible_fallback;
        Alcotest.test_case "jittered backoff inside the envelope" `Quick
          test_jittered_backoff_envelope;
        Alcotest.test_case "sustained sweep invariants (3 seeds)" `Quick
          test_sustained_invariants ] ) ]
