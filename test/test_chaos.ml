(* The chaos harness's own guarantees: runs are replayable bit for bit
   from their seed, a calm schedule always commits, and a hostile sweep
   never loses a process. The 200-seed suite proper runs as the @chaos
   dune alias; this keeps a smaller sweep in tier 1. *)

module Chaos = Dapper_verify.Chaos
module Fault = Dapper_util.Fault

let check = Alcotest.check

(* The reports of a sweep's runs, in seed order. *)
let sweep_reports ~spec ~seeds =
  let reports = ref [] in
  match Chaos.sweep ~progress:(fun r -> reports := r :: !reports) ~spec ~seeds () with
  | Ok _ -> List.rev !reports
  | Error f -> Alcotest.fail (Chaos.failure_to_string f)

let test_chaos_replayable () =
  let once () =
    List.map Chaos.run_report_to_string (sweep_reports ~spec:(Fault.uniform 0.3) ~seeds:3)
  in
  check Alcotest.(list string) "same seeds, same runs" (once ()) (once ())

let test_chaos_calm_commits () =
  List.iter
    (fun (r : Chaos.run_report) ->
      check Alcotest.bool "calm runs commit" true (r.Chaos.cr_verdict = Chaos.Committed);
      check Alcotest.int "no faults injected" 0 r.Chaos.cr_faults;
      check Alcotest.int "nothing retransmitted" 0 r.Chaos.cr_retransmits)
    (sweep_reports ~spec:Fault.calm ~seeds:2)

let test_chaos_sweep_invariant () =
  match Chaos.sweep ~spec:(Fault.uniform 0.25) ~seeds:12 () with
  | Error f -> Alcotest.fail (Chaos.failure_to_string f)
  | Ok s ->
    check Alcotest.int "every seed ran" 12 s.Chaos.cs_runs;
    check Alcotest.int "every run committed or rolled back" 12
      (s.Chaos.cs_committed + s.Chaos.cs_rolled_back);
    check Alcotest.bool "chaos actually happened" true (s.Chaos.cs_faults > 0)

let suites =
  [ ( "chaos",
      [ Alcotest.test_case "runs replayable from seed" `Quick test_chaos_replayable;
        Alcotest.test_case "calm schedule commits" `Quick test_chaos_calm_commits;
        Alcotest.test_case "hostile sweep: no process lost" `Slow
          test_chaos_sweep_invariant ] ) ]
