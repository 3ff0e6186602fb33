(* The chaos harness's own guarantees: runs are replayable bit for bit
   from their seed, a calm schedule always commits, and a hostile sweep
   never loses a process. The 200-seed suite proper runs as the @chaos
   dune alias; this keeps a smaller sweep in tier 1. *)

open Dapper_isa
module Chaos = Dapper_verify.Chaos
module Corpus = Dapper_verify.Corpus
module Fault = Dapper_util.Fault
module Link = Dapper_codegen.Link

let check = Alcotest.check

let quickstart () = Option.get (Corpus.find "mini-quickstart")

(* The x86-64 recording of [c], the reference a chaos run checks. *)
let x86_log c =
  match Dapper_replay.Replayer.record c.Link.cp_x86 with
  | Ok log -> log
  | Error e -> Alcotest.failf "record failed: %s" e

let test_chaos_replayable () =
  let once () =
    let c = quickstart () in
    match
      Chaos.run_one ~spec:(Fault.uniform 0.3) ~seed:5 ~log:(x86_log c)
        ~dst:Arch.Aarch64 c
    with
    | Ok r -> Chaos.run_report_to_string r
    | Error f -> Alcotest.fail (Chaos.failure_to_string f)
  in
  check Alcotest.string "same seed, same run" (once ()) (once ())

let test_chaos_calm_commits () =
  let c = quickstart () in
  match Chaos.run_one ~spec:Fault.calm ~seed:0 ~log:(x86_log c) ~dst:Arch.Aarch64 c with
  | Error f -> Alcotest.fail (Chaos.failure_to_string f)
  | Ok r ->
    check Alcotest.bool "calm runs commit" true (r.Chaos.cr_verdict = Chaos.Committed);
    check Alcotest.int "no faults injected" 0 r.Chaos.cr_faults;
    check Alcotest.int "nothing retransmitted" 0 r.Chaos.cr_retransmits

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
