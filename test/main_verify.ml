(* Checking migrations: the conformance oracle, the chaos harness and
   record/replay. *)
let () =
  Runner.run "dapper-verify"
    (Test_verify.suites @ Test_chaos.suites @ Test_replay.suites)
