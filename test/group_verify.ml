(* Checking migrations: the conformance oracle, the chaos harness and
   record/replay. *)
let suites = Test_verify.suites @ Test_chaos.suites @ Test_replay.suites
