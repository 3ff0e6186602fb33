(* Migration itself: the Dapper core (monitor, rewriter, policies,
   sessions), CRIU images, transport, stack shuffling, and the workloads
   migrated across ISAs. *)
let suites =
  Test_dapper.suites
  @ Test_workloads.suites
  @ Test_security.suites
  @ Test_criu.suites
  @ Test_monitor.suites
  @ Test_policy.suites
  @ Test_rewrite.suites
  @ Test_net.suites
  @ Test_session.suites
