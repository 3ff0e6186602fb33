(* The planes built on migration: the fleet engines, live traffic, the
   health plane and observability. *)
let suites =
  Test_cluster.suites @ Test_obs.suites @ Test_traffic.suites @ Test_health.suites
