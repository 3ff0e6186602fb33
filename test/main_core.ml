let () = Runner.run "dapper-core" Group_core.suites
